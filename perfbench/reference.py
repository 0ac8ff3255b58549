"""Independent numpy references for the sweep and states workloads.

Nothing here calls entropy_kit.  Entropies are evaluated from a spectrum
through t - 1 = sum_i p_i expm1((q - 1) ln p_i) + (sum_i p_i - 1), which
stays accurate next to q = 1 and keeps the mass a rank snap removes.  The
documented limit windows of the library (|q - 1| < 1e-7 dispatches to
Shannon, |s| < 1e-9 to Renyi) are mirrored, so points inside a window are
compared with the limit formula the library promises there.
"""

from __future__ import annotations

import math

import numpy as np

Q_WINDOW = 1e-7
S_WINDOW = 1e-9
#: documented rank snap: eigenvalues at or below this are treated as 0
RANK_SNAP = 1e-12
#: agreement tolerance, relative to (1 + |reference|)
REL_TOL = 1e-9


def close(value, ref) -> np.ndarray:
    """Elementwise |value - ref| <= REL_TOL (1 + |ref|); NaN matches NaN."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    both_nan = np.isnan(value) & np.isnan(ref)
    with np.errstate(invalid="ignore"):
        ok = np.abs(value - ref) <= REL_TOL * (1.0 + np.abs(ref))
    return ok | both_nan


def snapped(spectrum: np.ndarray) -> np.ndarray:
    """The spectrum with the documented 1e-12 rank snap applied."""
    out = np.array(spectrum, dtype=float)
    out[out <= RANK_SNAP] = 0.0
    return out


def unified(spectrum, qs: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """E_q^(s) of one spectrum at every (q, s) pair of the grid."""
    p = np.asarray(spectrum, dtype=float)
    p = p[p > 0]
    lp = np.log(p)
    shannon = float(-np.sum(p * lp))
    mass_defect = math.fsum(p) - 1.0
    tm1 = np.sum(p * np.expm1(np.outer(qs - 1.0, lp)), axis=1) + mass_defect
    log_t = np.log1p(tm1)
    q_lim = np.abs(qs - 1.0) < Q_WINDOW
    s_lim = ~q_lim & (np.abs(ss) < S_WINDOW)
    with np.errstate(divide="ignore", invalid="ignore"):
        general = np.expm1(ss * log_t) / ((1.0 - qs) * ss)
        renyi = log_t / (1.0 - qs)
    return np.where(q_lim, shannon, np.where(s_lim, renyi, general))


def max_unified(qs: np.ndarray, ss: np.ndarray, d: int) -> np.ndarray:
    """(d^((1-q)s) - 1)/((1-q)s), the value at the flat state; ln d in a window."""
    x = (1.0 - qs) * ss
    lim = (np.abs(qs - 1.0) < Q_WINDOW) | (np.abs(ss) < S_WINDOW)
    with np.errstate(divide="ignore", invalid="ignore"):
        general = np.expm1(x * math.log(d)) / x
    return np.where(lim, math.log(d), general)


def _q_log(x: float, q: float) -> float:
    if abs(q - 1.0) < Q_WINDOW:
        return math.log(x)
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)


def _x_pow_q_minus_x(x: float, q: float) -> float:
    """x^q - x = x expm1((q - 1) ln x), with 0 at x = 0."""
    return x * math.expm1((q - 1.0) * math.log(x)) if x > 0 else 0.0


def _binary_tsallis(eps: float, q: float) -> float:
    if abs(q - 1.0) < Q_WINDOW:
        return -sum(x * math.log(x) for x in (eps, 1.0 - eps) if x > 0)
    return (_x_pow_q_minus_x(eps, q) + _x_pow_q_minus_x(1.0 - eps, q)) / (1.0 - q)


def low_threshold(q: float) -> float:
    """Largest admissible 2 eps of the low-index bound, q^(1/(1-q)); 1/e at q = 1."""
    if q == 1.0:
        return math.exp(-1.0)
    return math.exp(math.log1p(q - 1.0) / (1.0 - q))


def fannes_bound(q: float, s: float, d: int, eps: float) -> float:
    """The unified continuity bound, or NaN outside its proven region."""
    if 0 < q < 1 and (s <= -1.0 or 0.0 <= s <= 1.0):
        x = 2.0 * eps
        if x > low_threshold(q):
            return math.nan
        if eps == 0.0:
            return 0.0
        if abs(q - 1.0) < Q_WINDOW:
            eta = -x * math.log(x)
        else:
            eta = _x_pow_q_minus_x(x, q) / (1.0 - q)
        return x**q * _q_log(d, q) + eta
    if q > 1 and (-1.0 <= s <= 0.0 or s >= 1.0):
        kappa = float(d) ** (2.0 * (q - 1.0)) if s <= 0.0 else 1.0
        return kappa * (eps**q * _q_log(d - 1, q) + _binary_tsallis(eps, q))
    return math.nan


def top_eigenvalues(mat: np.ndarray, rank: int) -> np.ndarray:
    """The rank largest eigenvalues of a Hermitian matrix, by eigvalsh."""
    return np.linalg.eigvalsh(mat)[-rank:]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of singular values of a - b (an SVD, not an eigensolver)."""
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())

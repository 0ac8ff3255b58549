"""Unified (q, s)-entropy family for distributions and density operators.

The two-parameter functional is

    E_q^(s)(P) = [ (sum_i p_i^q)^s - 1 ] / [ (1 - q) s ],   q > 0,

with the Renyi entropy at s -> 0, the Tsallis entropy at s = 1 and the
Shannon (von Neumann) entropy at q -> 1.  Every entropy depends on a
spectrum alone, so each one takes a ``ProbabilityDistribution``, a
``DensityOperator`` or a sequence of probabilities, and all of them
evaluate through one path, alone or as a table of many spectra at many
points.  Logarithms are natural throughout and 0 * ln 0 = 0.  Limits are
dispatched through the thresholds in ``TOL`` and evaluated with the
scalar expm1/log, so values stay stable close to the special points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, FloatRange, InvalidIndex
from .linops import DensityOperator, ProbabilityDistribution, _SpectralMemo, _power_sums
from .tolerances import TOL


def _check_q(q: float) -> None:
    # written so that NaN fails too
    if not 0.0 < q < math.inf:
        raise InvalidIndex(f"entropic index q must be positive and finite, got {q!r}")


@dataclass(frozen=True)
class UnifiedParams:
    """Finite index pair (q, s) with q > 0."""

    q: float
    s: float

    def __post_init__(self):
        _check_q(self.q)
        if not math.isfinite(self.s):
            raise InvalidIndex(f"entropic index s must be finite, got {self.s!r}")

    @property
    def is_q_limit(self) -> bool:
        return abs(self.q - 1.0) < TOL.q_limit

    @property
    def is_s_limit(self) -> bool:
        return not self.is_q_limit and abs(self.s) < TOL.s_limit


def q_log(x: float, q: float) -> float:
    """q-logarithm ln_q(x) = (x^(1-q) - 1)/(1 - q), with ln x at q -> 1."""
    if not x > 0:
        raise DomainError(f"q-logarithm needs x > 0, got {x!r}")
    if not 0.0 < q < math.inf:  # inline, as in BoundSpec: on every bound
        raise InvalidIndex(f"entropic index q must be positive and finite, got {q!r}")
    if abs(q - 1.0) < TOL.q_limit:
        return math.log(x)
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q) + 0.0


def _from_power_sum(t: float, q: float, s: float) -> float:
    """The (q, s) formula on a power sum t > 0, q outside its limit
    window; unchecked, and the only copy of the formula."""
    if abs(s) < TOL.s_limit:
        return math.log(t) / (1.0 - q) + 0.0
    # + 0.0 turns the -0.0 arising at t = 1 into a plain zero
    return math.expm1(s * math.log(t)) / ((1.0 - q) * s) + 0.0


def unified_from_power_sum(t: float, q: float, s: float) -> float:
    """Unified entropy from a precomputed power sum t = sum p_i^q.

    Needs q away from its limit window; the s -> 0 limit is handled.
    """
    if not t > 0:
        raise DomainError(f"power sum must be positive, got {t!r}")
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        raise InvalidIndex("power-sum form is undefined in the q -> 1 limit window")
    try:
        return _from_power_sum(t, q, s)
    except OverflowError:
        raise FloatRange(
            f"entropy at t = {t!r}, q = {q!r}, s = {s!r} exceeds the float range"
        ) from None


def _beyond_float_range(params: UnifiedParams) -> FloatRange:
    # t^s overflowed, or the power sum t underflowed to 0 (no logarithm)
    return FloatRange(f"entropy at q = {params.q!r}, s = {params.s!r} leaves the float range")


def _unified(spectrum, params: UnifiedParams) -> float:
    """The one evaluation path: every entropy below is this function of
    a spectrum holder at some indices."""
    if not isinstance(spectrum, _SpectralMemo):
        spectrum = ProbabilityDistribution(spectrum)
    if params.is_q_limit:
        return spectrum.shannon()
    try:
        return _from_power_sum(spectrum.power_sum(params.q), params.q, params.s)
    except (OverflowError, ValueError):
        raise _beyond_float_range(params) from None


def _entropy_rows(holders, grid) -> list:
    """Entropies of spectrum holders at the ``UnifiedParams`` of ``grid``,
    one row per holder: row[k] is bit for bit ``_unified(holder,
    grid[k])``, with the power sums of each q taken once for all holders
    (see ``_power_sums``) and q -> 1 points sent through ``_unified``."""
    sums = _power_sums(holders, [p.q for p in grid]).T.tolist()
    cols = []
    for p, col in zip(grid, sums):
        if p.is_q_limit:
            cols.append([_unified(h, p) for h in holders])
            continue
        try:
            cols.append([_from_power_sum(t, p.q, p.s) for t in col])
        except (OverflowError, ValueError):
            raise _beyond_float_range(p) from None
    return list(zip(*cols)) if cols else [()] * len(holders)


def renyi(p, q: float) -> float:
    """Renyi entropy ln(sum p_i^q)/(1 - q); Shannon at q -> 1."""
    return _unified(p, UnifiedParams(q, 0.0))


def tsallis(p, q: float) -> float:
    """Tsallis entropy (sum p_i^q - 1)/(1 - q); Shannon at q -> 1."""
    return _unified(p, UnifiedParams(q, 1.0))


def type_q_entropy(p, q: float) -> float:
    """Type-q entropy [(sum p_i^(1/q))^q - 1]/(q - 1): the unified
    entropy at indices (1/q, q); Shannon at q -> 1."""
    _check_q(q)
    return _unified(p, UnifiedParams(1.0 / q, q))


def unified_classical(p, params: UnifiedParams) -> float:
    """Unified (q, s)-entropy of a probability distribution."""
    return _unified(p, params)


def unified_quantum(rho: DensityOperator, params: UnifiedParams) -> float:
    """Unified (q, s)-entropy of a density operator (of its spectrum)."""
    return _unified(rho, params)


def binary_tsallis(eps: float, q: float) -> float:
    """Binary Tsallis entropy H_q(eps, 1 - eps) = (eps^q + (1-eps)^q - 1)/(1 - q)."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"binary argument must lie in [0, 1], got {eps!r}")
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        out = 0.0
        for x in (eps, 1.0 - eps):
            if x > 0:
                out -= x * math.log(x)
        return out
    return (eps**q + (1.0 - eps) ** q - 1.0) / (1.0 - q) + 0.0

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

Which of the three forms a point takes (Shannon, ln t / (1 - q), or
expm1(s ln t) / ((1 - q) s)) and its denominator are decided once, when
its ``UnifiedParams`` is built.  ``_unified`` evaluates one holder at a
point and ``_from_logs`` a column of a table; each holds a copy of the
two-line formula, as a call per value would cost more than the formula.
``_entropy_table`` reads many spectra, rows of value stacks, at many
points: it raises each stack to each distinct q once, takes one scalar
``math.log`` per (spectrum, q), shared by every s at that q, and one
scalar ``math.expm1`` per cell, and leaves the products, quotients and
``+ 0.0`` to numpy, which rounds them exactly as Python floats do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FloatRange, InvalidIndex
from .linops import DensityOperator, ProbabilityDistribution, _SpectralMemo, _float_value, _real, _shown, _spectrum
from .tolerances import TOL


def _check_q(q: float) -> None:
    # written so that NaN fails too
    if not 0.0 < _float_value(q) < math.inf:
        raise InvalidIndex(f"entropic index q must be positive and finite, got {_shown(q)}")


def _check_indices(q: float, s: float) -> None:
    """The index rule of ``UnifiedParams`` and ``BoundSpec``: q positive and
    finite, s finite."""
    _check_q(q)
    if not -math.inf < _float_value(s) < math.inf:
        raise InvalidIndex(f"entropic index s must be finite, got {_shown(s)}")


def _point_form(q: float, s: float):
    """How the formula is evaluated at (q, s): None in the q -> 1 window,
    (None, 1 - q) in the s -> 0 window, else (s, (1 - q) s)."""
    if abs(q - 1.0) < TOL.q_limit:
        return None
    if abs(s) < TOL.s_limit:
        return None, 1.0 - q
    return s, (1.0 - q) * s


@dataclass(frozen=True, init=False)
class UnifiedParams:
    """Finite index pair (q, s) with q > 0.

    Which formula applies at (q, s), and its denominator, is decided here
    once (see ``_point_form``) and kept outside the fields, so equality,
    hashing and repr read (q, s) alone.
    """

    q: float
    s: float

    def __init__(self, q: float, s: float):
        # renyi, tsallis and type_q_entropy build a pair per call: a float
        # pair that passes the rule's comparisons skips the calls
        if not (type(q) is float and type(s) is float and 0.0 < q < math.inf and -math.inf < s < math.inf):
            _check_indices(q, s)
        # the fields of a frozen record and its form, set in one step
        self.__dict__.update(q=q, s=s, _form=_point_form(q, s))

    @property
    def is_q_limit(self) -> bool:
        return self._form is None

    @property
    def is_s_limit(self) -> bool:
        return self._form is not None and self._form[0] is None


def q_log(x: float, q: float) -> float:
    """q-logarithm ln_q(x) = (x^(1-q) - 1)/(1 - q), with ln x at q -> 1."""
    if not _real(x) > 0:
        raise DomainError(f"q-logarithm needs x > 0, got {_shown(x)}")
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        return math.log(x)
    try:
        return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q) + 0.0
    except OverflowError:
        raise FloatRange(
            f"q-logarithm at x = {_shown(x)}, q = {_shown(q)} exceeds the float range"
        ) from None


def _from_logs(logs: np.ndarray, form) -> np.ndarray:
    """The formula at one (q, s) outside the q -> 1 window, given its
    ``_point_form``, on the logarithms ln t of power sums t; unchecked.

    Bit for bit the scalar formula of ``_unified``: ``math.expm1`` per
    value, and numpy's elementwise ``* / +``, which round as Python floats
    do, silent as they are where a value leaves the float range."""
    s, den = form
    with np.errstate(over="ignore", invalid="ignore"):
        if s is not None:
            logs = np.array(list(map(math.expm1, (s * logs).tolist())))
        # + 0.0 turns the -0.0 arising at t = 1 into a plain zero
        return logs / den + 0.0


def unified_from_power_sum(t: float, q: float, s: float) -> float:
    """Unified entropy from a precomputed power sum t = sum p_i^q.

    Needs q away from its limit window; the s -> 0 limit is handled.  A
    normalized spectrum has t <= 1 for q > 1 and t >= 1 for q < 1, so t
    beyond 1 by more than ``TOL.trace`` on the other side is refused.
    """
    if not 0.0 < _real(t) < math.inf:
        raise DomainError(f"power sum must be positive and finite, got {_shown(t)}")
    form = UnifiedParams(q, s)._form
    if form is None:
        raise InvalidIndex("power-sum form is undefined in the q -> 1 limit window")
    if (t > 1.0 + TOL.trace) if q > 1.0 else (t < 1.0 - TOL.trace):
        raise DomainError(f"no normalized spectrum has power sum {_shown(t)} at q = {q!r}")
    try:
        return _from_logs(np.array([math.log(t)]), form).item()
    except OverflowError:
        raise FloatRange(
            f"entropy at t = {_shown(t)}, q = {q!r}, s = {s!r} exceeds the float range"
        ) from None


def _beyond_float_range(params: UnifiedParams) -> FloatRange:
    # t^s overflowed, or the power sum t underflowed to 0 (no logarithm)
    return FloatRange(f"entropy at q = {params.q!r}, s = {params.s!r} leaves the float range")


def _unified(spectrum, params: UnifiedParams) -> float:
    """The one evaluation path: every entropy below is this function of
    a spectrum holder at some indices."""
    if not isinstance(spectrum, _SpectralMemo):
        spectrum = ProbabilityDistribution(spectrum)
    try:
        form = params._form
    except AttributeError:  # caught here, not checked on every call
        raise DomainError(f"expected UnifiedParams, got {type(params).__name__}") from None
    if form is None:
        return spectrum.shannon()
    s, den = form
    try:
        t = spectrum.power_sum(params.q)
        if s is None:
            return math.log(t) / den + 0.0
        return math.expm1(s * math.log(t)) / den + 0.0
    except (OverflowError, ValueError):
        raise _beyond_float_range(params) from None


def _entropy_table(rows: list, grid, q_only: bool = False) -> np.ndarray:
    """The (rows, grid) array of entropies at the ``UnifiedParams`` of
    ``grid``, or of power sums tr(rho^q) for ``q_only``, of spectra given as
    rows (stack, j) of value stacks (``linops._stack_rows``,
    ``_density_stacks``): row j of the C-contiguous (n, d) array stack[0].
    Cell [i, k] is bit for bit ``_unified`` (for ``q_only``,
    ``power_sum``) of row i at grid[k].

    Each stack is raised to each distinct q once, as a Python float, and
    summed over its own axis; zero padding, an array of exponents or a
    strided sum would change bits (numpy's pairwise blocking, the ``**``
    fast paths).  The columns of one q share their logarithms; q -> 1
    points go through ``_unified``."""
    if not rows:
        return np.empty((0, len(grid)))
    qs = list(dict.fromkeys(p.q for p in grid))
    # the (q, row) power sums of every stack side by side; at: each stack's first column
    at, parts, size = {}, [], 0
    for stack, _ in rows:
        if id(stack) not in at:
            vals = stack[0]
            at[id(stack)] = size
            size += len(vals)
            parts.append(np.array([(vals**q).sum(axis=1) for q in qs]).reshape(len(qs), len(vals)))
    sums = np.concatenate(parts, axis=1)[:, [at[id(stack)] + j for stack, j in rows]]
    col = {q: j for j, q in enumerate(qs)}
    if q_only:
        return sums[[col[p.q] for p in grid]].T
    table = np.empty((len(rows), len(grid)))
    logs, holders = {}, None
    for k, p in enumerate(grid):
        if p._form is None:
            if holders is None:
                holders = [_spectrum(stack[0][j]) for stack, j in rows]
            table[:, k] = [_unified(h, p) for h in holders]
            continue
        try:
            if p.q not in logs:
                logs[p.q] = np.array(list(map(math.log, sums[col[p.q]].tolist())))
            table[:, k] = _from_logs(logs[p.q], p._form)
        except (OverflowError, ValueError):
            raise _beyond_float_range(p) from None
    return table


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
    if not 0.0 <= _real(eps) <= 1.0:
        raise DomainError(f"binary argument must lie in [0, 1], got {_shown(eps)}")
    _check_q(q)
    return _binary_tsallis(eps, q)


def _binary_tsallis(eps: float, q: float) -> float:
    """``binary_tsallis`` on an eps in [0, 1] and a q that the caller has
    checked; the only copy of the formula."""
    if abs(q - 1.0) < TOL.q_limit:
        out = 0.0
        for x in (eps, 1.0 - eps):
            if x > 0:
                out -= x * math.log(x)
        return out
    return (eps**q + (1.0 - eps) ** q - 1.0) / (1.0 - q) + 0.0

"""Continuity and stability bounds for the unified entropy family.

Two Fannes-type trace-distance bounds cover the Tsallis case: a low-index
form valid for q in (0, 2] while 2*eps stays below q^(1/(1-q)), and a
high-index form for q > 1.  The unified bound composes these over the two
proven (q, s) regions, with a dimension factor d^(2(q-1)) on the high-q
side for s in [-1, 0].  Evaluating a bound outside its region raises
OutOfValidity instead of returning a number.  Indices follow the rule of
``UnifiedParams`` (q positive and finite, s finite), else InvalidIndex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropies import UnifiedParams, binary_tsallis, q_log
from .errors import DomainError, FloatRange, InvalidIndex, OutOfValidity
from .tolerances import TOL


#: every int up to 2**53 has an exact float value, so such a d (the
#: common case) needs no float round trip
_EXACT_INT = 2**53


def _check_dimension(d, least: int) -> None:
    """Raise DomainError unless d is an integer with an exact float value
    (the bounds evaluate d in floating point) and d >= least."""
    if type(d) is int and least <= d <= _EXACT_INT:
        return
    try:
        f = float(d)
    except OverflowError:
        f = math.nan
    if not (f == d and f.is_integer()):
        raise DomainError(
            f"dimension must be an integer with an exact float value, got {d!r}"
        )
    if d < least:
        raise DomainError(f"dimension must be at least {least}, got {d!r}")


@dataclass(frozen=True)
class BoundSpec:
    """Inputs of a bound evaluation: indices, dimension, trace distance."""

    q: float
    s: float
    d: int
    eps: float

    def __post_init__(self):
        # UnifiedParams' rule, inline: every bound evaluation builds a spec
        if not 0.0 < self.q < math.inf:
            raise InvalidIndex(f"entropic index q must be positive and finite, got {self.q!r}")
        if not -math.inf < self.s < math.inf:
            raise InvalidIndex(f"entropic index s must be finite, got {self.s!r}")
        _check_dimension(self.d, 2)
        if not 0.0 <= self.eps <= 1.0:
            raise DomainError(f"trace distance must lie in [0, 1], got {self.eps!r}")


def eta_q(x: float, q: float) -> float:
    """Generalized eta function (x^q - x)/(1 - q); -x ln x at q -> 1."""
    if not 0.0 <= x < math.inf:  # written so that NaN fails too
        raise DomainError(f"eta needs finite x >= 0, got {x!r}")
    if not 0.0 < q < math.inf:  # inline, as in BoundSpec: on every low-index bound
        raise InvalidIndex(f"entropic index q must be positive and finite, got {q!r}")
    if abs(q - 1.0) < TOL.q_limit:
        return -x * math.log(x) if x > 0 else 0.0
    return (x**q - x) / (1.0 - q)


def low_q_threshold(q: float) -> float:
    """Largest admissible 2*eps for the low-index bound: q^(1/(1-q)).

    Continuous through q = 1 where it equals 1/e.
    """
    if not 0.0 < q < math.inf:  # inline, as in BoundSpec: on every low-index bound
        raise InvalidIndex(f"entropic index q must be positive and finite, got {q!r}")
    if q == 1.0:
        return math.exp(-1.0)
    # log1p keeps ln q accurate near 1; for q below about 1e-16, q - 1
    # rounds to -1.0, which log1p refuses
    log_q = math.log1p(q - 1.0) if q - 1.0 > -1.0 else math.log(q)
    return math.exp(log_q / (1.0 - q))


def fannes_tsallis_low_q(spec: BoundSpec) -> float:
    """Low-index Tsallis continuity bound (2 eps)^q ln_q(d) + eta_q(2 eps).

    Valid for q in (0, 2] while 2*eps <= q^(1/(1-q)); at q = 1 this is the
    classic Fannes form 2 eps ln d - 2 eps ln(2 eps).
    """
    q, eps, d = spec.q, spec.eps, spec.d
    if q > 2:
        raise OutOfValidity(f"low-index bound needs q <= 2, got {q!r}")
    x = 2.0 * eps
    limit = low_q_threshold(q)
    if x > limit:
        raise OutOfValidity(f"2*eps = {x!r} exceeds the monotonicity threshold {limit!r}")
    if eps == 0.0:
        return 0.0
    return x**q * q_log(d, q) + eta_q(x, q)


def fannes_tsallis_high_q(spec: BoundSpec) -> float:
    """High-index Tsallis continuity bound eps^q ln_q(d-1) + H_q(eps, 1-eps)."""
    q, eps, d = spec.q, spec.eps, spec.d
    if not q > 1:
        raise OutOfValidity(f"high-index bound needs q > 1, got {q!r}")
    return eps**q * q_log(d - 1, q) + binary_tsallis(eps, q)


def kappa_s(q: float, s: float, d: int) -> float:
    """Dimension factor for the unified bound at q > 1.

    Equals d^(2(q-1)) for s in [-1, 0] and 1 for s >= 1; the strip
    0 < s < 1 (and s < -1) is outside the proven region.
    """
    UnifiedParams(q, s)
    if not q > 1:
        raise InvalidIndex(f"dimension factor needs q > 1, got {q!r}")
    _check_dimension(d, 2)
    return _kappa_s(q, s, d)


def _kappa_s(q: float, s: float, d: int) -> float:
    """``kappa_s`` for a q > 1 and d that the caller has checked."""
    if -1.0 <= s <= 0.0:
        try:
            return float(d) ** (2.0 * (q - 1.0))
        except OverflowError:
            raise FloatRange(
                f"dimension factor at q = {q!r}, d = {d!r} exceeds the float range"
            ) from None
    if s >= 1.0:
        return 1.0
    raise OutOfValidity(f"no proven factor for s = {s!r} at q > 1")


def fannes_range(q: float, s: float) -> str | None:
    """Which unified continuity region (q, s) falls in: "low", "high" or None.

    Low: 0 < q < 1 with s <= -1 or 0 <= s <= 1.
    High: q > 1 with -1 <= s <= 0 or s >= 1.
    """
    if 0 < q < 1 and (s <= -1.0 or 0.0 <= s <= 1.0):
        return "low"
    if q > 1 and (-1.0 <= s <= 0.0 or s >= 1.0):
        return "high"
    return None


def unified_fannes_bound(spec: BoundSpec) -> float:
    """Continuity bound for the unified (q, s)-entropy.

    In the low region this is the low-index Tsallis bound (with its
    2*eps threshold); in the high region it is kappa_s times the
    high-index Tsallis bound.  Elsewhere raises OutOfValidity.
    """
    region = fannes_range(spec.q, spec.s)
    if region == "low":
        return fannes_tsallis_low_q(spec)
    if region == "high":
        return _kappa_s(spec.q, spec.s, spec.d) * fannes_tsallis_high_q(spec)
    raise OutOfValidity(
        f"no unified continuity bound proven at (q, s) = ({spec.q!r}, {spec.s!r})"
    )


def lipschitz_bound(eps: float, q: float, s: float) -> float:
    """Lipschitz-type bound 2 q (q - 1)^(-1) eps, for q > 1 and s >= 1."""
    UnifiedParams(q, s)
    if not q > 1:
        raise InvalidIndex(f"Lipschitz bound needs q > 1, got {q!r}")
    if s < 1.0:
        raise OutOfValidity(f"Lipschitz bound proven for s >= 1, got {s!r}")
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"trace distance must lie in [0, 1], got {eps!r}")
    return 2.0 * q / (q - 1.0) * eps


def max_unified(q: float, s: float, d: int) -> float:
    """Largest unified entropy on a d-dimensional system.

    Attained at the maximally mixed state: (d^((1-q)s) - 1)/((1-q)s),
    which degenerates to ln d at s = 0 or q -> 1, and to 0 at d = 1.
    """
    UnifiedParams(q, s)
    _check_dimension(d, 1)
    if d == 1:
        return 0.0
    if abs(q - 1.0) < TOL.q_limit or abs(s) < TOL.s_limit:
        return math.log(d)
    x = (1.0 - q) * s
    try:
        return math.expm1(x * math.log(d)) / x
    except OverflowError:
        raise FloatRange(
            f"maximum at q = {q!r}, s = {s!r}, d = {d!r} exceeds the float range"
        ) from None


def stability_ratio_bound(spec: BoundSpec) -> float:
    """Continuity bound normalized by the maximal entropy.

    This is the Lesche-stability functional F(eps) = bound / max; it
    vanishes at eps = 0 and does not decrease up to 2*eps =
    q^(1/(1-q)) in the low region and up to eps = 1 - 1/d in the high
    one, where eps^q ln_q(d-1) + H_q(eps) peaks and past which it falls.
    """
    return unified_fannes_bound(spec) / max_unified(spec.q, spec.s, spec.d)


def thermodynamic_ratio_limit(q: float, s: float, eps: float) -> float:
    """d -> infinity limit of the normalized high-region bound, q > 1, s >= 1.

    Equals s (1 - (1 - eps)^q) = s [eps^q + (q - 1) H_q(eps, 1-eps)],
    which stays below s * q * eps.
    """
    UnifiedParams(q, s)
    if not q > 1:
        raise InvalidIndex(f"thermodynamic limit needs q > 1, got {q!r}")
    if s < 1.0:
        raise OutOfValidity(f"thermodynamic limit proven for s >= 1, got {s!r}")
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"trace distance must lie in [0, 1], got {eps!r}")
    return s * -math.expm1(q * math.log1p(-eps)) if eps < 1.0 else s

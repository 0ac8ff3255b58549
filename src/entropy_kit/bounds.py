"""Continuity and stability bounds for the unified entropy family.

Two Fannes-type trace-distance bounds cover the Tsallis case: a low-index
form valid for q in (0, 2] while 2*eps stays below q^(1/(1-q)), and a
high-index form for q > 1.  The unified bound composes these over the two
proven (q, s) regions, with a dimension factor d^(2(q-1)) on the high-q
side for s in [-1, 0].  Evaluating a bound outside its region raises
OutOfValidity instead of returning a number.  Indices follow the rule of
``UnifiedParams`` (q positive and finite, s finite), else InvalidIndex.

The unified bound's eps-free terms are memoized per (q, s, d) (see
``_point_terms``); a call runs only the per-eps formula, with the float
operations of a call that computes every term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import inf

from .entropies import _binary_tsallis, _check_indices, _check_q, _point_form, q_log
from .errors import DomainError, FloatRange, InvalidIndex, OutOfValidity
from .linops import _EXACT_INT, _dimension, _real, _shown
from .tolerances import TOL


class _Message:
    """A refusal message, ``template.format(*args)``, formatted when read."""

    __slots__ = ("template", "args")

    def __init__(self, template: str, *args):
        self.template, self.args = template, args

    def __str__(self) -> str:
        return self.template.format(*self.args)

    def __repr__(self) -> str:
        return repr(str(self))

    def __reduce__(self):
        return str, (str(self),)


@dataclass(frozen=True, init=False)
class BoundSpec:
    """Inputs of a bound evaluation: indices, dimension, trace distance."""

    q: float
    s: float
    d: int
    eps: float

    def __init__(self, q: float, s: float, d: int, eps: float):
        # every bound evaluation builds a spec: a float pair and an int d
        # that pass the rules' comparisons skip the calls
        if not (type(q) is float and type(s) is float and 0.0 < q < inf and -inf < s < inf):
            _check_indices(q, s)
        if not (type(d) is int and 2 <= d <= _EXACT_INT):
            _dimension(d, 2)
        if not (type(eps) is float and 0.0 <= eps <= 1.0):
            _check_eps(eps)
        # the fields of a frozen record, stored without a kwargs dict
        fields = self.__dict__
        fields["q"], fields["s"], fields["d"], fields["eps"] = q, s, d, eps


def _check_eps(eps: float) -> None:
    """The rule for a trace distance: eps in [0, 1]."""
    if not 0.0 <= _real(eps) <= 1.0:  # written so that NaN fails too
        raise DomainError(f"trace distance must lie in [0, 1], got {_shown(eps)}")


def eta_q(x: float, q: float) -> float:
    """Generalized eta function (x^q - x)/(1 - q); -x ln x at q -> 1."""
    if not 0.0 <= _real(x) < math.inf:  # written so that NaN fails too
        raise DomainError(f"eta needs finite x >= 0, got {_shown(x)}")
    _check_q(q)
    try:
        return _eta_q(x, q)
    except OverflowError:
        raise FloatRange(
            f"eta at x = {_shown(x)}, q = {_shown(q)} exceeds the float range"
        ) from None


def _eta_q(x: float, q: float) -> float:
    """``eta_q`` on an x and q that the caller has checked."""
    if abs(q - 1.0) < TOL.q_limit:
        return -x * math.log(x) if x > 0 else 0.0
    return (x**q - x) / (1.0 - q)


def low_q_threshold(q: float) -> float:
    """Largest admissible 2*eps for the low-index bound: q^(1/(1-q)).

    Continuous through q = 1 where it equals 1/e.
    """
    _check_q(q)
    if q == 1.0:
        return math.exp(-1.0)
    # log1p keeps ln q accurate near 1; for q below about 1e-16, q - 1
    # rounds to -1.0, which log1p refuses
    log_q = math.log1p(q - 1.0) if q - 1.0 > -1.0 else math.log(q)
    return math.exp(log_q / (1.0 - q))


def _low_q(q: float, eps: float, limit: float, log_d: float) -> float:
    """The low-index formula at one eps, given the threshold ``limit`` on
    2*eps and log_d = ln_q(d)."""
    x = 2.0 * eps
    if x > limit:
        raise OutOfValidity(_Message("2*eps = {!r} exceeds the monotonicity threshold {!r}", x, limit))
    if eps == 0.0:
        return 0.0
    return x**q * log_d + _eta_q(x, q)


def _high_q(q: float, eps: float, factor: float, log_d1: float) -> float:
    """The high-index formula at one eps times ``factor``, given log_d1 =
    ln_q(d - 1)."""
    return factor * (eps**q * log_d1 + _binary_tsallis(eps, q))


def fannes_tsallis_low_q(spec: BoundSpec) -> float:
    """Low-index Tsallis continuity bound (2 eps)^q ln_q(d) + eta_q(2 eps).

    Valid for q in (0, 2] while 2*eps <= q^(1/(1-q)); at q = 1 this is the
    classic Fannes form 2 eps ln d - 2 eps ln(2 eps).
    """
    q = spec.q
    if q > 2:
        raise OutOfValidity(f"low-index bound needs q <= 2, got {q!r}")
    return _low_q(q, spec.eps, low_q_threshold(q), q_log(spec.d, q))


def fannes_tsallis_high_q(spec: BoundSpec) -> float:
    """High-index Tsallis continuity bound eps^q ln_q(d-1) + H_q(eps, 1-eps)."""
    q = spec.q
    if not q > 1:
        raise OutOfValidity(f"high-index bound needs q > 1, got {q!r}")
    # the unified bound at s = 1: kappa_s is 1.0, and 1.0 * x is x, bit for bit
    formula, factor, log_d = _point_terms(q, 1.0, spec.d)
    return formula(q, spec.eps, factor, log_d)


def kappa_s(q: float, s: float, d: int) -> float:
    """Dimension factor for the unified bound at q > 1.

    Equals d^(2(q-1)) for s in [-1, 0] and 1 for s >= 1; the strip
    0 < s < 1 (and s < -1) is outside the proven region.
    """
    _check_indices(q, s)
    if not q > 1:
        raise InvalidIndex(f"dimension factor needs q > 1, got {q!r}")
    return _kappa_s(q, s, _dimension(d, 2))


def _kappa_s(q: float, s: float, d: int) -> float:
    """``kappa_s`` for a q > 1 and d that the caller has checked."""
    if -1.0 <= s <= 0.0:
        # math.pow raises OverflowError for a numpy-scalar q too, where
        # numpy's ** returns inf with a warning
        try:
            return math.pow(float(d), 2.0 * (q - 1.0))
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
    _check_indices(q, s)
    if 0 < q < 1 and (s <= -1.0 or 0.0 <= s <= 1.0):
        return "low"
    if q > 1 and (-1.0 <= s <= 0.0 or s >= 1.0):
        return "high"
    return None


#: (q, s, d) keys the bound memo keeps: an LRU memo smaller than a cyclic
#: working set never hits, and the benchmark's sweep cycles through 2565 keys
BOUND_MEMO_CAP = 4096

_NO_REGION = "no unified continuity bound proven at (q, s) = ({!r}, {!r})"


@functools.lru_cache(maxsize=BOUND_MEMO_CAP, typed=True)
def _point_terms(q: float, s: float, d: int):
    """(_low_q, q^(1/(1-q)), ln_q(d)) or (_high_q, kappa_s, ln_q(d - 1)) at a
    checked (q, s, d) of the low or high region, else the refusal message.
    Keys are typed, so a numpy-scalar q (numpy-float terms) has entries of
    its own; a FloatRange from kappa_s is raised per call, never kept."""
    region = fannes_range(q, s)
    if region == "low":
        return _low_q, low_q_threshold(q), q_log(d, q)
    if region == "high":
        return _high_q, _kappa_s(q, s, d), q_log(d - 1, q)
    # the sign of a zero s is printed but is not in the key, so that
    # message is made per call
    return _Message(_NO_REGION, q, s) if s != 0 else None


def unified_fannes_bound(spec: BoundSpec) -> float:
    """Continuity bound for the unified (q, s)-entropy.

    In the low region this is the low-index Tsallis bound (with its
    2*eps threshold); in the high region it is kappa_s times the
    high-index Tsallis bound.  Elsewhere raises OutOfValidity.
    """
    q = spec.q
    terms = _point_terms(q, spec.s, spec.d)
    if type(terms) is not tuple:
        raise OutOfValidity(terms or _Message(_NO_REGION, q, spec.s))
    formula, factor, log_d = terms
    return formula(q, spec.eps, factor, log_d)


def lipschitz_bound(eps: float, q: float, s: float) -> float:
    """Lipschitz-type bound 2 q (q - 1)^(-1) eps, for q > 1 and s >= 1."""
    _check_indices(q, s)
    if not q > 1:
        raise InvalidIndex(f"Lipschitz bound needs q > 1, got {q!r}")
    if s < 1.0:
        raise OutOfValidity(f"Lipschitz bound proven for s >= 1, got {s!r}")
    _check_eps(eps)
    return 2.0 * q / (q - 1.0) * eps


def max_unified(q: float, s: float, d: int) -> float:
    """Largest unified entropy on a d-dimensional system.

    Attained at the maximally mixed state: (d^((1-q)s) - 1)/((1-q)s),
    which degenerates to ln d at s = 0 or q -> 1, and to 0 at d = 1.
    """
    _check_indices(q, s)
    d = _dimension(d)
    if d == 1:
        return 0.0
    form = _point_form(q, s)
    if form is None or form[0] is None:
        return math.log(d)
    x = form[1]
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
    _check_indices(q, s)
    if not q > 1:
        raise InvalidIndex(f"thermodynamic limit needs q > 1, got {q!r}")
    if s < 1.0:
        raise OutOfValidity(f"thermodynamic limit proven for s >= 1, got {s!r}")
    _check_eps(eps)
    return s * -math.expm1(q * math.log1p(-eps)) if eps < 1.0 else s

"""Unified (q, s)-entropy family for distributions and density operators.

The two-parameter functional is

    E_q^(s)(P) = [ (sum_i p_i^q)^s - 1 ] / [ (1 - q) s ],   q > 0,

with the Renyi entropy at s -> 0, the Tsallis entropy at s = 1 and the
Shannon (von Neumann) entropy at q -> 1.  Logarithms are natural
throughout and 0 * ln 0 = 0.  Limits are dispatched through the
thresholds in ``TOL`` and evaluated with expm1/log so values stay stable
arbitrarily close to the special points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidIndex
from .linops import DensityOperator, ProbabilityDistribution, trace_power
from .tolerances import TOL


@dataclass(frozen=True)
class UnifiedParams:
    """Finite index pair (q, s) with q > 0."""

    q: float
    s: float

    def __post_init__(self):
        if not (self.q > 0 and math.isfinite(self.q)):
            raise InvalidIndex(
                f"entropic index q must be positive and finite, got {self.q!r}"
            )
        if not math.isfinite(self.s):
            raise InvalidIndex(f"entropic index s must be finite, got {self.s!r}")

    @property
    def is_q_limit(self) -> bool:
        return abs(self.q - 1.0) < TOL.q_limit

    @property
    def is_s_limit(self) -> bool:
        return not self.is_q_limit and abs(self.s) < TOL.s_limit


def _as_dist(p) -> ProbabilityDistribution:
    if isinstance(p, ProbabilityDistribution):
        return p
    return ProbabilityDistribution(p)


def _check_q(q: float) -> None:
    if not q > 0:
        raise InvalidIndex(f"entropic index q must be positive, got {q!r}")


def q_log(x: float, q: float) -> float:
    """q-logarithm ln_q(x) = (x^(1-q) - 1)/(1 - q), with ln x at q -> 1."""
    if not x > 0:
        raise DomainError(f"q-logarithm needs x > 0, got {x!r}")
    if abs(q - 1.0) < TOL.q_limit:
        return math.log(x)
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q) + 0.0


def unified_from_power_sum(t: float, q: float, s: float) -> float:
    """Unified entropy from a precomputed power sum t = sum p_i^q.

    Needs q away from its limit window; the s -> 0 limit is handled.
    """
    if not t > 0:
        raise DomainError(f"power sum must be positive, got {t!r}")
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        raise InvalidIndex("power-sum form is undefined in the q -> 1 limit window")
    if abs(s) < TOL.s_limit:
        return math.log(t) / (1.0 - q) + 0.0
    # + 0.0 turns the -0.0 arising at t = 1 into a plain zero
    return math.expm1(s * math.log(t)) / ((1.0 - q) * s) + 0.0


def renyi(p, q: float) -> float:
    """Renyi entropy ln(sum p_i^q)/(1 - q); Shannon at q -> 1."""
    _check_q(q)
    dist = _as_dist(p)
    if abs(q - 1.0) < TOL.q_limit:
        return dist.shannon()
    return math.log(dist.power_sum(q)) / (1.0 - q) + 0.0


def tsallis(p, q: float) -> float:
    """Tsallis entropy (sum p_i^q - 1)/(1 - q); Shannon at q -> 1."""
    _check_q(q)
    dist = _as_dist(p)
    if abs(q - 1.0) < TOL.q_limit:
        return dist.shannon()
    return (dist.power_sum(q) - 1.0) / (1.0 - q) + 0.0


def type_q_entropy(p, q: float) -> float:
    """Type-q entropy [(sum p_i^(1/q))^q - 1]/(q - 1); Shannon at q -> 1.

    Coincides with the unified entropy at indices (1/q, q).
    """
    _check_q(q)
    dist = _as_dist(p)
    if abs(q - 1.0) < TOL.q_limit:
        return dist.shannon()
    u = dist.power_sum(1.0 / q)
    return math.expm1(q * math.log(u)) / (q - 1.0) + 0.0


def unified_classical(p, params: UnifiedParams) -> float:
    """Unified (q, s)-entropy of a probability distribution."""
    dist = _as_dist(p)
    if params.is_q_limit:
        return dist.shannon()
    return unified_from_power_sum(dist.power_sum(params.q), params.q, params.s)


def quantum_renyi(rho: DensityOperator, q: float) -> float:
    """Quantum Renyi entropy ln tr(rho^q)/(1 - q); von Neumann at q -> 1."""
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        return rho.shannon()
    return math.log(trace_power(rho, q)) / (1.0 - q) + 0.0


def quantum_tsallis(rho: DensityOperator, q: float) -> float:
    """Quantum Tsallis entropy (tr rho^q - 1)/(1 - q); von Neumann at q -> 1."""
    _check_q(q)
    if abs(q - 1.0) < TOL.q_limit:
        return rho.shannon()
    return (trace_power(rho, q) - 1.0) / (1.0 - q) + 0.0


def unified_quantum(rho: DensityOperator, params: UnifiedParams) -> float:
    """Unified (q, s)-entropy of a density operator."""
    if params.is_q_limit:
        return rho.shannon()
    return unified_from_power_sum(trace_power(rho, params.q), params.q, params.s)


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

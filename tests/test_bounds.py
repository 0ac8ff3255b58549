"""Continuity bounds: frozen values, saturation, domination, validity walls."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entropy_kit import bounds
from entropy_kit.bounds import (
    BoundSpec,
    eta_q,
    fannes_range,
    fannes_tsallis_high_q,
    fannes_tsallis_low_q,
    kappa_s,
    lipschitz_bound,
    low_q_threshold,
    max_unified,
    stability_ratio_bound,
    thermodynamic_ratio_limit,
    unified_fannes_bound,
)
from entropy_kit.entropies import UnifiedParams, tsallis, unified_from_power_sum, unified_quantum
from entropy_kit.errors import DomainError, FloatRange, InvalidIndex, OutOfValidity
from entropy_kit.linops import diagonal_density, random_density, trace_distance
from entropy_kit.verify import FANNES_GRID


def example_pair(eps: float, d: int):
    """Pure state vs its eps-perturbation, trace distance exactly eps."""
    rho = diagonal_density([1.0] + [0.0] * (d - 1))
    omega = diagonal_density([1.0 - eps] + [eps / (d - 1)] * (d - 1))
    return rho, omega


class TestBoundSpec:
    def test_validation(self):
        with pytest.raises(InvalidIndex):
            BoundSpec(0.0, 1.0, 4, 0.1)
        with pytest.raises(DomainError):
            BoundSpec(2.0, 1.0, 1, 0.1)
        with pytest.raises(DomainError):
            BoundSpec(2.0, 1.0, 4, 1.5)

    @pytest.mark.parametrize("d", [4.7, 10**400, float("nan"), float("inf"), 2**53 + 1])
    def test_dimension_must_be_an_exact_integer(self, d):
        with pytest.raises(DomainError):
            BoundSpec(2.0, 1.0, d, 0.1)

    @pytest.mark.parametrize("d", [2**53, 2.0**60, 10**17, np.int64(4), 4.0])
    def test_exact_dimensions_accepted(self, d):
        assert BoundSpec(2.0, 1.0, d, 0.1).d == d


class TestEta:
    def test_frozen(self):
        assert eta_q(0.2, 0.5) == pytest.approx(0.49442719099991583, abs=1e-15)

    def test_limit(self):
        assert eta_q(0.2, 1.0) == pytest.approx(-0.2 * math.log(0.2), abs=1e-15)
        assert eta_q(0.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_q(-0.1, 0.5)
        with pytest.raises(InvalidIndex):
            eta_q(0.2, 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_argument(self, x):
        # both returned nan
        with pytest.raises(DomainError, match=f"eta needs finite x >= 0, got {x!r}"):
            eta_q(x, 2.0)


class TestThreshold:
    def test_values(self):
        assert low_q_threshold(2.0) == pytest.approx(0.5)
        assert low_q_threshold(0.5) == pytest.approx(0.25)
        assert low_q_threshold(1.0) == pytest.approx(math.exp(-1.0))

    def test_continuous_through_one(self):
        for q in (1.0 - 1e-9, 1.0 + 1e-9):
            assert low_q_threshold(q) == pytest.approx(math.exp(-1.0), rel=1e-7)

    @pytest.mark.parametrize("q", [1e-300, 1e-17, 5e-324])
    def test_tiny_q(self, q):
        # q - 1 rounds to -1.0 here, where log1p used to raise a bare ValueError
        assert low_q_threshold(q) == pytest.approx(q, rel=1e-12)

    def test_same_bits_where_q_minus_one_is_representable(self):
        for q in (1e-15, 0.1, 0.3, 0.7, 1.5, 2.0):
            assert low_q_threshold(q) == math.exp(math.log1p(q - 1.0) / (1.0 - q))


class TestLowIndexBound:
    def test_frozen(self):
        spec = BoundSpec(0.5, 0.5, 4, 0.1)
        assert fannes_tsallis_low_q(spec) == pytest.approx(1.3888543819998316, abs=1e-14)

    def test_classic_form_at_q_one(self):
        spec = BoundSpec(1.0, 0.5, 4, 0.1)
        expect = 0.2 * math.log(4.0) - 0.2 * math.log(0.2)
        assert fannes_tsallis_low_q(spec) == pytest.approx(expect, abs=1e-14)

    def test_zero_at_zero_distance(self):
        assert fannes_tsallis_low_q(BoundSpec(0.5, 0.5, 4, 0.0)) == 0.0

    def test_walls(self):
        with pytest.raises(OutOfValidity):
            fannes_tsallis_low_q(BoundSpec(2.5, 1.0, 4, 0.1))
        with pytest.raises(OutOfValidity):
            fannes_tsallis_low_q(BoundSpec(0.5, 0.5, 4, 0.2))  # 2*eps = 0.4 > 0.25

    def test_boundary_admissible(self):
        # 2*eps right at the threshold still evaluates
        assert fannes_tsallis_low_q(BoundSpec(2.0, 1.0, 4, 0.25)) > 0

    def test_refusal_computes_the_threshold_once(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return low_q_threshold(q)

        monkeypatch.setattr(bounds, "low_q_threshold", counted)
        with pytest.raises(OutOfValidity) as info:
            fannes_tsallis_low_q(BoundSpec(0.7, 0.5, 4, 0.3))
        assert calls == [0.7]
        assert str(info.value) == (
            f"2*eps = 0.6 exceeds the monotonicity threshold {low_q_threshold(0.7)!r}"
        )


class TestHighIndexBound:
    def test_frozen(self):
        spec = BoundSpec(2.0, 1.0, 4, 0.1)
        assert fannes_tsallis_high_q(spec) == pytest.approx(0.18666666666666662, abs=1e-14)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.5])
    def test_saturated_by_pure_state_perturbation(self, q):
        # the perturbed-pure-state pair meets the bound with equality
        eps, d = 0.1, 4
        rho, omega = example_pair(eps, d)
        diff = abs(tsallis(rho, q) - tsallis(omega, q))
        assert diff == pytest.approx(fannes_tsallis_high_q(BoundSpec(q, 1.0, d, eps)), abs=1e-12)

    def test_needs_q_above_one(self):
        # outside its proven region, like every bound in the module
        for q in (0.9, 1.0):
            with pytest.raises(OutOfValidity):
                fannes_tsallis_high_q(BoundSpec(q, 1.0, 4, 0.1))


class TestKappa:
    def test_values(self):
        assert kappa_s(2.0, -1.0, 3) == pytest.approx(9.0)
        assert kappa_s(2.0, 1.5, 5) == 1.0
        assert kappa_s(1.5, -0.5, 4) == pytest.approx(4.0)

    def test_strip_unproven(self):
        with pytest.raises(OutOfValidity):
            kappa_s(2.0, 0.5, 4)
        with pytest.raises(OutOfValidity):
            kappa_s(2.0, -1.5, 4)

    def test_needs_q_above_one(self):
        with pytest.raises(InvalidIndex):
            kappa_s(1.0, -1.0, 4)
        with pytest.raises(InvalidIndex):
            kappa_s(math.nan, -1.0, 4)

    @pytest.mark.parametrize("d", [1, 4.7, 10**400, float("nan"), 2**53 + 1])
    def test_dimension_must_be_an_exact_integer(self, d):
        with pytest.raises(DomainError):
            kappa_s(2.0, -1.0, d)

    def test_overflow_is_a_domain_error(self):
        # d^(2(q-1)) passes the float range: an error, not a bare OverflowError
        with pytest.raises(DomainError, match="exceeds the float range"):
            kappa_s(2000.0, 0.0, 2)
        with pytest.raises(DomainError, match="exceeds the float range"):
            unified_fannes_bound(BoundSpec(2000.0, -1.0, 3, 0.1))


class TestRangeClassifier:
    @pytest.mark.parametrize(
        "q,s,expect",
        [
            (0.5, -1.5, "low"),
            (0.5, 0.5, "low"),
            (0.5, 1.0, "low"),
            (0.5, 0.0, "low"),
            (0.5, -0.5, None),
            (0.5, 2.0, None),
            (2.0, -0.5, "high"),
            (2.0, -1.0, "high"),
            (2.0, 1.0, "high"),
            (2.0, 2.0, "high"),
            (2.0, 0.5, None),
            (2.0, -1.5, None),
            (1.0, 0.5, None),
        ],
    )
    def test_regions(self, q, s, expect):
        assert fannes_range(q, s) == expect


class TestUnifiedBound:
    def test_frozen(self):
        spec = BoundSpec(2.0, -1.0, 3, 0.1)
        assert unified_fannes_bound(spec) == pytest.approx(1.665, abs=1e-12)

    def test_low_region_delegates(self):
        spec = BoundSpec(0.5, 0.5, 4, 0.1)
        assert unified_fannes_bound(spec) == fannes_tsallis_low_q(spec)

    def test_high_region_without_dimension_factor(self):
        spec = BoundSpec(2.0, 1.5, 4, 0.1)
        assert unified_fannes_bound(spec) == fannes_tsallis_high_q(spec)

    @pytest.mark.parametrize("q,s", FANNES_GRID)
    def test_bit_identical_to_checked_composition(self, q, s):
        # the bound skips kappa_s's re-checks of q and d, which BoundSpec
        # and the region have made; its values must not change
        for d in range(2, 7):
            for eps in (0.0, 0.01, 0.3, 1.0):
                spec = BoundSpec(q, s, d, eps)
                try:
                    if fannes_range(q, s) == "high":
                        expect = kappa_s(q, s, d) * fannes_tsallis_high_q(spec)
                    else:
                        expect = fannes_tsallis_low_q(spec)
                except OutOfValidity:
                    with pytest.raises(OutOfValidity):
                        unified_fannes_bound(spec)
                    continue
                assert unified_fannes_bound(spec).hex() == expect.hex()

    @pytest.mark.parametrize("q,s", [(2.0, 0.5), (0.5, -0.5), (0.5, 2.0), (1.0, 1.0)])
    def test_gap_raises(self, q, s):
        with pytest.raises(OutOfValidity):
            unified_fannes_bound(BoundSpec(q, s, 4, 0.1))

    @given(st.integers(0, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_dominates_true_difference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        rho = random_density(d, d, seed=seed)
        sigma = random_density(d, d, seed=seed + 500_000)
        eps = min(trace_distance(rho, sigma), 1.0)
        for q, s in [(0.5, 0.5), (0.5, -1.0), (2.0, 1.0), (2.0, -1.0), (1.5, 2.0)]:
            spec = BoundSpec(q, s, d, eps)
            try:
                bound = unified_fannes_bound(spec)
            except OutOfValidity:
                continue  # 2*eps past the low-index threshold
            diff = abs(
                unified_quantum(rho, UnifiedParams(q, s))
                - unified_quantum(sigma, UnifiedParams(q, s))
            )
            assert diff <= bound + 1e-10 * (1 + bound)


class TestLipschitz:
    def test_frozen(self):
        assert lipschitz_bound(0.1, 2.0, 1.0) == pytest.approx(0.4)
        assert lipschitz_bound(0.1, 2.0, 3.0) == lipschitz_bound(0.1, 2.0, 1.0)

    def test_needs_q_above_one(self):
        with pytest.raises(InvalidIndex):
            lipschitz_bound(0.1, 1.0, 1.0)

    @pytest.mark.parametrize("s", [0.999, 0.5, 0.0, -1.0])
    def test_needs_s_at_least_one(self, s):
        # the library holds the validity rule that the CLI table relies on
        with pytest.raises(OutOfValidity):
            lipschitz_bound(0.1, 2.0, s)

    @given(st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_dominates_at_s_above_one(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        rho = random_density(d, d, seed=seed)
        sigma = random_density(d, d, seed=seed + 900_000)
        eps = min(trace_distance(rho, sigma), 1.0)
        for q, s in [(1.5, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 1.5)]:
            diff = abs(
                unified_quantum(rho, UnifiedParams(q, s))
                - unified_quantum(sigma, UnifiedParams(q, s))
            )
            assert diff <= lipschitz_bound(eps, q, s) + 1e-10


BAD_Q = (0.0, -1.0, math.nan, math.inf)
BAD_S = (math.nan, math.inf, -math.inf)


class TestIndexRule:
    """q positive and finite and s finite, in every function of bounds."""

    @pytest.mark.parametrize("q", BAD_Q)
    def test_rejects_bad_q(self, q):
        for call in (
            lambda: BoundSpec(q, 1.0, 4, 0.1),
            lambda: max_unified(q, 1.0, 4),
            lambda: lipschitz_bound(0.1, q, 1.0),
            lambda: eta_q(0.2, q),
            lambda: low_q_threshold(q),
            lambda: kappa_s(q, 1.0, 4),
            lambda: thermodynamic_ratio_limit(q, 1.0, 0.1),
        ):
            with pytest.raises(InvalidIndex, match="q must be positive and finite"):
                call()

    @pytest.mark.parametrize("s", BAD_S)
    def test_rejects_non_finite_s(self, s):
        for call in (
            lambda: BoundSpec(2.0, s, 4, 0.1),
            lambda: max_unified(2.0, s, 4),
            lambda: lipschitz_bound(0.1, 2.0, s),
            lambda: kappa_s(2.0, s, 4),
            lambda: thermodynamic_ratio_limit(2.0, s, 0.1),
        ):
            with pytest.raises(InvalidIndex, match="s must be finite"):
                call()


class TestMaxUnified:
    def test_values(self):
        assert max_unified(2.0, 1.0, 4) == pytest.approx(0.75)
        assert max_unified(2.0, 0.0, 4) == pytest.approx(math.log(4.0))
        assert max_unified(1.0 + 1e-9, 3.0, 7) == pytest.approx(math.log(7.0))
        assert max_unified(0.5, -1.0, 1) == 0.0

    def test_domain(self):
        with pytest.raises(InvalidIndex):
            max_unified(-1.0, 1.0, 4)
        with pytest.raises(DomainError):
            max_unified(2.0, 1.0, 0)

    @pytest.mark.parametrize("d", [4.7, 10**400, float("nan"), float("inf"), 2**53 + 1])
    def test_dimension_must_be_an_exact_integer(self, d):
        with pytest.raises(DomainError):
            max_unified(2.0, 1.0, d)

    @pytest.mark.parametrize("q,s,d", [(0.1, 2.0, int(1e300)), (3.0, -2.0, int(1e200))])
    def test_overflow_is_a_domain_error(self, q, s, d):
        with pytest.raises(DomainError, match="exceeds the float range"):
            max_unified(q, s, d)


class TestStabilityFunctional:
    def test_vanishes_at_zero(self):
        assert stability_ratio_bound(BoundSpec(0.5, 0.5, 4, 0.0)) == 0.0
        assert stability_ratio_bound(BoundSpec(2.0, 1.0, 4, 0.0)) == 0.0

    def test_low_region_strictly_increasing(self):
        # eps grid up to the threshold 2*eps = 0.25 for q = 0.5
        grid = np.linspace(0.0, 0.125, 1000)
        vals = [stability_ratio_bound(BoundSpec(0.5, 0.5, 4, e)) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_high_region_strictly_increasing(self):
        grid = np.linspace(0.0, 0.5, 1000)
        vals = [stability_ratio_bound(BoundSpec(2.0, 1.0, 4, e)) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(0.05, 4.0),
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
        st.integers(2, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_non_decreasing_on_its_proven_eps_range(self, q, s, d):
        # up to 2*eps = q^(1/(1-q)) in the low region, and up to eps = 1 - 1/d
        # in the high one, where eps^q ln_q(d-1) + H_q(eps) peaks
        region = fannes_range(q, s)
        assume(region is not None)
        top = low_q_threshold(q) / 2.0 if region == "low" else 1.0 - 1.0 / d
        vals = [unified_fannes_bound(BoundSpec(q, s, d, e)) for e in np.linspace(0.0, top, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_high_region_falls_past_its_peak(self):
        # the ratio is not monotone on the whole of [0, 1]: at q = 2, s = 1,
        # d = 2 it peaks at eps = 1 - 1/d = 0.5 and is 0 again at eps = 1
        assert stability_ratio_bound(BoundSpec(2.0, 1.0, 2, 0.5)) == pytest.approx(1.0)
        assert stability_ratio_bound(BoundSpec(2.0, 1.0, 2, 1.0)) == 0.0


class TestThermodynamicLimit:
    def test_frozen(self):
        assert thermodynamic_ratio_limit(2.0, 1.0, 0.1) == pytest.approx(0.19, abs=1e-15)

    def test_below_linear_envelope(self):
        for eps in (0.01, 0.05, 0.1, 0.3):
            for q, s in [(1.5, 1.0), (2.0, 1.0), (2.0, 2.0), (4.0, 1.0)]:
                assert thermodynamic_ratio_limit(q, s, eps) <= s * q * eps + 1e-12

    def test_normalized_bound_converges(self):
        lim = thermodynamic_ratio_limit(2.0, 1.0, 0.01)
        gap4 = abs(stability_ratio_bound(BoundSpec(2.0, 1.0, 10**4, 0.01)) - lim)
        gap6 = abs(stability_ratio_bound(BoundSpec(2.0, 1.0, 10**6, 0.01)) - lim)
        assert gap6 < gap4
        assert gap6 < 1e-6

    def test_walls(self):
        with pytest.raises(InvalidIndex):
            thermodynamic_ratio_limit(1.0, 1.0, 0.1)
        with pytest.raises(OutOfValidity):
            thermodynamic_ratio_limit(2.0, 0.9, 0.1)
        with pytest.raises(DomainError):
            thermodynamic_ratio_limit(2.0, 1.0, 1.1)

    def test_full_distance_cap(self):
        assert thermodynamic_ratio_limit(2.0, 1.5, 1.0) == 1.5


class TestFloatRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: kappa_s(2000.0, 0.0, 2),
            lambda: unified_fannes_bound(BoundSpec(2000.0, -1.0, 3, 0.1)),
            lambda: max_unified(0.1, 2.0, int(1e300)),
            lambda: unified_from_power_sum(1e300, 0.1, 3.0),
            lambda: unified_quantum(diagonal_density([0.5, 0.5]), UnifiedParams(2.0, -2000.0)),
        ],
    )
    def test_a_defined_value_beyond_the_range_is_its_own_domain_error(self, call):
        # callers tell it from an argument outside the domain; DomainError still catches it
        with pytest.raises(FloatRange, match="float range"):
            call()
        assert issubclass(FloatRange, DomainError)

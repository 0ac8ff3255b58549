"""Continuity bounds: frozen values, saturation, domination, validity walls."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
from pathlib import Path

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
from entropy_kit.entropies import (
    UnifiedParams,
    q_log,
    tsallis,
    unified_classical,
    unified_from_power_sum,
    unified_quantum,
)
from entropy_kit.errors import DomainError, EntropyKitError, FloatRange, InvalidIndex, OutOfValidity
from entropy_kit.linops import diagonal_density, maximally_mixed, random_density, trace_distance
from entropy_kit.tolerances import TOL
from entropy_kit.verify import (
    FANNES_GRID,
    StabilityExample,
    _example_power_sums,
    _xlnx,
    stability_ratio,
)


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


class TestBoundSpecRecord:
    """``BoundSpec`` sets its fields in a hand-written ``__init__``; it must
    still be the frozen dataclass it was, with the same checks."""

    def test_fields_equality_hash_and_repr(self):
        assert [(f.name, f.type) for f in dataclasses.fields(BoundSpec)] == [
            ("q", "float"), ("s", "float"), ("d", "int"), ("eps", "float"),
        ]
        spec = BoundSpec(2.0, 1.0, 4, 0.1)
        assert spec == BoundSpec(q=2.0, s=1.0, d=4, eps=0.1)
        assert spec != BoundSpec(2.0, 1.0, 4, 0.2)
        assert hash(spec) == hash((2.0, 1.0, 4, 0.1))
        assert repr(spec) == "BoundSpec(q=2.0, s=1.0, d=4, eps=0.1)"

    def test_replace_pickle_and_copy(self):
        spec = BoundSpec(2.0, 1.0, 4, 0.1)
        assert dataclasses.replace(spec, eps=0.2) == BoundSpec(2.0, 1.0, 4, 0.2)
        with pytest.raises(DomainError, match="dimension must be at least 2, got 1"):
            dataclasses.replace(spec, d=1)
        for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert twin == spec and repr(twin) == repr(spec)
            assert unified_fannes_bound(twin) == unified_fannes_bound(spec)

    def test_frozen(self):
        spec = BoundSpec(2.0, 1.0, 4, 0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.eps = 0.2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del spec.q
        assert spec.eps == 0.1

    @pytest.mark.parametrize(
        "args,error,message",
        [
            # q before s before d before eps, as the checks ran in __post_init__
            ((0.0, math.nan, 1, 2.0), InvalidIndex, "entropic index q must be positive and finite, got 0.0"),
            ((2.0, math.nan, 1, 2.0), InvalidIndex, "entropic index s must be finite, got nan"),
            ((2.0, 1.0, 1, 2.0), DomainError, "dimension must be at least 2, got 1"),
            ((2.0, 1.0, 4, 2.0), DomainError, "trace distance must lie in [0, 1], got 2.0"),
            ((2.0, 1.0, 4, math.nan), DomainError, "trace distance must lie in [0, 1], got nan"),
            # numpy scalars and ints miss the float fast path and take the full rules
            ((np.float64(math.nan), 1.0, 4, 0.1), InvalidIndex, "entropic index q must be positive and finite, got np.float64(nan)"),
            ((2, np.float64(math.inf), 4, 0.1), InvalidIndex, "entropic index s must be finite, got np.float64(inf)"),
            ((2.0, 1.0, np.int64(1), 0.1), DomainError, "dimension must be at least 2, got 1"),
            ((2.0, 1.0, 4.5, 0.1), DomainError, "dimension must be an integer, got 4.5"),
        ],
    )
    def test_refusals_in_order(self, args, error, message):
        with pytest.raises(error) as info:
            BoundSpec(*args)
        assert type(info.value) is error and str(info.value) == message

    def test_non_float_inputs_are_kept_as_given(self):
        spec = BoundSpec(np.float64(2.0), np.int64(1), np.int64(4), np.float64(0.1))
        assert repr(spec) == "BoundSpec(q=np.float64(2.0), s=np.int64(1), d=np.int64(4), eps=np.float64(0.1))"
        assert BoundSpec(2, 1, 4.0, 0.1) == BoundSpec(2.0, 1.0, 4, 0.1)
        assert type(BoundSpec(2, 1, 4.0, 0.1).d) is float


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

    @pytest.mark.parametrize("q", [np.float64(2000.0), np.float32(2000.0), 2000, np.int64(2000)])
    def test_overflow_is_a_domain_error_for_any_real_q(self, q):
        # numpy's ** returned inf with an overflow warning for a numpy-scalar q
        message = f"dimension factor at q = {q!r}, d = 2 exceeds the float range"
        with pytest.raises(FloatRange) as info:
            kappa_s(q, 0.0, 2)
        assert str(info.value) == message
        for _ in range(2):  # a refusal is raised on every call, never kept
            with pytest.raises(FloatRange) as info:
                unified_fannes_bound(BoundSpec(q, 0.0, 2, 0.1))
            assert str(info.value) == message

    def test_numpy_q_keeps_the_float_q_value(self):
        for q, s, d in ((2.5, -1.0, 16), (1.5, -0.5, 2**40), (3.0, 0.0, 2.0**60)):
            want = kappa_s(q, s, d)
            assert float(kappa_s(np.float64(q), s, d)).hex() == want.hex()


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

    @pytest.mark.parametrize(
        "q,s,message",
        [
            ("a", 0.0, "q must be positive and finite, got 'a'"),
            (math.nan, 0.0, "q must be positive and finite, got nan"),
            (None, 1.0, "q must be positive and finite, got None"),
            (0.0, 0.5, "q must be positive and finite, got 0.0"),
            (math.inf, 1.0, "q must be positive and finite, got inf"),
            (0.5, math.nan, "s must be finite, got nan"),
            (2.0, "b", "s must be finite, got 'b'"),
        ],
    )
    def test_refuses_what_the_index_rule_refuses(self, q, s, message):
        # fannes_range("a", 0.0) raised a bare TypeError, and
        # fannes_range(nan, 0.0) returned None
        with pytest.raises(InvalidIndex, match=re.escape(message)):
            fannes_range(q, s)


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


class TestTraceDistanceRule:
    """Every function that takes a trace distance refuses one outside
    [0, 1] with the same message."""

    @pytest.mark.parametrize(
        "eps,shown",
        [(-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan"), (10**5000, "<int too long to print>")],
        ids=["negative", "above one", "nan", "giant int"],
    )
    def test_one_message(self, eps, shown):
        # an int too long for repr raised a bare ValueError in the message
        for call in (
            lambda: BoundSpec(2.0, 1.0, 4, eps),
            lambda: lipschitz_bound(eps, 2.0, 1.0),
            lambda: thermodynamic_ratio_limit(2.0, 1.0, eps),
        ):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"trace distance must lie in [0, 1], got {shown}"


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
            lambda: fannes_range(q, 1.0),
        ):
            with pytest.raises(InvalidIndex, match="q must be positive and finite"):
                call()

    @pytest.mark.parametrize(
        "q,s",
        [(10**400, 1.0), (2.0, 10**400), (10**5000, -1.0), (2.0, -(10**5000))],
        ids=["q=10**400", "s=10**400", "q=10**5000", "s=-10**5000"],
    )
    def test_rejects_an_index_without_a_float_value(self, q, s):
        # the UnifiedParams rule: the q ended in a bare OverflowError, and
        # the s gave a bound
        with pytest.raises(InvalidIndex, match="must be (positive and )?finite"):
            BoundSpec(q, s, 4, 0.1)

    @pytest.mark.parametrize("s", BAD_S)
    def test_rejects_non_finite_s(self, s):
        for call in (
            lambda: BoundSpec(2.0, s, 4, 0.1),
            lambda: max_unified(2.0, s, 4),
            lambda: lipschitz_bound(0.1, 2.0, s),
            lambda: kappa_s(2.0, s, 4),
            lambda: thermodynamic_ratio_limit(2.0, s, 0.1),
            lambda: fannes_range(2.0, s),
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

    # True was read as d = 1, where the maximum is 0.0
    @pytest.mark.parametrize("d", [4.7, 10**400, float("nan"), float("inf"), 2**53 + 1, True])
    def test_dimension_must_be_an_exact_integer(self, d):
        with pytest.raises(DomainError):
            max_unified(2.0, 1.0, d)

    @pytest.mark.parametrize("q,s,d", [(0.1, 2.0, int(1e300)), (3.0, -2.0, int(1e200))])
    def test_overflow_is_a_domain_error(self, q, s, d):
        with pytest.raises(DomainError, match="exceeds the float range"):
            max_unified(q, s, d)


#: q and s on both sides of their limit windows' edges, and both zeros
WINDOW_Q = [1.0 + k * TOL.q_limit for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)] + [0.5, 2.0]
WINDOW_S = [k * TOL.s_limit for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)] + [0.0, -0.0, -2.0, 1.0]


def _own_window_max_unified(q: float, s: float, d: int) -> float:
    """``max_unified``'s value as it read when it tested TOL's windows itself."""
    if d == 1:
        return 0.0
    if abs(q - 1.0) < TOL.q_limit or abs(s) < TOL.s_limit:
        return math.log(d)
    x = (1.0 - q) * s
    return math.expm1(x * math.log(d)) / x


def _own_window_stability_ratio(ex: StabilityExample) -> float:
    """``stability_ratio`` as it read when it tested TOL.q_limit itself."""
    q, s, d, eps = ex.q, ex.s, ex.d, ex.eps
    if abs(q - 1.0) < TOL.q_limit:
        if ex.variant == "example0":
            s_rho = 0.0
            s_omega = -_xlnx(1.0 - eps) - _xlnx(eps) + eps * math.log(d - 1)
        else:
            s_rho = math.log(d - 1)
            s_omega = -_xlnx(eps) - _xlnx(1.0 - eps) + (1.0 - eps) * math.log(d - 1)
        return abs(s_rho - s_omega) / math.log(d)
    t_rho, t_omega = _example_power_sums(ex)
    num = abs(unified_from_power_sum(t_rho, q, s) - unified_from_power_sum(t_omega, q, s))
    return num / _own_window_max_unified(q, s, d)


class TestOneLimitRule:
    """``max_unified`` and ``stability_ratio`` take their q -> 1 and s -> 0
    windows from ``entropies._point_form``, bit for bit as before."""

    @pytest.mark.parametrize("d", [1, 2, 7, 2**53])
    def test_max_unified(self, d):
        for q in WINDOW_Q:
            for s in WINDOW_S:
                expect = _typed_outcome(_own_window_max_unified, q, s, d)
                assert _typed_outcome(max_unified, q, s, d) == expect, (q, s)

    @pytest.mark.parametrize("d", [2, 7, 2**53])
    @pytest.mark.parametrize("variant", ["example0", "example1"])
    def test_stability_ratio(self, d, variant):
        for q in WINDOW_Q:
            for s in WINDOW_S:
                ex = StabilityExample(variant, 0.1, d, q, s)
                expect = _typed_outcome(_own_window_stability_ratio, ex)
                assert _typed_outcome(stability_ratio, ex) == expect, (q, s)


#: just outside the q -> 1 window a spectrum's trace defect is magnified by
#: 1/|1 - q|: a rounding of 1.1e-16 reads as 1.1e-16/|1 - q| of entropy
Q_EDGE_BAND = 1e-2


def _off_edge_band(q: float) -> bool:
    return not TOL.q_limit <= abs(q - 1.0) < Q_EDGE_BAND


#: (q, s) anywhere in the bounds' range, inside either limit window or on
#: the s window's edges, but not in the q window's edge band
ANY_Q = st.one_of(st.floats(0.05, 4.0), st.sampled_from(WINDOW_Q)).filter(_off_edge_band)
ANY_S = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(WINDOW_S))


def assert_at_most_max(e: float, q: float, s: float, d: int) -> None:
    top = max_unified(q, s, d)
    assert e <= top + 1e-12 * (1.0 + abs(top)), (e, top)


class TestAtMostMax:
    """E <= ``max_unified(q, s, d)``, the upper side of 0 <= E <= max, for
    classical spectra, the diagonal states that carry them and Ginibre
    states; zero and equal entries included."""

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="trace defect magnified by 1/|1 - q|")
    @pytest.mark.parametrize("rho", [maximally_mixed(14), random_density(1, 1, seed=1)])
    def test_at_the_q_window_edge(self, rho):
        # eigenvalues summing to 1 - 2^-53 (d = 1) or 1 - 2^-52 (d = 14)
        # read up to 1.1e-9 above the maximum at q = 1 + 1e-7
        for q in (1.0 - TOL.q_limit, 1.0 + TOL.q_limit):
            for s in (-2.0, 0.0, 1.0):
                assert_at_most_max(unified_quantum(rho, UnifiedParams(q, s)), q, s, rho.dim)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(any), ANY_Q, ANY_S)
    def test_classical_and_diagonal(self, x, q, s):
        p = np.array(x) / math.fsum(x)
        params = UnifiedParams(q, s)
        assert_at_most_max(unified_classical(p, params), q, s, p.size)
        assert_at_most_max(unified_quantum(diagonal_density(p), params), q, s, p.size)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 16), st.integers(0, 2**32 - 1), ANY_Q, ANY_S)
    def test_ginibre(self, data, d, seed, q, s):
        rho = random_density(d, data.draw(st.integers(1, d)), seed=seed)
        assert_at_most_max(unified_quantum(rho, UnifiedParams(q, s)), q, s, d)


def assert_at_least_zero(e: float, q: float, s: float, d: int) -> None:
    top = max_unified(q, s, d)
    assert e >= -1e-12 * (1.0 + abs(top)), (e, top)


class TestAtLeastZero:
    """E >= 0, the lower side of 0 <= E <= ``max_unified(q, s, d)``, for
    Ginibre states of any rank and diagonal states, with the slack and the
    (q, s) strategies of ``TestAtMostMax``."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 16), st.integers(0, 2**32 - 1), ANY_Q, ANY_S)
    def test_ginibre(self, data, d, seed, q, s):
        rho = random_density(d, data.draw(st.integers(1, d)), seed=seed)
        assert_at_least_zero(unified_quantum(rho, UnifiedParams(q, s)), q, s, d)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(any), ANY_Q, ANY_S)
    def test_diagonal(self, x, q, s):
        p = np.array(x) / math.fsum(x)
        # entries in (0, TOL.rank] are dropped by the rank snap, which can
        # read below 0: the strict xfail
        # TestClassicalIsDiagonal::test_many_entries_below_the_rank_threshold
        assume(not np.any((p > 0.0) & (p <= TOL.rank)))
        assert_at_least_zero(unified_quantum(diagonal_density(p), UnifiedParams(q, s)), q, s, p.size)


class TestClassicalIsDiagonal:
    """``unified_classical(p)`` equals ``unified_quantum(diagonal_density(p))``
    for spectra of 1-16 entries, zero and equal entries included."""

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="rank snap at TOL.rank")
    def test_below_the_rank_threshold(self):
        # the quantum side drops eigenvalues <= TOL.rank, the classical side
        # keeps them: 1.80e-4 against -4.28e-14 here
        p = np.array([1.0 - 1e-13, 1e-13])
        params = UnifiedParams(0.3, 1.0)
        assert unified_quantum(diagonal_density(p), params) == pytest.approx(unified_classical(p, params))

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="rank snap at TOL.rank")
    @pytest.mark.parametrize("q", [0.9, 0.5])
    def test_many_entries_below_the_rank_threshold(self, q):
        # fifteen entries of 1e-12 are dropped: at q = 0.9 the quantum side
        # reads -1.35e-10 where the classical side reads +2.24e-9, 30 times
        # past the 1e-12 (1 + |max|) slack below 0 (at q = 0.5: -1.5e-11
        # against 3.0e-5), so a max(E, 0.0) clamp alone would give 0
        p = np.array([1.0 - 15e-12] + [1e-12] * 15)
        params = UnifiedParams(q, 1.0)
        e = unified_classical(p, params)
        assert abs(unified_quantum(diagonal_density(p), params) - e) <= 1e-12 * (1.0 + abs(e))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(any), ANY_Q, ANY_S)
    def test_equal(self, x, q, s):
        p = np.array(x) / math.fsum(x)
        # entries in (0, TOL.rank] are the rank-snap defect pinned above;
        # ANY_Q leaves out the q window's edge band, where the two sides'
        # summation orders differ by rounding magnified by 1/|1 - q|
        assume(not np.any((p > 0.0) & (p <= TOL.rank)))
        params = UnifiedParams(q, s)
        e = unified_classical(p, params)
        assert abs(unified_quantum(diagonal_density(p), params) - e) <= 1e-12 * (1.0 + abs(e))


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
            # these three raised a bare OverflowError
            lambda: q_log(0.5, 2000.0),
            lambda: q_log(1e-300, 3.0),
            lambda: eta_q(10.0, 400.0),
        ],
    )
    def test_a_defined_value_beyond_the_range_is_its_own_domain_error(self, call):
        # callers tell it from an argument outside the domain; DomainError still catches it
        with pytest.raises(FloatRange, match="float range"):
            call()
        assert issubclass(FloatRange, DomainError)


#: the grid of the bound fixture in tests/data: q inside and around the
#: q -> 1 window, in (0, 1), in (1, 2] (an int 2 too) and above 2, where
#: 2000 takes kappa_s past the float range; s in every region strip, at
#: both zeros and at +-5e-10; d with the int and float 2^60; eps at 0, 1
#: and on both sides of the low-index threshold
FIXTURE_Q = (
    1e-17, 0.1, 0.5, 0.9, 1.0 - 1e-5, 1.0 - 5e-8, 1.0, 1.0 + 5e-8, 1.0 + 1e-5,
    1.5, 2, 2.0, 3.0, 2000.0,
)
FIXTURE_S = (-2.0, -1.0, -0.5, -5e-10, -0.0, 0.0, 5e-10, 0.5, 1.0, 2.0)
FIXTURE_D = (2, 3, 16, 2**40, 2**60, 2.0**60)
FIXTURE_PATH = Path(__file__).parent / "data" / "fannes-bounds.txt"


def _fixture_eps(q) -> list:
    half = low_q_threshold(q) / 2.0
    return sorted({0.0, 0.01, math.nextafter(half, 0.0), half, math.nextafter(half, 1.0), 1.0})


def _outcome(fn, spec: BoundSpec) -> str:
    """``repr`` of the value, or ``type: message`` of the refusal."""
    try:
        return repr(fn(spec))
    except EntropyKitError as err:
        return f"{type(err).__name__}: {err}"


def _fixture_rows():
    """(label, outcome) over the fixture grid, in the file's line order."""
    for q in FIXTURE_Q:
        for d in FIXTURE_D:
            for eps in _fixture_eps(q):
                for fn in (fannes_tsallis_low_q, fannes_tsallis_high_q):
                    yield f"{fn.__name__}{(q, d, eps)}", _outcome(fn, BoundSpec(q, 1.0, d, eps))
                for s in FIXTURE_S:
                    spec = BoundSpec(q, s, d, eps)
                    yield f"unified_fannes_bound{(q, s, d, eps)}", _outcome(unified_fannes_bound, spec)


class TestFrozenBounds:
    def test_values_and_refusals_match_the_fixture(self):
        # the fixture was written by the bounds that recomputed every term per call
        want = FIXTURE_PATH.read_text().splitlines()
        got = list(_fixture_rows())
        assert len(got) == len(want)
        for (label, outcome), line in zip(got, want):
            assert outcome == line, label


def _parent_bound(q, s, d, eps):
    """The unified bound as it was computed before the memo, every term on
    every call: the reference the memoized path must match bit for bit."""

    def q_log(x):
        if abs(q - 1.0) < TOL.q_limit:
            return math.log(x)
        return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q) + 0.0

    if 0 < q < 1 and (s <= -1.0 or 0.0 <= s <= 1.0):
        x = 2.0 * eps
        log_q = math.log1p(q - 1.0) if q - 1.0 > -1.0 else math.log(q)
        limit = math.exp(log_q / (1.0 - q))
        if x > limit:
            raise OutOfValidity(f"2*eps = {x!r} exceeds the monotonicity threshold {limit!r}")
        if eps == 0.0:
            return 0.0
        if abs(q - 1.0) < TOL.q_limit:
            eta = -x * math.log(x) if x > 0 else 0.0
        else:
            eta = (x**q - x) / (1.0 - q)
        return x**q * q_log(d) + eta
    if q > 1 and (-1.0 <= s <= 0.0 or s >= 1.0):
        if -1.0 <= s <= 0.0:
            try:
                kappa = math.pow(float(d), 2.0 * (q - 1.0))
            except OverflowError:
                raise FloatRange(
                    f"dimension factor at q = {q!r}, d = {d!r} exceeds the float range"
                ) from None
        else:
            kappa = 1.0
        if abs(q - 1.0) < TOL.q_limit:
            binary = 0.0
            for y in (eps, 1.0 - eps):
                if y > 0:
                    binary -= y * math.log(y)
        else:
            binary = (eps**q + (1.0 - eps) ** q - 1.0) / (1.0 - q) + 0.0
        return kappa * (eps**q * q_log(d - 1) + binary)
    raise OutOfValidity(f"no unified continuity bound proven at (q, s) = ({q!r}, {s!r})")


def _typed_outcome(fn, *args) -> tuple:
    try:
        value = fn(*args)
    except EntropyKitError as err:
        return type(err), str(err)
    return type(value), repr(value)


_Q_SPECIAL = [1e-17, 0.5, 1.0 - 5e-8, 1.0, 1.0 + 5e-8, 2.0, 2000.0]
_S_SPECIAL = [-2.0, -1.0, -0.5, -5e-10, -0.0, 0.0, 5e-10, 0.5, 1.0, 2.0]
_D_SPECIAL = [2, 3, 16, 2**40, 2**60, 2.0**60]


class TestBoundMemo:
    @given(
        st.one_of(
            st.sampled_from(_Q_SPECIAL),
            st.floats(1e-3, 10.0),
            st.integers(1, 5),
            st.floats(1e-3, 10.0).map(np.float64),
            st.sampled_from(_Q_SPECIAL).map(np.float64),
        ),
        st.one_of(st.sampled_from(_S_SPECIAL), st.floats(-3.0, 3.0), st.integers(-2, 2)),
        st.one_of(
            st.sampled_from(_D_SPECIAL),
            st.integers(2, 10**6),
            st.integers(2, 64).map(np.int64),
            st.integers(2, 64).map(float),
        ),
        st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_memoized_path_matches_every_term_per_call(self, q, s, d, eps):
        # twice: the first call may fill the memo entry, the second reads it
        want = _typed_outcome(_parent_bound, q, s, d, eps)
        for _ in range(2):
            assert _typed_outcome(unified_fannes_bound, BoundSpec(q, s, d, eps)) == want
        assert bounds._point_terms.cache_info().currsize <= bounds.BOUND_MEMO_CAP

    @given(
        st.one_of(
            st.sampled_from([1.0 + 5e-8, 2.0, 2000.0]),
            st.floats(1.001, 10.0),
            st.integers(2, 5),
            st.floats(1.001, 10.0).map(np.float64),
            st.integers(2, 5).map(np.int64),
        ),
        st.one_of(
            st.sampled_from(_D_SPECIAL),
            st.integers(2, 10**6),
            st.integers(2, 64).map(np.int64),
            st.integers(2, 64).map(float),
        ),
        st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_high_index_bound_reads_the_memo_as_its_own_formula(self, q, d, eps):
        # the formula fannes_tsallis_high_q evaluated before it read the memo
        want = _typed_outcome(lambda: bounds._high_q(q, eps, 1.0, q_log(d - 1, q)))
        for _ in range(2):
            assert _typed_outcome(fannes_tsallis_high_q, BoundSpec(q, 1.0, d, eps)) == want

    def test_memo_never_exceeds_its_caps(self):
        for k in range(bounds.BOUND_MEMO_CAP + 12):
            unified_fannes_bound(BoundSpec(2.0 + k / 1024, 1.0, 4, 0.1))
        info = bounds._point_terms.cache_info()
        assert info.maxsize == bounds.BOUND_MEMO_CAP and info.currsize == bounds.BOUND_MEMO_CAP

    def test_each_dimension_of_a_point_is_a_memo_entry(self):
        # the second pass over 100 dimensions at one point reads the memo only
        dims = range(2, 102)
        for d in dims:
            unified_fannes_bound(BoundSpec(3.5, -0.5, d, 0.1))
        hits = bounds._point_terms.cache_info().hits
        for d in dims:
            got = unified_fannes_bound(BoundSpec(3.5, -0.5, d, 0.1))
            assert got.hex() == _parent_bound(3.5, -0.5, d, 0.1).hex()
        assert bounds._point_terms.cache_info().hits == hits + 100

    def test_float_range_is_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(FloatRange, match="float range"):
                unified_fannes_bound(BoundSpec(2000.0, 0.0, 2, 0.1))

    def test_a_zero_s_keeps_its_sign_in_the_refusal(self):
        for s in (0.0, -0.0, 0.0):
            with pytest.raises(OutOfValidity, match=rf"\(1\.0, {s!r}\)"):
                unified_fannes_bound(BoundSpec(1.0, s, 4, 0.1))


def _refusal(fn, spec: BoundSpec) -> OutOfValidity:
    with pytest.raises(OutOfValidity) as info:
        fn(spec)
    return info.value


class TestRefusalIdentity:
    """A refusal's message is formatted only when read, yet its type, str,
    repr and pickled form are those of an OutOfValidity raised with the
    message string itself."""

    @staticmethod
    def _assert_refusal(err, message: str) -> None:
        # exactly OutOfValidity: tests/data/fannes-bounds.txt prints the type's name
        assert type(err) is OutOfValidity
        assert str(err) == message
        assert repr(err) == f"OutOfValidity({message!r})"
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(err, protocol))
            assert type(back) is OutOfValidity
            assert str(back) == message and repr(back) == repr(err)
            assert back.args == (message,)

    @pytest.mark.parametrize("q", [1e-3, 0.3, 0.5, 0.9, 1.0 - 5e-8])
    @pytest.mark.parametrize("fn", [fannes_tsallis_low_q, unified_fannes_bound, stability_ratio_bound])
    def test_threshold_refusal(self, fn, q):
        # the smallest eps past the threshold q^(1/(1-q)): 2*eps is the
        # next float above it
        limit = low_q_threshold(q)
        x = 2.0 * math.nextafter(limit / 2.0, 1.0)
        assert x == math.nextafter(limit, 1.0)
        message = f"2*eps = {x!r} exceeds the monotonicity threshold {limit!r}"
        for _ in range(2):  # the memo is cold, then warm
            self._assert_refusal(_refusal(fn, BoundSpec(q, 0.5, 4, x / 2.0)), message)

    @pytest.mark.parametrize("q,s", [(2.0, 0.5), (1.0, 0.0), (1.0, -0.0)])
    @pytest.mark.parametrize("fn", [unified_fannes_bound, stability_ratio_bound])
    def test_region_refusal(self, fn, q, s):
        message = f"no unified continuity bound proven at (q, s) = ({q!r}, {s!r})"
        for _ in range(2):
            self._assert_refusal(_refusal(fn, BoundSpec(q, s, 4, 0.1)), message)

"""Values, limits and identities of the unified entropy family."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entropy_kit.entropies import (
    UnifiedParams,
    _entropy_table,
    _from_logs,
    _point_form,
    binary_tsallis,
    q_log,
    renyi,
    tsallis,
    type_q_entropy,
    unified_classical,
    unified_from_power_sum,
    unified_quantum,
)
from entropy_kit.errors import DomainError, EntropyKitError, InvalidIndex
from entropy_kit.linops import (
    DensityOperator,
    ProbabilityDistribution,
    _density_stacks,
    _stack_rows,
    diagonal_density,
    maximally_mixed,
    random_density,
    random_density_matrix,
    random_unitary,
)
from entropy_kit.tolerances import TOL

FLAT4 = ProbabilityDistribution([0.25] * 4)
SKEW = ProbabilityDistribution([0.5, 0.3, 0.2])
#: q and s at 0.5, 1 and 2 times the limit windows' half-widths, on both
#: sides, and both zeros of s
POINT_Q_EDGES = tuple(1.0 + k * TOL.q_limit for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
POINT_S_EDGES = tuple(k * TOL.s_limit for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)) + (0.0, -0.0)


def random_dist(seed: int, size: int = 4) -> ProbabilityDistribution:
    rng = np.random.default_rng(seed)
    return ProbabilityDistribution(rng.dirichlet(np.ones(size)))


class TestQLog:
    def test_value(self):
        assert q_log(4.0, 0.5) == pytest.approx(2.0)

    def test_limit_is_natural_log(self):
        assert q_log(5.0, 1.0) == pytest.approx(math.log(5.0))
        assert q_log(5.0, 1.0 + 1e-9) == pytest.approx(math.log(5.0))

    def test_vanishes_at_one(self):
        assert q_log(1.0, 0.3) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            q_log(0.0, 0.5)
        with pytest.raises(DomainError):
            q_log(-1.0, 2.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, 0.0, -1.0])
    def test_index_rule(self, q):
        # q_log(2, nan) returned nan
        with pytest.raises(InvalidIndex, match=f"q must be positive and finite, got {q!r}"):
            q_log(2.0, q)

    @given(st.floats(0.1, 10.0), st.floats(0.05, 3.0))
    def test_continuous_near_limit(self, x, q):
        direct = q_log(x, q)
        assert direct == pytest.approx(
            math.expm1((1 - q) * math.log(x)) / (1 - q) if abs(q - 1) > 1e-7 else math.log(x),
            rel=1e-9, abs=1e-12,
        )


class TestUnifiedParams:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(InvalidIndex):
            UnifiedParams(0.0, 1.0)
        with pytest.raises(InvalidIndex):
            UnifiedParams(-2.0, 1.0)

    @pytest.mark.parametrize(
        "q,s",
        [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf)],
    )
    def test_rejects_non_finite_indices(self, q, s):
        with pytest.raises(InvalidIndex):
            UnifiedParams(q, s)

    @pytest.mark.parametrize(
        "q,s",
        [(10**5000, 1.0), (1.0, 10**5000), (10**400, 1.0), (2.0, -(10**400)), (-(10**400), 1.0)],
        ids=["q=10**5000", "s=10**5000", "q=10**400", "s=-10**400", "q=-10**400"],
    )
    def test_rejects_an_index_without_a_float_value(self, q, s):
        # an int past the float range compares as finite: it ended in a bare
        # OverflowError, at construction (s) or at evaluation (q)
        with pytest.raises(InvalidIndex, match="must be (positive and )?finite"):
            UnifiedParams(q, s)

    def test_accepts_exact_non_float_indices(self):
        assert UnifiedParams(2, np.float64(-1.0)) == UnifiedParams(2.0, -1.0)
        assert UnifiedParams(np.int64(3), 2**60).s == 2**60

    def test_limit_flags(self):
        assert UnifiedParams(1.0 + 1e-8, 2.0).is_q_limit
        assert not UnifiedParams(1.001, 2.0).is_q_limit
        assert UnifiedParams(2.0, 1e-10).is_s_limit
        assert not UnifiedParams(1.0 + 1e-8, 1e-10).is_s_limit

    @pytest.mark.parametrize("q", POINT_Q_EDGES + (0.5, 1.0, 2.0, 2))
    @pytest.mark.parametrize("s", POINT_S_EDGES + (1.0, -1.0, np.float64(5e-10)))
    def test_limit_flags_at_the_window_edges(self, q, s):
        # the flags as they were computed from (q, s) on every read; both
        # are plain bools now, where a numpy index made them numpy bools
        params = UnifiedParams(q, s)
        in_q = abs(q - 1.0) < TOL.q_limit
        assert params.is_q_limit is bool(in_q)
        assert params.is_s_limit is bool(not in_q and abs(s) < TOL.s_limit)

    @pytest.mark.parametrize(
        "q,s,message",
        [
            (0.0, math.nan, "entropic index q must be positive and finite, got 0.0"),
            (2.0, math.nan, "entropic index s must be finite, got nan"),
            (np.float64(math.inf), 1.0, "entropic index q must be positive and finite, got np.float64(inf)"),
            (2, -math.inf, "entropic index s must be finite, got -inf"),
        ],
    )
    def test_refusals_in_order(self, q, s, message):
        with pytest.raises(InvalidIndex) as info:
            UnifiedParams(q, s)
        assert str(info.value) == message

    def test_equal_points_compare_and_hash_equal(self):
        assert UnifiedParams(q=2.0, s=1.0) == UnifiedParams(2.0, 1.0)
        for a, b in (((2.0, 1.0), (2, 1)), ((2.0, 0.0), (2.0, -0.0)), ((1.0, 5e-10), (1, 5e-10))):
            assert UnifiedParams(*a) == UnifiedParams(*b)
            assert hash(UnifiedParams(*a)) == hash(UnifiedParams(*b)) == hash(a)
        assert [f.name for f in dataclasses.fields(UnifiedParams)] == ["q", "s"]
        assert repr(UnifiedParams(2.0, -0.0)) == "UnifiedParams(q=2.0, s=-0.0)"

    @pytest.mark.parametrize("q,s", [(2.0, 1.0), (2.0, 5e-10), (1.0 + 5e-8, 2.0), (0.5, -1.0)])
    def test_replace_pickle_and_copy_carry_the_form(self, q, s):
        params = UnifiedParams(q, s)
        twins = (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params))
        for twin in twins:
            assert twin == params
            assert (twin.is_q_limit, twin.is_s_limit) == (params.is_q_limit, params.is_s_limit)
            assert unified_classical(SKEW, twin).hex() == unified_classical(SKEW, params).hex()
        for q2, s2 in ((q, 1.5), (1.0, s), (0.7, 0.0), (3.0, -2e-9)):
            moved = dataclasses.replace(params, q=q2, s=s2)
            fresh = UnifiedParams(q2, s2)
            assert (moved.is_q_limit, moved.is_s_limit) == (fresh.is_q_limit, fresh.is_s_limit)
            assert unified_classical(SKEW, moved).hex() == unified_classical(SKEW, fresh).hex()
        with pytest.raises(InvalidIndex):
            dataclasses.replace(params, q=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.q = 3.0


class TestClassicalValues:
    def test_flat_unified(self):
        assert unified_classical(FLAT4, UnifiedParams(2.0, 1.0)) == pytest.approx(0.75)

    def test_skew_unified_frozen(self):
        # t = 0.38 at q = 2, so ((1/0.38) - 1)/((1-2)(-1)) = 1.6315789...
        value = unified_classical(SKEW, UnifiedParams(2.0, -1.0))
        assert value == pytest.approx(1.6315789473684212, abs=1e-12)

    def test_s_one_is_tsallis(self):
        for seed in range(5):
            p = random_dist(seed)
            assert unified_classical(p, UnifiedParams(1.7, 1.0)) == pytest.approx(
                tsallis(p, 1.7), abs=1e-12
            )

    def test_s_zero_is_renyi(self):
        for seed in range(5):
            p = random_dist(seed)
            assert unified_classical(p, UnifiedParams(0.6, 0.0)) == pytest.approx(
                renyi(p, 0.6), abs=1e-12
            )

    def test_deterministic_distribution_has_zero_entropy(self):
        p = ProbabilityDistribution([1.0, 0.0, 0.0])
        for q, s in [(0.5, -1.0), (2.0, 1.0), (1.0, 0.5), (3.0, 0.0)]:
            assert unified_classical(p, UnifiedParams(q, s)) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_flat(self):
        assert renyi(FLAT4, 2.0) == pytest.approx(math.log(4.0))

    def test_shannon_at_q_one(self):
        assert renyi([0.5, 0.5], 1.0) == pytest.approx(math.log(2.0))
        assert tsallis([0.5, 0.5], 1.0) == pytest.approx(math.log(2.0))

    def test_accepts_plain_sequences(self):
        assert unified_classical([0.5, 0.5], UnifiedParams(2.0, 1.0)) == pytest.approx(0.5)


class TestTypeQ:
    def test_flat_pair(self):
        assert type_q_entropy([0.5, 0.5], 2.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [0.4, 1.8, 3.0])
    def test_is_unified_at_reciprocal_indices(self, q):
        # identity oracle: ((sum p^(1/q))^q - 1)/(q - 1) with indices (1/q, q)
        for seed in range(5):
            p = random_dist(seed, size=5)
            u = float(np.sum(p.probs ** (1.0 / q)))
            direct = (u**q - 1.0) / (q - 1.0)
            assert type_q_entropy(p, q) == pytest.approx(direct, rel=1e-12)
            assert type_q_entropy(p, q) == pytest.approx(
                unified_classical(p, UnifiedParams(1.0 / q, q)), rel=1e-12
            )

    def test_shannon_limit(self):
        p = random_dist(1)
        assert type_q_entropy(p, 1.0) == pytest.approx(renyi(p, 1.0))


class TestQuantum:
    def test_matches_classical_on_spectrum(self):
        rho = random_density(4, 4, seed=50)
        spectrum = ProbabilityDistribution(rho.eigenvalues)
        for q, s in [(0.5, -1.0), (2.0, 1.0), (3.0, 0.5), (0.7, 0.0)]:
            assert unified_quantum(rho, UnifiedParams(q, s)) == pytest.approx(
                unified_classical(spectrum, UnifiedParams(q, s)), abs=1e-10
            )

    def test_unitary_invariance(self):
        rho = diagonal_density([0.6, 0.3, 0.1])
        u = random_unitary(3, seed=51)
        rotated = type(rho).from_matrix(u @ rho.mat @ u.conj().T)
        for q, s in [(0.5, 2.0), (2.0, -1.0), (1.0, 0.0)]:
            assert unified_quantum(rotated, UnifiedParams(q, s)) == pytest.approx(
                unified_quantum(rho, UnifiedParams(q, s)), abs=1e-10
            )

    def test_von_neumann_of_mixed_qubit(self):
        rho = diagonal_density([0.5, 0.5])
        assert renyi(rho, 1.0) == pytest.approx(math.log(2.0))
        assert tsallis(rho, 1.0) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("func", [renyi, tsallis, type_q_entropy])
    @pytest.mark.parametrize("q", [0.4, 1.0, 2.0, 3.0])
    def test_named_entropies_of_a_state_are_those_of_its_spectrum(self, func, q):
        # one evaluation path: a state and the distribution of its
        # eigenvalues give the same bits
        rho = random_density(4, 3, seed=52)
        spectrum = ProbabilityDistribution(rho.eigenvalues)
        assert func(rho, q).hex() == func(spectrum, q).hex()
        assert func(rho, q).hex() == func(list(rho.eigenvalues), q).hex()

    def test_pure_state_zero(self):
        rho = diagonal_density([1.0, 0.0])
        for q, s in [(0.5, -2.0), (2.0, 1.0), (1.0, 1.0)]:
            assert unified_quantum(rho, UnifiedParams(q, s)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_maximally_mixed_attains_closed_form(self, d):
        # ((d^((1-q)s)) - 1)/((1-q)s), the maximum over states
        for q, s in [(0.5, -1.0), (2.0, 1.0), (2.0, -2.0), (3.0, 0.5)]:
            expect = math.expm1((1 - q) * s * math.log(d)) / ((1 - q) * s)
            got = unified_quantum(maximally_mixed(d), UnifiedParams(q, s))
            assert got == pytest.approx(expect, abs=1e-12)
        assert unified_quantum(maximally_mixed(d), UnifiedParams(2.0, 0.0)) == pytest.approx(
            math.log(d), abs=1e-12
        )


class TestLimitConsistency:
    @pytest.mark.parametrize("seed", range(10))
    def test_inside_s_window(self, seed):
        p = random_dist(seed, size=5)
        for q in (0.5, 2.0, 3.0):
            r = renyi(p, q)
            for s in (1e-10, -1e-10):
                diff = abs(unified_classical(p, UnifiedParams(q, s)) - r)
                assert diff <= 1e-6 * (1 + abs(r))

    @pytest.mark.parametrize("seed", range(10))
    def test_just_outside_s_window(self, seed):
        p = random_dist(seed, size=5)
        for q in (0.5, 2.0):
            r = renyi(p, q)
            diff = abs(unified_classical(p, UnifiedParams(q, 1e-8)) - r)
            assert diff <= 1e-6 * (1 + abs(r))

    @pytest.mark.parametrize("seed", range(10))
    def test_inside_q_window(self, seed):
        p = random_dist(seed, size=5)
        h = renyi(p, 1.0)
        for s in (-1.0, 0.5, 2.0):
            diff = abs(unified_classical(p, UnifiedParams(1.0 + 1e-8, s)) - h)
            assert diff <= 1e-5 * (1 + abs(h))

    @pytest.mark.parametrize("seed", range(10))
    def test_just_outside_q_window(self, seed):
        p = random_dist(seed, size=5)
        h = renyi(p, 1.0)
        for q in (1.0 + 1e-6, 1.0 - 1e-6):
            diff = abs(unified_classical(p, UnifiedParams(q, 1.0)) - h)
            assert diff <= 1e-4 * (1 + abs(h))


class TestFamilyStructure:
    @given(st.integers(0, 10_000), st.floats(0.05, 4.0), st.floats(-3.0, 3.0))
    def test_nonnegative(self, seed, q, s):
        p = random_dist(seed, size=4)
        assert unified_classical(p, UnifiedParams(q, s)) >= -1e-12

    @given(st.integers(0, 10_000), st.floats(-2.5, 2.5))
    def test_monotone_in_power_sum(self, seed, s):
        # with t = sum p^q, the family is increasing in t below q = 1 and
        # decreasing above, for every s
        p1 = random_dist(seed, size=4)
        p2 = random_dist(seed + 77_777, size=4)
        for q, sign in ((0.6, 1.0), (1.8, -1.0)):
            t1 = float(np.sum(p1.probs**q))
            t2 = float(np.sum(p2.probs**q))
            e1 = unified_classical(p1, UnifiedParams(q, s))
            e2 = unified_classical(p2, UnifiedParams(q, s))
            assert sign * (t1 - t2) * (e1 - e2) >= -1e-12

    def test_power_sum_backbone_matches(self):
        p = SKEW
        for q, s in [(0.5, -1.0), (2.0, 2.0), (3.0, 0.0)]:
            t = float(np.sum(p.probs**q))
            assert unified_from_power_sum(t, q, s) == pytest.approx(
                unified_classical(p, UnifiedParams(q, s)), abs=1e-12
            )

    def test_power_sum_backbone_rejects_q_window(self):
        with pytest.raises(InvalidIndex):
            unified_from_power_sum(1.0, 1.0 + 1e-9, 1.0)
        with pytest.raises(DomainError):
            unified_from_power_sum(0.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "t,q,error",
        [
            (0.0, 2.0, DomainError),
            (-0.5, 2.0, DomainError),
            (math.nan, 2.0, DomainError),
            (0.5, 0.0, InvalidIndex),
            (0.5, -1.0, InvalidIndex),
            (0.5, math.nan, InvalidIndex),
            (0.5, math.inf, InvalidIndex),
            (0.5, 1.0, InvalidIndex),
            (0.5, 1.0 - 5e-8, InvalidIndex),
            (0.5, 1.0 + 5e-8, InvalidIndex),
        ],
    )
    def test_power_sum_backbone_checks_its_inputs(self, t, q, error):
        # the unchecked kernel behind it serves only callers that checked
        with pytest.raises(error):
            unified_from_power_sum(t, q, 1.0)

    @given(
        st.floats(1e-300, 1e6),
        st.one_of(st.floats(0.01, 8.0), st.sampled_from([0.5, 2.0, 1.0 + 2e-7])),
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-10, -1e-10, 1.0])),
    )
    def test_kernel_bit_equal_to_checked_form(self, t, q, s):
        assume(not UnifiedParams(q, s).is_q_limit)  # refused by both callers of the kernel
        if (t > 1.0 + TOL.trace) if q > 1.0 else (t < 1.0 - TOL.trace):
            # on the side of 1 that no normalized spectrum reaches
            with pytest.raises(DomainError, match="no normalized spectrum"):
                unified_from_power_sum(t, q, s)
            return
        s_form, den = _point_form(q, s)
        try:
            # the scalar formula of _unified, on Python floats
            if s_form is None:
                expect = (math.log(t) / den + 0.0).hex()
            else:
                expect = (math.expm1(s_form * math.log(t)) / den + 0.0).hex()
        except OverflowError:
            # t^s beyond the float range: the public form names the range
            with pytest.raises(DomainError, match="float range"):
                unified_from_power_sum(t, q, s)
            return
        # the kernel does its * / + in numpy, which rounds as Python floats do
        assert _from_logs(np.array([math.log(t)]), (s_form, den))[0].hex() == expect
        assert unified_from_power_sum(t, q, s).hex() == expect

    @pytest.mark.parametrize("t", [math.inf, 5.0])
    def test_power_sum_above_one_refused_for_q_above_one(self, t):
        # these returned -inf and -4.0
        with pytest.raises(DomainError):
            unified_from_power_sum(t, 2.0, 1.0)

    @pytest.mark.parametrize("t,q", [(0.5, 0.5), (1e-300, 0.3), (math.inf, 0.5)])
    def test_power_sum_below_one_or_infinite_refused_for_q_below_one(self, t, q):
        with pytest.raises(DomainError):
            unified_from_power_sum(t, q, 1.0)

    @pytest.mark.parametrize("t,q", [(1.0 + TOL.trace / 2, 2.0), (1.0 - TOL.trace / 2, 0.5)])
    def test_power_sum_within_the_trace_tolerance_of_one(self, t, q):
        # a rounded power sum of a normalized spectrum is still read
        assert abs(unified_from_power_sum(t, q, 1.0)) < 1e-9

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    def test_power_sum_backbone_checks_s(self, s):
        # these returned nan or 0.0, and +-10**400 raised FloatRange
        with pytest.raises(InvalidIndex, match="entropic index s must be finite"):
            unified_from_power_sum(0.5, 2.0, s)

    def test_power_sum_backbone_checks_q_before_s(self):
        with pytest.raises(InvalidIndex, match="entropic index q"):
            unified_from_power_sum(0.5, math.nan, math.nan)

    @pytest.mark.parametrize("t,q,s", [(1e-200, 8.0, -2.0), (1e300, 0.1, 3.0)])
    def test_overflow_is_a_domain_error(self, t, q, s):
        with pytest.raises(DomainError, match="exceeds the float range"):
            unified_from_power_sum(t, q, s)


class TestBinaryTsallis:
    @pytest.mark.parametrize("eps,q", [(0.1, 2.0), (0.3, 0.5), (0.0, 1.5), (1.0, 2.0)])
    def test_matches_two_point_tsallis(self, eps, q):
        assert binary_tsallis(eps, q) == pytest.approx(
            tsallis([eps, 1.0 - eps], q), abs=1e-14
        )

    def test_value(self):
        assert binary_tsallis(0.1, 2.0) == pytest.approx(0.18)

    def test_limit(self):
        expect = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
        assert binary_tsallis(0.1, 1.0) == pytest.approx(expect)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_tsallis(1.2, 2.0)
        with pytest.raises(InvalidIndex):
            binary_tsallis(0.5, 0.0)


class TestIndexValidation:
    @pytest.mark.parametrize("func", [renyi, tsallis, type_q_entropy])
    def test_rejects_nonpositive_q(self, func):
        # neither a bare math error, a silent value nor a message about 1/q
        for spectrum in ([0.5, 0.5], FLAT4, maximally_mixed(2)):
            for q in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(InvalidIndex, match=f"q must be positive and finite, got {q!r}"):
                    func(spectrum, q)

    def test_rejects_bad_distribution(self):
        with pytest.raises(DomainError):
            renyi([0.7, 0.7], 2.0)

    @pytest.mark.parametrize(
        "q,s",
        [
            (2.0, -2000.0),  # t^s overflows
            (2000.0, 1.0),  # the power sum underflows to 0, which has no logarithm
            (2000.0, 0.0),
        ],
    )
    def test_beyond_the_float_range_is_a_domain_error(self, q, s):
        params = UnifiedParams(q, s)
        rho = diagonal_density([0.5, 0.5])
        with pytest.raises(DomainError, match="leaves the float range"):
            unified_classical([0.5, 0.5], params)
        with pytest.raises(DomainError, match="leaves the float range"):
            unified_quantum(rho, params)
        with pytest.raises(DomainError, match="leaves the float range"):
            _entropy_table(_density_stacks([rho.mat[None]]), [UnifiedParams(2.0, 1.0), params])


class TestMemoizedEvaluation:
    """unified_quantum / unified_classical read power sums through a memo;
    every value must be bit-equal to evaluating the power sum directly."""

    @staticmethod
    def direct(lam: np.ndarray, params: UnifiedParams) -> float:
        if params.is_q_limit:
            nz = lam[lam > 0]
            return float(-np.sum(nz * np.log(nz))) + 0.0
        return unified_from_power_sum(float(np.sum(lam**params.q)), params.q, params.s)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(
            st.tuples(
                st.one_of(st.floats(0.05, 6.0), st.sampled_from([0.5, 1.0, 2.0, 1.0 + 5e-8])),
                st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, 1e-10])),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_bit_equal_on_first_and_repeated_calls(self, seed, points):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        dist = ProbabilityDistribution(rng.dirichlet(np.ones(d)))
        for q, s in points + points:
            params = UnifiedParams(q, s)
            assert unified_quantum(rho, params).hex() == self.direct(rho.eigenvalues, params).hex()
            assert unified_classical(dist, params).hex() == self.direct(dist.probs, params).hex()


class TestEntropyTable:
    """A chunk of the harness reads every entropy from one table of its
    spectra, rows of value stacks, at the grid points; each cell must be
    bit-equal to the per-point ``unified_quantum`` / ``unified_classical``
    / ``power_sum`` of its own spectrum."""

    @staticmethod
    def rows(rng, lengths):
        """(stack rows, their per-spectrum holders) of a chunk mixing states
        built in one stack and distributions, interleaved as a judge's
        table rows are."""
        mats, dists, quantum = [], [], []
        for d in lengths:
            quantum.append(rng.uniform() < 0.5)
            if quantum[-1]:
                # a rank below d leaves eigenvalues snapped to exact zeros
                mats.append(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
                continue
            p = rng.dirichlet(np.ones(d))
            p[rng.uniform(size=d) < 0.3] = 0.0
            p[0] += 1.0 - p.sum()
            dists.append(ProbabilityDistribution(p))
        # each state a one-item stack: its row is (stack, offset)
        rows = iter(_density_stacks([[m] for m in mats])), iter(_stack_rows([p.probs for p in dists]))
        holders = iter(map(DensityOperator.from_matrix, mats)), iter(dists)
        return [next(rows[not q]) for q in quantum], [next(holders[not q]) for q in quantum]

    @staticmethod
    def assert_cells_bit_equal(rows, holders, grid):
        table = _entropy_table(rows, grid)
        sums = _entropy_table(rows, grid, q_only=True)
        assert table.shape == sums.shape == (len(rows), len(grid))
        assert table.dtype == sums.dtype == np.float64
        for h, row, sum_row in zip(holders, table.tolist(), sums.tolist()):
            quantum = isinstance(h, DensityOperator)
            for k, params in enumerate(grid):
                alone = (unified_quantum if quantum else unified_classical)(h, params)
                assert row[k].hex() == alone.hex()
                assert sum_row[k].hex() == h.power_sum(params.q).hex()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(1, 20), min_size=1, max_size=12),
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.5, 2.0, 1.0, 1.0 + 5e-8, 1.0 - 5e-8]),
                    st.sampled_from(POINT_Q_EDGES),
                    st.floats(0.05, 6.0),
                ),
                st.one_of(
                    st.sampled_from([0.0, 1e-10, -1e-10, 1.0]),
                    st.sampled_from(POINT_S_EDGES),
                    st.floats(-3.0, 3.0),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_bit_equal_to_per_point_path(self, seed, lengths, points):
        rows, holders = self.rows(np.random.default_rng(seed), lengths)
        self.assert_cells_bit_equal(rows, holders, [UnifiedParams(q, s) for q, s in points])

    def test_stack_rows_of_mixed_dimensions(self):
        # d in [2, 9], full-rank and rank-deficient states, distributions
        # with zeros, several s per q (which share their logarithms), s = 0
        # and a q -> 1 point
        lengths = [d for d in range(2, 10) for _ in range(4)]
        rows, holders = self.rows(np.random.default_rng(23), lengths)
        assert {len(stack[0][j]) for stack, j in rows} == set(range(2, 10))
        assert any(isinstance(h, DensityOperator) and h.eigenvalues[-1] == 0.0 for h in holders)
        assert any(not isinstance(h, DensityOperator) and h.probs.min() == 0.0 for h in holders)
        grid = [UnifiedParams(q, s) for q in (0.3, 2.0) for s in (-2.0, 0.0, 0.5, 1.0)]
        self.assert_cells_bit_equal(rows, holders, grid + [UnifiedParams(1.0, 2.0)])

    def test_one_power_pass_per_stack_and_q(self):
        # rows that carry equal but distinct tuples over one value stack
        # share it: one ** pass per distinct q, not one per row and q
        passes = []

        class Counted(np.ndarray):
            def __pow__(self, q):
                passes.append(q)
                return super().__pow__(q)

        vals = np.array([[0.5, 0.5, 0.0], [0.7, 0.2, 0.1], [1.0, 0.0, 0.0]]).view(Counted)
        rows = [((vals,), j) for j in (0, 1, 2, 1)]
        grid = [UnifiedParams(q, s) for q in (0.5, 2.0, 3.0) for s in (-1.0, 0.0, 1.0)]
        table = _entropy_table(rows, grid)
        assert passes == [0.5, 2.0, 3.0]
        spectra = [_stack_rows([np.asarray(v)])[0] for v in np.asarray(vals)[[0, 1, 2, 1]]]
        assert table.tobytes() == _entropy_table(spectra, grid).tobytes()

    def test_empty_chunk_and_empty_grid(self):
        rows = _stack_rows([FLAT4.probs, SKEW.probs])
        assert _entropy_table([], [UnifiedParams(2.0, 1.0)]).shape == (0, 1)
        assert _entropy_table(rows, []).shape == (2, 0)
        assert _entropy_table(rows[:1], [], q_only=True).shape == (1, 0)


#: the benchmark's sweep grid: 15 q times 11 s, plus six type-q pairs (1/k, k)
SWEEP_Q = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 5e-8, 1.0, 1.0 + 5e-8, 1.0 - 1e-5, 1.0 + 1e-5,
           1.5, 2.0, 2.5, 3.0, 5.0)
SWEEP_S = (-2.0, -1.0, -0.5, -5e-10, 0.0, 5e-10, -1e-8, 1e-8, 0.5, 1.0, 2.0)
SWEEP_TYPE_Q = (3.0, 1.5, 4.0, 0.25, 0.8, 1.25)
#: t^s past the float range, a power sum that underflows to 0, a (1 - q) s
#: that overflows, and s far inside the s -> 0 window
OVERFLOW_POINTS = (
    (2.0, -2000.0), (0.01, 2000.0), (0.5, 1e6), (300.0, -5.0), (2000.0, 1.0), (2000.0, 0.0),
    (1e300, 1e10), (1e-300, 1.0), (1.0 + 2e-7, 1e-300), (1.0 - 2e-7, -5e-308),
)
POINTS = (
    tuple((q, s) for q in POINT_Q_EDGES + (0.5, 2.0) for s in POINT_S_EDGES + (-1.0, 1.0))
    + tuple((q, s) for q in SWEEP_Q for s in SWEEP_S)
    + tuple((1.0 / k, k) for k in SWEEP_TYPE_Q)
    + OVERFLOW_POINTS
)
#: power sums at and just past the normalized range, tiny, huge and refused
POINT_T = (1.0, 1.0 - TOL.trace, 1.0 + TOL.trace, 0.5, 2.0, 1e-300, 1e300, 0.0, math.inf)
POINTS_PATH = Path(__file__).parent / "data" / "unified-points.txt"


def _point_holders():
    """(quantum, classical) spectrum holders: diagonal, Ginibre, rank-deficient."""
    rng = np.random.default_rng(2718)
    quantum = [
        diagonal_density([0.6, 0.25, 0.1, 0.05]),
        diagonal_density([0.9, 0.0, 0.1 - 1e-13, 1e-13]),
        diagonal_density([1.0, 0.0]),
        random_density(5, 5, rng),
        random_density(6, 2, rng),
    ]
    return quantum, [ProbabilityDistribution(rho.eigenvalues) for rho in quantum]


def _point_outcome(fn, *args) -> str:
    """``repr`` of the value, or ``type: message`` of the refusal."""
    try:
        return repr(fn(*args))
    except EntropyKitError as err:
        return f"{type(err).__name__}: {err}"


def _point_rows():
    """(label, outcome) over the per-point fixture grid, in the file's line order."""
    quantum, classical = _point_holders()
    for q, s in POINTS:
        params = UnifiedParams(q, s)
        for i, rho in enumerate(quantum):
            yield f"unified_quantum(#{i}, {q!r}, {s!r})", _point_outcome(unified_quantum, rho, params)
        for i, dist in enumerate(classical):
            yield f"unified_classical(#{i}, {q!r}, {s!r})", _point_outcome(unified_classical, dist, params)
        for t in POINT_T + tuple(dist.power_sum(q) for dist in classical):
            yield f"unified_from_power_sum{(t, q, s)}", _point_outcome(unified_from_power_sum, t, q, s)
    for q in dict.fromkeys(q for q, _ in POINTS):
        for fn in (renyi, tsallis, type_q_entropy):
            for i, holder in enumerate(quantum + classical):
                yield f"{fn.__name__}(#{i}, {q!r})", _point_outcome(fn, holder, q)


class TestFrozenPoints:
    def test_values_and_refusals_match_the_fixture(self):
        # the fixture was written by the path that re-derived each point's
        # limit window and denominator on every call
        want = POINTS_PATH.read_text().splitlines()
        got = list(_point_rows())
        assert len(got) == len(want)
        for (label, outcome), line in zip(got, want):
            assert outcome == line, label

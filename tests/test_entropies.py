"""Values, limits and identities of the unified entropy family."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entropy_kit.entropies import (
    UnifiedParams,
    _entropy_rows,
    _from_power_sum,
    binary_tsallis,
    q_log,
    renyi,
    tsallis,
    type_q_entropy,
    unified_classical,
    unified_from_power_sum,
    unified_quantum,
)
from entropy_kit.errors import DomainError, InvalidIndex
from entropy_kit.linops import (
    DensityOperator,
    ProbabilityDistribution,
    _power_sums,
    density_operators,
    diagonal_density,
    maximally_mixed,
    random_density,
    random_density_matrix,
    random_unitary,
)

FLAT4 = ProbabilityDistribution([0.25] * 4)
SKEW = ProbabilityDistribution([0.5, 0.3, 0.2])


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

    def test_limit_flags(self):
        assert UnifiedParams(1.0 + 1e-8, 2.0).is_q_limit
        assert not UnifiedParams(1.001, 2.0).is_q_limit
        assert UnifiedParams(2.0, 1e-10).is_s_limit
        assert not UnifiedParams(1.0 + 1e-8, 1e-10).is_s_limit


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
        try:
            expect = _from_power_sum(t, q, s).hex()
        except OverflowError:
            # t^s beyond the float range: the public form names the range
            with pytest.raises(DomainError, match="float range"):
                unified_from_power_sum(t, q, s)
            return
        assert unified_from_power_sum(t, q, s).hex() == expect

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
            _entropy_rows([rho], [UnifiedParams(2.0, 1.0), params])


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
    spectrum holders at the grid points; each cell must be bit-equal to the
    per-point ``unified_quantum`` / ``unified_classical`` / ``power_sum``."""

    @staticmethod
    def holders(rng, lengths):
        out = []
        for d in lengths:
            if rng.uniform() < 0.5:
                # states built in one stack, as in the harness; a rank below
                # d leaves eigenvalues snapped to exact zeros
                out.append(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
                continue
            p = rng.dirichlet(np.ones(d))
            p[rng.uniform(size=d) < 0.3] = 0.0
            p[0] += 1.0 - p.sum()
            out.append(ProbabilityDistribution(p))
        mats = [h for h in out if isinstance(h, np.ndarray)]
        states = iter(density_operators(mats))
        return [next(states) if isinstance(h, np.ndarray) else h for h in out]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(1, 20), min_size=1, max_size=12),
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.5, 2.0, 1.0, 1.0 + 5e-8, 1.0 - 5e-8]),
                    st.floats(0.05, 6.0),
                ),
                st.one_of(st.sampled_from([0.0, 1e-10, -1e-10, 1.0]), st.floats(-3.0, 3.0)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_bit_equal_to_per_point_path(self, seed, lengths, points):
        holders = self.holders(np.random.default_rng(seed), lengths)
        grid = [UnifiedParams(q, s) for q, s in points]
        rows = _entropy_rows(holders, grid)
        sums = _power_sums(holders, [p.q for p in grid]).tolist()
        assert len(rows) == len(sums) == len(holders)
        for h, row, sum_row in zip(holders, rows, sums):
            quantum = isinstance(h, DensityOperator)
            for k, params in enumerate(grid):
                alone = (unified_quantum if quantum else unified_classical)(h, params)
                assert row[k].hex() == alone.hex()
                assert sum_row[k].hex() == h.power_sum(params.q).hex()

    def test_empty_chunk_and_empty_grid(self):
        assert _entropy_rows([], [UnifiedParams(2.0, 1.0)]) == []
        assert _entropy_rows([FLAT4, SKEW], []) == [(), ()]
        assert _power_sums([FLAT4], []).shape == (1, 0)

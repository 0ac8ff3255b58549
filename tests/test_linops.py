"""Operator types, norms, composite-system operations and sampling."""

from __future__ import annotations

import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_kit import linops
from entropy_kit.bounds import BoundSpec, kappa_s, max_unified, unified_fannes_bound
from entropy_kit.entropies import unified_classical
from entropy_kit.errors import (
    DimMismatch,
    DomainError,
    IncompleteMeasurement,
    InvalidIndex,
    NonHermitian,
    NotPositive,
)
from entropy_kit.linops import (
    POWER_SUM_MEMO_CAP,
    DensityOperator,
    GeneralizedMeasurement,
    HermitianOperator,
    OrthogonalResolution,
    ProbabilityDistribution,
    PureStateEnsemble,
    apply_generalized,
    density_operators,
    diagonal_density,
    ensemble_from_state,
    maximally_mixed,
    partial_trace,
    pinch,
    purify,
    random_density,
    random_density_matrix,
    random_resolution,
    random_unitary,
    read_density,
    read_matrix,
    tensor,
    trace_distance,
    write_matrix,
)
from entropy_kit.tolerances import TOL
from entropy_kit.verify import StabilityExample


def basis_resolution(d):
    eye = np.eye(d)
    return OrthogonalResolution(
        tuple(np.outer(eye[:, j], eye[:, j]) for j in range(d))
    )


class TestHermitianOperator:
    def test_accepts_real_symmetric(self):
        op = HermitianOperator([[1.0, 0.5], [0.5, -2.0]])
        assert op.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            HermitianOperator(np.ones((2, 3)))

    def test_entries_are_immutable(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError):
            HermitianOperator([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            DensityOperator.from_matrix([[1.0, bad], [bad, 0.0]])


class TestDensityOperator:
    def test_trace_must_be_one(self):
        with pytest.raises(DomainError):
            DensityOperator.from_matrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]))

    def test_small_negative_eigenvalue_clipped(self):
        rho = DensityOperator.from_matrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.eigenvalues[-1] == 0.0

    def test_noise_eigenvalue_snapped_to_zero(self):
        # rank-1 states carry O(1e-16) spectral noise which q < 1 powers
        # would amplify; the cache must report exact zeros instead
        rho = random_density(5, 1, seed=3)
        assert np.sum(rho.eigenvalues > 0) == 1
        assert rho.power_sum(0.3) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_descending_and_consistent(self):
        rho = random_density(4, 4, seed=11)
        vals = rho.eigenvalues
        assert np.all(np.diff(vals) <= 0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-10)


class TestProbabilityDistribution:
    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ProbabilityDistribution([1.1, -0.1])

    def test_off_sum_rejected_not_renormalized(self):
        with pytest.raises(DomainError):
            ProbabilityDistribution([0.5, 0.4])

    def test_decimal_rounding_tolerated(self):
        p = ProbabilityDistribution([0.1, 0.2, 0.3, 0.4])
        assert p.size == 4

    @pytest.mark.parametrize(
        "probs", [[np.nan, 1.0], [np.nan, 0.5, 0.5], [np.inf, 1.0], [np.inf, 0.0]]
    )
    def test_non_finite_rejected(self, probs):
        with pytest.raises(DomainError):
            ProbabilityDistribution(probs)


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(3, 3, seed=1)
        assert trace_distance(rho, rho) == 0.0

    def test_perturbed_pure_state(self):
        rho = diagonal_density([1.0, 0.0, 0.0, 0.0])
        omega = diagonal_density([0.9] + [0.1 / 3] * 3)
        assert trace_distance(rho, omega) == pytest.approx(0.1)

    def test_perturbed_flat_state(self):
        rho = diagonal_density([0.0] + [0.25] * 4)
        omega = diagonal_density([0.2] * 5)
        assert trace_distance(rho, omega) == pytest.approx(0.2)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            trace_distance(maximally_mixed(2), maximally_mixed(3))

    @staticmethod
    def orthogonal_pair(d: int, seed: int) -> tuple:
        """The pure states of the first two columns of a Haar unitary."""
        u = random_unitary(d, seed)
        return tuple(DensityOperator.from_matrix(np.outer(u[:, j], u[:, j].conj())) for j in (0, 1))

    @pytest.mark.parametrize("d,seed", [(2, 4), (3, 7), (5, 2), (8, 0)])
    def test_orthogonal_states_sit_at_distance_one(self, d, seed):
        # the rounded eigenvalues of their difference sum to 1 + 2**-52
        # or more; the distance was read above 1, where BoundSpec refuses it
        eps = trace_distance(*self.orthogonal_pair(d, seed))
        assert eps == 1.0
        assert unified_fannes_bound(BoundSpec(2.0, 1.0, d, eps)) >= 0.0

    def test_never_above_one(self):
        assert all(
            0.0 <= trace_distance(*self.orthogonal_pair(d, seed)) <= 1.0
            for d in range(2, 9)
            for seed in range(40)
        )


class TestTracePower:
    """tr(rho^q), the power sum ``DensityOperator.power_sum`` of the spectrum."""

    @pytest.mark.parametrize("q", [0.4, 1.0, 2.0, 3.7])
    def test_pure_state(self, q):
        rho = diagonal_density([1.0, 0.0])
        assert rho.power_sum(q) == pytest.approx(1.0)

    @pytest.mark.parametrize("d,q", [(2, 0.5), (4, 2.0), (5, 3.0)])
    def test_maximally_mixed(self, d, q):
        assert maximally_mixed(d).power_sum(q) == pytest.approx(float(d) ** (1 - q))

    def test_perturbed_pure_value(self):
        omega = diagonal_density([0.9] + [0.1 / 3] * 3)
        assert omega.power_sum(2.0) == pytest.approx(0.81 + 0.01 / 3, abs=1e-12)

    def test_unit_power_is_trace(self):
        rho = random_density(6, 4, seed=9)
        assert rho.power_sum(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(InvalidIndex):
            maximally_mixed(2).power_sum(0.0)

    def test_rejects_nan_q_without_memoizing_it(self):
        rho = maximally_mixed(2)
        for q in (np.nan, float("nan")):
            with pytest.raises(InvalidIndex):
                rho.power_sum(q)
        assert rho._power_sums == {}

    def test_rejects_infinite_q(self):
        # every x^inf of a mixed spectrum is 0, and the sum read 0.0
        rho = maximally_mixed(2)
        with pytest.raises(InvalidIndex, match="q positive and finite, got inf"):
            rho.power_sum(np.inf)
        assert rho._power_sums == {}

    @pytest.mark.parametrize("holder", [maximally_mixed(2), ProbabilityDistribution([0.5, 0.5])])
    def test_rejects_an_int_q_without_a_float_value(self, holder):
        # numpy raised a bare OverflowError converting the int
        with pytest.raises(InvalidIndex, match="q positive and finite, got 1000"):
            holder.power_sum(10**400)
        assert holder._power_sums == {}

    @pytest.mark.parametrize(
        "holder",
        [maximally_mixed(2), ProbabilityDistribution([0.5, 0.5]), linops._spectrum(linops._frozen(np.array([0.5, 0.5])))],
    )
    @pytest.mark.parametrize(
        "q,shown", [([1], "[1]"), (np.array([2.0]), "array([2.])"), (np.array(2.0), "array(2.)"), ({}, "{}")]
    )
    def test_rejects_an_unhashable_q(self, holder, q, shown):
        # the memo's lookup raised a bare TypeError: unhashable type
        with pytest.raises(InvalidIndex, match=rf"q positive and finite, got {re.escape(shown)}$"):
            holder.power_sum(q)
        assert holder._power_sums == {}


def bits(x: float) -> str:
    return float(x).hex()


class TestPowerSumMemo:
    """Memoized power sums must be bit-equal to the direct expression."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 6),
        st.lists(st.floats(0.01, 8.0), min_size=1, max_size=12),
    )
    def test_bit_equal_to_direct_sum(self, seed, d, qs):
        rho = random_density(d, int(np.random.default_rng(seed).integers(1, d + 1)), seed)
        dist = ProbabilityDistribution(np.random.default_rng(seed).dirichlet(np.ones(d)))
        for q in qs + qs:  # first and repeated calls
            assert bits(rho.power_sum(q)) == bits(np.sum(rho.eigenvalues**q))
            assert bits(dist.power_sum(q)) == bits(np.sum(dist.probs**q))

    def test_not_shared_between_instances(self):
        a = random_density(3, 3, seed=1)
        b = DensityOperator.from_matrix(a.mat)
        p = ProbabilityDistribution([0.5, 0.5])
        r = ProbabilityDistribution([0.5, 0.5])
        a.power_sum(2.0)
        p.power_sum(2.0)
        a.shannon()
        assert a._power_sums == {2.0: a.power_sum(2.0)}
        assert b._power_sums == {} and b._shannon is None
        assert r._power_sums == {}
        assert len({id(x._power_sums) for x in (a, b, p, r)}) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=64).filter(any),
        st.lists(
            st.one_of(st.floats(0.0, 10.0, exclude_min=True), st.sampled_from([0.5, 2.0, 3.0])),
            min_size=1,
            max_size=12,
        ),
    )
    def test_memoized_sum_is_the_direct_sum(self, weights, qs):
        # past 8 entries np.add.reduce sums pairwise, and 0.5, 2.0 and 3.0
        # take numpy's fast paths of **; the drawn q come first, then more
        # distinct q than the memo keeps, then all of them again
        values = np.array(weights) / sum(weights)
        holders = [linops._spectrum(linops._frozen(values.copy()))]
        if abs(values.sum() - 1.0) <= TOL.trace:
            holders.append(ProbabilityDistribution(values))
        many = np.linspace(0.05, 10.0, POWER_SUM_MEMO_CAP + 8).tolist()
        for holder in holders:
            for q in qs + many + qs + many:
                assert bits(holder.power_sum(q)) == bits(float(np.sum(holder._values**q)))
            assert len(holder._power_sums) == POWER_SUM_MEMO_CAP

    def test_bounded_under_many_distinct_q(self):
        rho = random_density(4, 3, seed=5)
        qs = np.linspace(0.05, 6.0, 10_000)
        for q in qs:
            assert bits(rho.power_sum(q)) == bits(np.sum(rho.eigenvalues**q))
        assert len(rho._power_sums) <= POWER_SUM_MEMO_CAP
        for q in (qs[0], qs[-1], 2.0):  # memoized and unmemoized q alike
            assert bits(rho.power_sum(q)) == bits(np.sum(rho.eigenvalues**q))
        assert len(rho._power_sums) <= POWER_SUM_MEMO_CAP


class TestComposite:
    def test_tensor_of_mixed_states(self):
        prod = tensor(maximally_mixed(2), maximally_mixed(3))
        assert np.allclose(prod.mat, np.eye(6) / 6)

    def test_tensor_spectrum_is_outer_product(self):
        a = random_density(2, 2, seed=2)
        b = random_density(3, 3, seed=3)
        prod = tensor(a, b)
        expect = np.sort(np.outer(a.eigenvalues, b.eigenvalues).ravel())[::-1]
        assert prod.eigenvalues == pytest.approx(expect, abs=1e-12)

    def test_partial_trace_recovers_factors(self):
        a = random_density(3, 2, seed=4)
        b = random_density(2, 2, seed=5)
        prod = tensor(a, b).mat
        assert np.abs(partial_trace(prod, 3, 2, "A") - a.mat).max() < 1e-12
        assert np.abs(partial_trace(prod, 3, 2, "B") - b.mat).max() < 1e-12

    def test_partial_trace_of_maximally_entangled(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        assert np.allclose(partial_trace(np.outer(psi, psi), 2, 2, "A"), np.eye(2) / 2)

    def test_partial_trace_keep_validation(self):
        with pytest.raises(DomainError):
            partial_trace(maximally_mixed(4).mat, 2, 2, "C")

    def test_bipartite_dims_must_factor(self):
        with pytest.raises(DimMismatch):
            partial_trace(maximally_mixed(6).mat, 2, 2, "A")

    @pytest.mark.parametrize(
        "mat,dim_a,dim_b",
        [
            (np.full((2, 3), 1.0 / 6.0), 2, 3),  # not square
            (np.full((3, 2), 1.0 / 6.0), 3, 2),
            (np.eye(6) / 6, 2, 2),  # 2 x 2 does not make 6
            (np.eye(6) / 6, 3, 3),
            (np.eye(4) / 4, 0, 4),  # non-positive factor
            (np.eye(4) / 4, -2, -2),
            (np.ones(4) / 4, 2, 2),  # not a matrix
        ],
    )
    def test_partial_trace_shape_errors(self, mat, dim_a, dim_b):
        for keep in ("A", "B"):
            with pytest.raises(DimMismatch):
                partial_trace(mat, dim_a, dim_b, keep)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_purify_round_trip(self, seed):
        rho = random_density(3, 2, seed=seed)
        psi = purify(rho)
        reduced = partial_trace(np.outer(psi, psi.conj()), 3, 3, "A")
        assert np.abs(reduced - rho.mat).max() < 1e-10

    def test_purify_of_pure_state_is_product(self):
        rho = diagonal_density([1.0, 0.0])
        psi = purify(rho)
        assert np.abs(psi).max() == pytest.approx(1.0)
        assert np.vdot(psi, psi).real == pytest.approx(1.0)


class TestPinch:
    def test_basis_resolution_keeps_diagonal(self):
        rho = random_density(4, 4, seed=6)
        pinched = pinch(rho.mat, basis_resolution(4))
        assert np.allclose(pinched, np.diag(rho.mat.diagonal()))

    def test_identity_resolution_is_noop(self):
        rho = random_density(3, 3, seed=6)
        res = OrthogonalResolution((np.eye(3),))
        assert np.abs(pinch(rho.mat, res) - rho.mat).max() < 1e-14

    def test_preserves_trace_and_type(self):
        rho = random_density(5, 5, seed=10)
        pinched = pinch(rho.mat, random_resolution(5, seed=10))
        assert isinstance(pinched, np.ndarray) and pinched.shape == (5, 5)
        assert pinched.trace().real == pytest.approx(1.0, abs=1e-12)
        assert DensityOperator.from_matrix(pinched).dim == 5

    def test_idempotent(self):
        rho = random_density(4, 4, seed=12)
        res = random_resolution(4, seed=12)
        once = pinch(rho.mat, res)
        twice = pinch(once, res)
        assert np.abs(twice - once).max() < 1e-12

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0])
    def test_pinching_never_raises_schatten_norm(self, q):
        for seed in range(10):
            rho = random_density(4, 4, seed=seed)
            pinched = DensityOperator.from_matrix(pinch(rho.mat, random_resolution(4, seed=seed)))
            # the Schatten q-norm (tr rho^q)^(1/q)
            assert pinched.power_sum(q) ** (1 / q) <= rho.power_sum(q) ** (1 / q) + 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            pinch(maximally_mixed(3).mat, basis_resolution(2))

    @pytest.mark.parametrize(
        "mat",
        [
            np.eye(3) / 3,  # resolution is on C^2
            np.full((2, 3), 1.0 / 3.0),  # not square
            np.full((3, 2), 1.0 / 3.0),
            np.ones(2) / 2,  # not a matrix
        ],
    )
    def test_shape_errors(self, mat):
        with pytest.raises(DimMismatch):
            pinch(mat, basis_resolution(2))

    @pytest.mark.parametrize(
        "mat", [np.eye(2) / 2, np.diag([1, 0]), np.array([[0.5, 0.25], [0.25, 0.5]])]
    )
    def test_real_and_integer_matrices_are_pinched_as_complex(self, mat):
        # numpy refused to add the complex products into a real output
        res = random_resolution(2, 0)
        pinched = pinch(mat, res)
        assert pinched.dtype == np.complex128
        assert bit_equal(pinched, pinch(mat.astype(np.complex128), res))


class TestStackedComposite:
    """Each stacked composite core gives, item by item, bit for bit the
    one-item public call and the per-matrix formula, on stacks of one
    item and of several, for every pair shape the suites draw and (2, 8)."""

    PAIRS = ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 8), (8, 2))
    SIZES = (1, 5)

    @staticmethod
    def matrices(d: int, n: int, seed: int) -> np.ndarray:
        """n random density matrices of dimension d and random ranks."""
        rng = np.random.default_rng(seed)
        return np.array([
            random_density_matrix(d, int(rng.integers(1, d + 1)), int(rng.integers(2**32)))
            for _ in range(n)
        ])

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("da,db", PAIRS)
    def test_partial_traces(self, da, db, n):
        mats = self.matrices(da * db, n, 10 * da + db)
        for keep, formula in (("A", "abcb->ac"), ("B", "abac->bc")):
            stacked = linops._partial_traces(mats, da, db, keep)
            assert stacked.shape == (n,) + ((da, da) if keep == "A" else (db, db))
            for mat, item in zip(mats, stacked):
                assert bit_equal(item, partial_trace(mat, da, db, keep))
                assert bit_equal(item, np.einsum(formula, mat.reshape(da, db, da, db)))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("da,db", PAIRS)
    def test_tensors(self, da, db, n):
        a, b = self.matrices(da, n, da), self.matrices(db, n, 100 + db)
        stacked = linops._tensors(a, b)
        assert stacked.shape == (n, da * db, da * db)
        for x, y, item in zip(a, b, stacked):
            assert bit_equal(item, np.kron(x, y))
            assert bit_equal(item, tensor(DensityOperator(x), DensityOperator(y)).mat)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", [1, 2, 4, 9, 16])
    def test_purifications(self, d, n):
        rhos = density_operators(self.matrices(d, n, d))
        vals = np.array([rho.eigenvalues for rho in rhos])
        vecs = np.array([rho.eigenvectors for rho in rhos])
        stacked = linops._purifications(vals, vecs)
        assert stacked.shape == (n, d * d)
        for rho, item in zip(rhos, stacked):
            assert bit_equal(item, purify(rho))
            assert bit_equal(item, (rho.eigenvectors * np.sqrt(rho.eigenvalues)).reshape(-1))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d,blocks", [(2, 2), (3, 2), (4, 3), (6, 6), (64, 64), (64, 5)])
    def test_pinches(self, d, blocks, n):
        rng = np.random.default_rng(d + blocks)
        mats = self.matrices(d, n, d)
        resolutions = []
        for _ in range(n):
            # a random composition of d into the given number of blocks
            cuts = np.sort(rng.choice(np.arange(1, d), blocks - 1, replace=False))
            ranks = np.diff(np.concatenate(([0], cuts, [d]))).tolist()
            resolutions.append(random_resolution(d, int(rng.integers(2**32)), ranks))
        projectors = [np.array([r.projectors[j].entries for r in resolutions]) for j in range(blocks)]
        stacked = linops._pinches(mats, projectors)
        for mat, res, item in zip(mats, resolutions, stacked):
            assert bit_equal(item, pinch(mat, res))
            loop = np.zeros_like(mat)
            for proj in res.projectors:
                loop += proj.entries @ mat @ proj.entries
            assert bit_equal(item, loop)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 81])
    def test_trace_distances(self, d, n):
        a, b = self.matrices(d, n, d), self.matrices(d, n, 1000 + d)
        stacked = linops._trace_distances(a, b)
        assert stacked.shape == (n,)
        for x, y, item in zip(a, b, stacked.tolist()):
            assert item == trace_distance(DensityOperator(x), DensityOperator(y))
            assert item == min(float(0.5 * np.abs(np.linalg.eigvalsh(x - y)).sum()), 1.0)


class TestResolutionValidation:
    def test_non_idempotent_rejected(self):
        with pytest.raises(DomainError):
            OrthogonalResolution((np.eye(2) * 0.5, np.eye(2) * 0.5))

    def test_incomplete_rejected(self):
        eye = np.eye(3)
        projs = (np.outer(eye[:, 0], eye[:, 0]), np.outer(eye[:, 1], eye[:, 1]))
        with pytest.raises(IncompleteMeasurement):
            OrthogonalResolution(projs)

    def test_overlapping_rejected(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(DomainError):
            OrthogonalResolution((p, np.eye(2) - p, p))


class TestGeneralizedMeasurement:
    def test_completeness_enforced(self):
        with pytest.raises(IncompleteMeasurement):
            GeneralizedMeasurement((np.eye(2) * 0.5,))

    def test_identity_channel(self):
        rho = random_density(2, 2, seed=13)
        meas = GeneralizedMeasurement((np.eye(2),))
        assert np.abs(apply_generalized(rho, meas).mat - rho.mat).max() < 1e-14

    def test_qubit_collapse_example(self):
        rho = diagonal_density([0.5, 0.5])
        meas = GeneralizedMeasurement((((1, 0), (0, 0)), ((0, 1), (0, 0))))
        out = apply_generalized(rho, meas)
        assert np.allclose(out.mat, np.diag([1.0, 0.0]))

    def test_projective_case_agrees_with_pinch(self):
        rho = random_density(3, 3, seed=14)
        eye = np.eye(3)
        projs = tuple(np.outer(eye[:, j], eye[:, j]) for j in range(3))
        meas = GeneralizedMeasurement(projs)
        res = OrthogonalResolution(projs)
        assert np.abs(apply_generalized(rho, meas).mat - pinch(rho.mat, res)).max() < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            apply_generalized(maximally_mixed(3), GeneralizedMeasurement((np.eye(2),)))

    def test_nan_entry_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            GeneralizedMeasurement(([[np.nan, 0], [0, 1]],))


GOOD_MATRICES = (
    random_density_matrix(2, 1, 1),
    random_density_matrix(3, 2, 2),
    random_density_matrix(2, 2, 3),
    random_density_matrix(4, 3, 4),
)

BAD_MATRICES = {
    "nan": np.array([[np.nan, 0.0], [0.0, 0.5]]),
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "trace-off": np.diag([0.5, 0.5 + 2e-10]),
    "negative": np.diag([1.0 + 2e-10, -2e-10]),
    "non-square": np.full((2, 3), 1.0 / 3.0),
}


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def member_formulas(rho: DensityOperator, m: int, seed) -> tuple:
    """(weights, members) of ``ensemble_from_state(rho, m, seed)`` from the
    first r = rank(rho) columns u of the full unitary ``random_unitary(m,
    seed)``: one einsum and one ``row / sqrt(w)`` per kept member."""
    r = int(np.sum(rho.eigenvalues > TOL.rank))
    u = random_unitary(m, seed)[:, :r]
    raw = (u * np.sqrt(rho.eigenvalues[:r])) @ rho.eigenvectors[:, :r].T
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    kept = weights >= TOL.ensemble_weight
    return weights[kept], raw[kept] / np.sqrt(weights[kept])[:, None]


class TestStackedConstruction:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1), st.integers(1, 9), st.floats(0.0, 1.0)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_bit_equal_to_one_by_one(self, specs):
        mats = [
            random_density_matrix(d, 1 + int(frac * (d - 1)), seed)
            for seed, d, frac in specs
        ]
        stacked = density_operators(mats)
        assert len(stacked) == len(mats)
        for mat, state in zip(mats, stacked):
            alone = DensityOperator.from_matrix(mat)
            assert bit_equal(state.mat, alone.mat)
            assert bit_equal(state.eigenvalues, alone.eigenvalues)
            assert bit_equal(state.eigenvectors, alone.eigenvectors)
            for q in (0.3, 0.5, 2.0, 3.0):
                assert state.power_sum(q) == alone.power_sum(q)
            assert state.shannon() == alone.shannon()

    def test_input_order_kept(self):
        states = density_operators(GOOD_MATRICES)
        assert [s.dim for s in states] == [2, 3, 2, 4]
        for mat, state in zip(GOOD_MATRICES, states):
            assert bit_equal(state.mat, mat)

    def test_empty(self):
        assert density_operators([]) == []

    def test_states_are_read_only(self):
        state = density_operators(GOOD_MATRICES)[2]
        for arr in (state.mat, state.eigenvalues, state.eigenvectors):
            assert not arr.flags.writeable

    def test_caller_matrix_not_aliased(self):
        mat = random_density_matrix(3, 3, 5)
        state = density_operators([mat])[0]
        mat[0, 0] = 7.0
        assert state.mat[0, 0] != 7.0

    @pytest.mark.parametrize("kind", sorted(BAD_MATRICES))
    @pytest.mark.parametrize("pos", range(len(GOOD_MATRICES) + 1))
    def test_bad_matrix_raises_as_alone(self, kind, pos):
        bad = BAD_MATRICES[kind]
        with pytest.raises(Exception) as alone:
            DensityOperator.from_matrix(bad)
        expected = type(alone.value)
        assert issubclass(expected, (DomainError, NonHermitian, NotPositive))
        mats = list(GOOD_MATRICES)
        mats.insert(pos, bad)
        with pytest.raises(expected) as stacked:
            density_operators(mats)
        assert type(stacked.value) is expected


class TestMatrixLevelHelpers:
    def test_random_density_reuses_matrix(self):
        state = random_density(4, 2, seed=21)
        assert bit_equal(state.mat, random_density_matrix(4, 2, 21))

    def test_pinch_matrix_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            pinch(np.eye(2) / 2, basis_resolution(3))


class TestRandomSampling:
    def test_random_density_is_deterministic(self):
        a = random_density(4, 2, seed=21)
        b = random_density(4, 2, seed=21)
        assert np.array_equal(a.mat, b.mat)

    def test_random_density_rank(self):
        rho = random_density(5, 2, seed=22)
        assert np.sum(rho.eigenvalues > 1e-12) == 2

    def test_random_density_rank_validation(self):
        with pytest.raises(InvalidIndex):
            random_density(3, 4, seed=0)
        with pytest.raises(InvalidIndex):
            random_density(3, 0, seed=0)

    def test_random_unitary_is_unitary(self):
        u = random_unitary(6, seed=23)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-12

    def test_random_unitary_deterministic(self):
        assert np.array_equal(
            random_unitary(3, seed=24), random_unitary(3, seed=24)
        )

    def test_random_resolution_completeness(self):
        res = random_resolution(5, seed=25)
        total = sum(p.entries for p in res.projectors)
        assert np.abs(total - np.eye(5)).max() < 1e-10
        assert res.size >= 2

    def test_random_resolution_explicit_ranks(self):
        res = random_resolution(4, seed=26, ranks=(1, 3))
        assert [int(round(p.entries.trace().real)) for p in res.projectors] == [1, 3]

    def test_random_resolution_bad_ranks(self):
        with pytest.raises(DomainError):
            random_resolution(4, seed=0, ranks=(1, 2))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_random_resolution_passes_the_public_checks(self, d):
        for seed in range(5):
            ranks = (1,) * d if seed == 0 or d == 1 else None
            res = random_resolution(d, seed=seed, ranks=ranks)
            again = OrthogonalResolution(tuple(np.array(p.entries) for p in res.projectors))
            assert again.size == res.size
            assert all(not p.entries.flags.writeable for p in res.projectors)

    @pytest.mark.parametrize(
        "broken",
        [
            lambda u: 2.0 * u,
            lambda u: u + 1e-9,
            lambda u: np.where(np.eye(len(u), dtype=bool), np.nan, u),
        ],
    )
    def test_random_resolution_rejects_a_non_unitary_draw(self, monkeypatch, broken):
        unitaries = linops._unitaries
        monkeypatch.setattr(linops, "_unitaries", lambda draws: [broken(u) for u in unitaries(draws)])
        with pytest.raises(DomainError, match="not unitary"):
            random_resolution(4, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10_000), st.floats(0.5, 1.0))
    def test_unitary_check_bounds_the_projector_defects(self, d, seed, fraction):
        # a draw just inside |U^H U - I|_max <= TOL.orthonormal / (2d) still
        # yields projectors that the public constructor accepts
        rng = np.random.default_rng(seed)
        u = random_unitary(d, rng)
        e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        def defect(scale):
            v = u + scale * e
            return np.abs(v.conj().T @ v - np.eye(d)).max()

        # the largest perturbation on a 1.05 grid within the fraction of the bound
        scale = 1.0
        while defect(scale) > fraction * TOL.orthonormal / (2 * d):
            scale /= 1.05
        near = u + scale * e
        with mock.patch.object(linops, "_unitaries", lambda draws: [near]):
            res = random_resolution(d, seed=rng, ranks=(d,) if d == 1 else None)
        # the products random_resolution skips
        OrthogonalResolution(res.projectors)

    @pytest.mark.parametrize("kind", ["missing", "directory", "bytes"])
    def test_unreadable_matrix_file_is_a_domain_error(self, tmp_path, kind):
        path = {"missing": tmp_path / "none.json", "directory": tmp_path}.get(kind, tmp_path / "b.json")
        if kind == "bytes":
            path.write_bytes(b"\xff\xfe{")
        with pytest.raises(DomainError, match="cannot read matrix file"):
            read_matrix(path)


class TestIntegerSizes:
    """Dimensions, ranks and ensemble sizes follow ``run_check``'s integer
    rule: a whole float is its int, anything else a ``DomainError``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: maximally_mixed(2.5),
            lambda: random_density(2.5, 1, 0),
            lambda: random_density_matrix(3, 1.5, 0),
            lambda: random_unitary(2.5, 0),
            lambda: random_resolution(2.5, 0),
            lambda: ensemble_from_state(maximally_mixed(2), 2.5, 0),
            lambda: partial_trace(np.eye(4) / 4, 2.5, 2, "A"),
            lambda: partial_trace(np.eye(4) / 4, 2, float("nan"), "B"),
            # built a 1 x 1 state
            lambda: maximally_mixed(True),
        ],
    )
    def test_fractional_size_is_a_domain_error(self, call):
        # each ended in a bare TypeError or ValueError
        with pytest.raises(DomainError, match="must be an integer, got"):
            call()

    def test_fractional_block_ranks_are_not_truncated(self):
        # int() made these "block ranks [1, 1]"
        with pytest.raises(DomainError, match="block rank must be an integer, got 1.5"):
            random_resolution(3, 0, ranks=(1.5, 1.5))

    def test_whole_floats_are_integers(self):
        assert bit_equal(maximally_mixed(3.0).mat, maximally_mixed(3).mat)
        assert bit_equal(random_density_matrix(4.0, 2.0, 7), random_density_matrix(4, 2, 7))
        assert bit_equal(random_unitary(3.0, 7), random_unitary(3, 7))
        whole = random_resolution(4.0, 7, ranks=(1.0, 3.0))
        plain = random_resolution(4, 7, ranks=(1, 3))
        assert all(bit_equal(a.entries, b.entries) for a, b in zip(whole.projectors, plain.projectors))
        rho = random_density(3, 3, seed=7)
        assert bit_equal(ensemble_from_state(rho, 5.0, 7).weights.probs,
                         ensemble_from_state(rho, 5, 7).weights.probs)
        mat = random_density_matrix(6, 6, 7)
        assert bit_equal(partial_trace(mat, 2.0, np.int64(3), "A"), partial_trace(mat, 2, 3, "A"))


ABOVE_CAP = linops.MAX_MATRIX_DIM + 1


class TestDimensionRule:
    """``linops._dimension`` is the one rule for a system dimension: an
    integer (a whole float is its int) with an exact float value, at least
    the entry's least dimension.  Every entry point refuses the rest with a
    ``DomainError``; the linops rows used to end in numpy's bare
    ``ValueError`` at the huge values."""

    ENTRIES = [
        (1, lambda d: maximally_mixed(d)),
        (1, lambda d: random_density(d, 1, 0)),
        (1, lambda d: random_unitary(d, 0)),
        (2, lambda d: random_resolution(d, 0)),  # drawn block ranks need two levels
        (2, lambda d: BoundSpec(2.0, 1.0, d, 0.1)),
        (2, lambda d: kappa_s(2.0, -1.0, d)),
        (1, lambda d: max_unified(2.0, 1.0, d)),
        (2, lambda d: StabilityExample("example0", 0.1, d, 2.0, 1.0)),
    ]

    @pytest.mark.parametrize("least,call", ENTRIES)
    @pytest.mark.parametrize(
        "bad",
        ["below least", 4.7, float("nan"), float("inf"), 2**53 + 1, 10**400],
        ids=["below-least", "4.7", "nan", "inf", "2**53+1", "10**400"],
    )
    def test_every_entry_refuses_a_bad_dimension(self, least, call, bad):
        with pytest.raises(DomainError, match="dimension"):
            call(least - 1 if bad == "below least" else bad)

    @pytest.mark.parametrize("least,call", ENTRIES)
    def test_every_entry_accepts_its_least_dimension(self, least, call):
        call(least)
        call(float(least))

    def test_messages(self):
        with pytest.raises(DomainError, match="dimension must be at least 2, got 1"):
            linops._dimension(1, 2)
        with pytest.raises(DomainError, match="dimension must be an integer, got 4.7"):
            linops._dimension(4.7)
        with pytest.raises(DomainError, match="integer with an exact float value, got 9007199254740993"):
            linops._dimension(2**53 + 1)

    def test_exact_large_values_pass_as_ints(self):
        for d in (2**53, 2**60, 2.0**60, 10**17, np.int64(4)):
            out = linops._dimension(d, 2)
            assert type(out) is int and out == d

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: linops._dimension(10**5000), DomainError),
            (lambda: linops._dimension(-(10**5000)), DomainError),
            (lambda: max_unified(2.0, 1.0, 10**5000), DomainError),
            (lambda: kappa_s(2.0, 1.0, 10**5000), DomainError),
            (lambda: BoundSpec(2.0, 1.0, 10**5000, 0.1), DomainError),
            (lambda: StabilityExample("example0", 0.1, 10**5000, 2.0, 1.0), DomainError),
            (lambda: random_resolution(2, 0, ranks=[10**5000]), DomainError),
            (lambda: partial_trace(np.eye(2) / 2, 10**5000, 1, "A"), DimMismatch),
            # the error of any rank above d, as rank 4 at d = 3
            (lambda: random_density_matrix(2, 10**5000, 0), InvalidIndex),
        ],
    )
    def test_giant_ints_are_package_errors(self, call, error):
        # each ended in a bare ValueError: Python refuses to print an int
        # of more than 4300 digits, and the messages printed it
        with pytest.raises(error, match="too long to print"):
            call()

    def test_printable_values_print_as_before(self):
        assert linops._shown(10**400) == repr(10**400)
        assert linops._shown([1, 2]) == "[1, 2]"
        assert linops._shown(4.7) == "4.7"

    @pytest.mark.parametrize("d", [1, 65, 2**60])
    def test_drawn_block_ranks_need_at_most_64_levels(self, d):
        # the cut positions are the bits of one int64 draw below 2^(d-1):
        # d = 65 overflowed it, and a huge d built 2^(d-1) without bound
        with pytest.raises(DomainError, match=r"random block ranks need a dimension in \[2, 64\]"):
            random_resolution(d, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: maximally_mixed(ABOVE_CAP),
            lambda: maximally_mixed(2**60),
            lambda: random_density(ABOVE_CAP, 1, 0),
            lambda: random_density(2**53, 1, 0),
            lambda: random_unitary(ABOVE_CAP, 0),
            lambda: random_resolution(ABOVE_CAP, 0, ranks=[ABOVE_CAP]),
            lambda: ensemble_from_state(maximally_mixed(2), ABOVE_CAP, 0),
            lambda: diagonal_density(np.full(ABOVE_CAP, 1.0 / ABOVE_CAP)),
            lambda: tensor(maximally_mixed(65), maximally_mixed(64)),
        ],
        ids=[
            "maximally_mixed", "maximally_mixed-2**60", "random_density", "random_density-2**53",
            "random_unitary", "random_resolution", "ensemble_from_state", "diagonal_density", "tensor",
        ],
    )
    def test_a_matrix_above_the_cap_is_refused_before_it_is_built(self, call):
        # these ended in numpy's ValueError or MemoryError, or allocated
        # gigabytes first; the refusal comes before any d x d allocation
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"matrix dimension must be at most {linops.MAX_MATRIX_DIM}"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_widest_drawn_block_ranks(self):
        res = random_resolution(64, 0)
        assert res.dim == 64 and 2 <= res.size <= 64
        assert random_resolution(65, 0, ranks=(1,) * 65).size == 65


class TestEnsembleFromState:
    def test_weights_match_unistochastic_mixture(self):
        # independent oracle: p_i = sum_j |u_ij|^2 lambda_j
        rho = random_density(4, 3, seed=31)
        r = int(np.sum(rho.eigenvalues > 1e-12))
        m = 6
        # the ensemble is built from the first r columns of this unitary
        u = random_unitary(m, seed=32)[:, :r]
        ens = ensemble_from_state(rho, m, seed=32)
        expect = (np.abs(u) ** 2) @ rho.eigenvalues[:r]
        assert ens.weights.probs == pytest.approx(expect, abs=1e-12)

    def test_power_sum_ordering_against_spectrum(self):
        # the mixed ensemble's weights are majorized by the spectrum, so
        # power sums order oppositely on the two sides of q = 1
        rho = random_density(4, 4, seed=33)
        ens = ensemble_from_state(rho, 7, seed=34)
        p = ens.weights.probs
        lam = rho.eigenvalues
        assert np.sum(p**2.5) <= np.sum(lam**2.5) + 1e-12
        assert np.sum(p**0.5) >= np.sum(lam**0.5) - 1e-12

    @pytest.mark.parametrize("m", [4, 8])
    def test_average_reproduces_state(self, m):
        rho = random_density(4, 4, seed=35)
        ens = ensemble_from_state(rho, m, seed=36)
        assert np.abs(ens.average().mat - rho.mat).max() < 1e-10

    def test_pure_state_gives_single_ray(self):
        rho = diagonal_density([1.0, 0.0, 0.0])
        ens = ensemble_from_state(rho, 5, seed=37)
        for psi in ens.states:
            assert abs(psi[0]) == pytest.approx(1.0, abs=1e-10)

    def test_size_below_rank_rejected(self):
        rho = maximally_mixed(3)
        with pytest.raises(InvalidIndex):
            ensemble_from_state(rho, 2, seed=0)

    def test_ensemble_validation(self):
        with pytest.raises(DomainError):
            PureStateEnsemble(
                ProbabilityDistribution([0.5, 0.5]),
                (np.array([1.0, 0.0]), np.array([2.0, 0.0])),
            )

    @pytest.mark.parametrize(
        "d,rank,m,seed",
        [(2, 1, 1, 0), (3, 2, 8, 1), (5, 5, 8, 2), (16, 9, 16, 3), (32, 32, 40, 4), (64, 64, 64, 5)],
    )
    def test_members_equal_per_member_formulas(self, d, rank, m, seed):
        """Weights and members are bit for bit one einsum and one
        ``row / sqrt(w)`` per member, as seeded reports need."""
        rho = random_density(d, rank, seed=seed)
        weights, members = member_formulas(rho, m, seed + 50)
        ens = ensemble_from_state(rho, m, seed=seed + 50)
        assert bit_equal(ens.weights.probs, weights)
        assert bit_equal(np.array(ens.states), members)

    def test_past_the_bit_for_bit_range(self):
        """At m = 200 the thin QR of the first r = 50 columns sums in another
        order than the full one: the members move by rounding only."""
        rho = random_density(100, 50, seed=5)
        weights, members = member_formulas(rho, 200, 6)
        ens = ensemble_from_state(rho, 200, seed=6)
        assert np.abs(ens.weights.probs - weights).max() <= 1e-14
        assert np.abs(np.array(ens.states) - members).max() <= 1e-14

    def test_largest_ensemble_reproduces_state(self):
        rho = random_density(64, 64, seed=38)
        ens = ensemble_from_state(rho, 64, seed=39)
        assert ens.size == 64
        assert np.abs(ens.average().mat - rho.mat).max() <= TOL.reconstruction

    def test_no_eigensolve(self):
        rho = random_density(64, 64, seed=38)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            ensemble_from_state(rho, 64, seed=39)
        assert eigh.call_count == 0

    def test_average_is_built_once_as_from_matrix(self):
        rho = random_density(64, 64, seed=38)
        ens = ensemble_from_state(rho, 64, seed=39)
        avg = ens.average()
        assert ens.average() is avg
        v = np.array(ens.states)
        direct = DensityOperator.from_matrix((v.T * ens.weights.probs) @ v.conj())
        assert np.array_equal(avg.eigenvalues, direct.eigenvalues)
        assert np.array_equal(avg.eigenvectors, direct.eigenvectors)


class TestStackedSamplers:
    """Each stacked builder gives, item by item, bit for bit the one-item
    public sampler with the same seed, over mixed shapes and one-item
    groups; the public samplers give the per-matrix formulas."""

    @staticmethod
    def shapes(seed: int, n: int = 40) -> list:
        """(d, rank, m, seed) with d in [2, 6], a random rank and m in
        [rank, 8], then a d = 7 item alone in its groups."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            out.append((d, rank, int(rng.integers(rank, 9)), int(rng.integers(2**32))))
        return out + [(7, 4, 7, 99)]

    @pytest.mark.parametrize("seed", range(3))
    def test_density_matrices(self, seed):
        items = self.shapes(seed)
        stacked = linops._density_matrices([linops._ginibre_draw(d, r, s) for d, r, _, s in items])
        for (d, r, _, s), mat in zip(items, stacked):
            assert bit_equal(mat, random_density_matrix(d, r, s))
            rng = np.random.default_rng(s)
            g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            a = g @ g.conj().T
            assert bit_equal(mat, a / a.trace().real)

    @pytest.mark.parametrize("seed", range(3))
    def test_unitaries(self, seed):
        items = self.shapes(seed)
        stacked = linops._unitaries([linops._haar_draw(m, s) for _, _, m, s in items])
        for (_, _, m, s), u in zip(items, stacked):
            assert bit_equal(u, random_unitary(m, s))
            rng = np.random.default_rng(s)
            q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            assert bit_equal(u, q * (r.diagonal() / np.abs(r.diagonal())))

    @pytest.mark.parametrize("seed", range(3))
    def test_resolutions(self, seed):
        # drawn block ranks, and rank-1 blocks on every third item
        items = [(d, s, (1,) * d if k % 3 == 0 else None) for k, (d, _, _, s) in enumerate(self.shapes(seed))]
        stacked = linops._resolutions([linops._resolution_draw(*item) for item in items])
        for item, res in zip(items, stacked):
            alone = random_resolution(*item)
            assert res.size == alone.size
            assert all(bit_equal(a.entries, b.entries) for a, b in zip(res.projectors, alone.projectors))
            assert all(not p.entries.flags.writeable for p in res.projectors)

    @pytest.mark.parametrize("seed", range(3))
    def test_ensembles(self, seed):
        items = self.shapes(seed)
        rhos = [random_density(d, r, seed=s) for d, r, _, s in items]
        draws = [linops._ensemble_draw(rho, m, s + 1) for rho, (_, _, m, s) in zip(rhos, items)]
        for rho, (_, _, m, s), ens in zip(rhos, items, linops._ensembles(rhos, draws)):
            alone = ensemble_from_state(rho, m, s + 1)
            assert bit_equal(ens.weights.probs, alone.weights.probs)
            assert bit_equal(np.array(ens.states), np.array(alone.states))
            assert bit_equal(ens._average_matrix, alone._average_matrix)

    #: several ranks under m = 64, whose QR is thinned to w = 40 columns
    THIN = [(64, 1, 64, 1), (64, 13, 64, 2), (64, 40, 64, 3), (24, 9, 64, 5)]
    #: with these the widest rank at m = 64 and at m = 128 is m: full QRs
    FULL = [(64, 64, 64, 4), (128, 128, 128, 7)]

    @pytest.mark.parametrize("seed,wide", [(0, THIN), (1, THIN + FULL)])
    def test_ensembles_of_mixed_widths(self, seed, wide):
        items = self.shapes(seed, n=10) + wide
        rhos = [random_density(d, r, seed=s) for d, r, _, s in items]
        draws = [linops._ensemble_draw(rho, m, s + 1) for rho, (_, _, m, s) in zip(rhos, items)]
        for rho, (_, _, m, s), ens in zip(rhos, items, linops._ensembles(rhos, draws)):
            alone = ensemble_from_state(rho, m, s + 1)
            assert bit_equal(ens.weights.probs, alone.weights.probs)
            assert bit_equal(np.array(ens.states), np.array(alone.states))
            assert bit_equal(ens._average_matrix, alone._average_matrix)
            weights, members = member_formulas(rho, m, s + 1)
            assert bit_equal(ens.weights.probs, weights)
            assert bit_equal(np.array(ens.states), members)

    def test_one_qr_per_ensemble_size(self):
        # thinning must not split the unitaries' groups by rank
        items = self.shapes(0) + self.THIN + self.FULL
        rhos = [random_density(d, r, seed=s) for d, r, _, s in items]
        draws = [linops._ensemble_draw(rho, m, s + 1) for rho, (_, _, m, s) in zip(rhos, items)]
        assert len({(m, r) for (r, _), (_, _, m, _) in zip(draws, items)}) > len({m for *_, m, _ in items})
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            linops._ensembles(rhos, draws)
        assert qr.call_count == len({m for *_, m, _ in items})

    def test_empty_lists(self):
        assert linops._density_matrices([]) == []
        assert linops._resolutions([]) == []
        assert linops._ensembles([], []) == []


class TestPureStateEnsemble:
    HALF = ProbabilityDistribution([0.5, 0.5])

    def test_nan_member_fails_the_norm_check(self):
        with pytest.raises(DomainError, match="normalized"):
            PureStateEnsemble(self.HALF, ([1.0, 0.0], [np.nan, 0.0]))

    @pytest.mark.parametrize(
        "states,match",
        [
            (([1.0, 0.0], [0.0, 0.0, 1.0]), "share one dimension"),
            ((np.eye(2), np.eye(2)), "share one dimension"),
            (([1.0, 0.0], [[0.0, 1.0]]), "share one dimension"),
            ((1.0, 1.0), "share one dimension"),
            (([1.0, 0.0],), "one state vector per weight"),
            (([1.0, 0.0], [0.0, 1.0], [1.0, 0.0]), "one state vector per weight"),
        ],
    )
    def test_shape_errors_are_dim_mismatch(self, states, match):
        with pytest.raises(DimMismatch, match=match):
            PureStateEnsemble(self.HALF, states)

    def test_trace_of_the_average_is_checked_at_construction(self):
        # each weight sum and norm is within 1e-10, their product is not
        a = np.sqrt(1 + 0.9e-10)
        weights = ProbabilityDistribution([0.5, 0.5 + 0.9e-10])
        with pytest.raises(DomainError, match=r"trace is 1\.00000000018"):
            PureStateEnsemble(weights, ([a, 0.0], [0.0, a]))

    def test_members_are_read_only_copies(self):
        vecs = np.eye(2, dtype=complex)
        ens = PureStateEnsemble(self.HALF, vecs)
        assert isinstance(ens.states, tuple) and len(ens.states) == 2
        vecs[0, 0] = 0.0
        assert ens.states[0][0] == 1.0
        with pytest.raises(ValueError):
            ens.states[1][0] = 1.0
        assert ens.average().mat == pytest.approx(np.eye(2) / 2, abs=1e-15)


class TestUnconvertibleEntries:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: HermitianOperator([[10**400]]),
            lambda: DensityOperator.from_matrix([[10**400]]),
            lambda: density_operators([[[10**400]]]),
            lambda: GeneralizedMeasurement([[[10**400]]]),
            lambda: OrthogonalResolution([[[10**400]]]),
            lambda: ProbabilityDistribution([10**400, 0]),
            lambda: PureStateEnsemble([1.0], [[10**400]]),
            lambda: HermitianOperator([[1, 0], [0]]),
            lambda: density_operators([np.eye(2) / 2, [[1, 0], [0]]]),
            lambda: GeneralizedMeasurement([[[1, 0], [0]]]),
            lambda: ProbabilityDistribution([[0.5], [0.25, 0.25]]),
            lambda: ProbabilityDistribution(["a", "b"]),
        ],
        ids=[
            "hermitian-int-past-float-range",
            "density-int-past-float-range",
            "density-operators-int-past-float-range",
            "measurement-int-past-float-range",
            "resolution-int-past-float-range",
            "distribution-int-past-float-range",
            "ensemble-int-past-float-range",
            "hermitian-ragged",
            "density-operators-ragged",
            "measurement-ragged",
            "distribution-ragged",
            "distribution-non-numeric",
        ],
    )
    def test_is_a_domain_error(self, build):
        # numpy's OverflowError and ValueError used to escape bare
        with pytest.raises(DomainError, match="entries must form an array of numbers"):
            build()

    def test_no_copy_conversion_works_where_copy_none_is_refused(self, monkeypatch):
        # numpy 1.x, which the package supports, refuses np.array(copy=None)
        array = np.array

        def numpy1_array(obj, *args, copy=True, **kwargs):
            if copy is None:
                raise ValueError("NoneType copy mode not allowed.")
            return array(obj, *args, copy=copy, **kwargs)

        monkeypatch.setattr(np, "array", numpy1_array)
        rho = np.diag([0.75, 0.25]).astype(complex)
        (state,) = density_operators([rho])
        assert np.array_equal(state.mat, rho)

    def test_ragged_ensemble_members_stay_a_dimension_mismatch(self):
        with pytest.raises(DimMismatch, match="share one dimension"):
            PureStateEnsemble([0.5, 0.5], [[1.0], [1.0, 0.0]])

    def test_non_numeric_ensemble_member_is_a_domain_error(self):
        # numpy's ValueError for a string was read as ragged members
        with pytest.raises(DomainError, match="entries must form an array of numbers"):
            PureStateEnsemble([1.0], [["a"]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: partial_trace([[1, 0], [0, 0]], 1, 2, "A"),
            lambda: pinch([[1, 0], [0, 0]], random_resolution(2, 0)),
            lambda: trace_distance([[1]], [[1]]),
        ],
        ids=["partial_trace", "pinch", "trace_distance"],
    )
    def test_nested_list_operand_is_a_domain_error(self, call):
        # each read .shape or .dim of the list: a bare AttributeError
        with pytest.raises(DomainError, match="expected"):
            call()

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: purify(np.eye(2) / 2), "expected DensityOperator, got ndarray"),
            (lambda: tensor(np.eye(2) / 2, np.eye(2) / 2), "expected DensityOperator, got ndarray"),
            (lambda: apply_generalized(np.eye(2) / 2, None), "expected DensityOperator, got ndarray"),
            (
                lambda: apply_generalized(maximally_mixed(2), None),
                "expected GeneralizedMeasurement, got NoneType",
            ),
            (lambda: ensemble_from_state(np.eye(2) / 2, 2, 0), "expected DensityOperator, got ndarray"),
            (lambda: pinch(np.eye(2) / 2, "x"), "expected OrthogonalResolution, got str"),
            (lambda: density_operators(5), "matrices must be a sequence, got 5"),
            (lambda: OrthogonalResolution(5.0), "projectors must be a sequence, got 5.0"),
            (lambda: GeneralizedMeasurement(5.0), "measurement operators must be a sequence, got 5.0"),
            (lambda: unified_classical([0.5, 0.5], (2.0, 1.0)), "expected UnifiedParams, got tuple"),
        ],
        ids=[
            "purify", "tensor", "apply_generalized-state", "apply_generalized-measurement",
            "ensemble_from_state", "pinch-resolution", "density_operators", "OrthogonalResolution",
            "GeneralizedMeasurement", "unified_classical-params",
        ],
    )
    def test_wrong_type_operand_is_a_domain_error(self, call, message):
        # each raised a bare AttributeError or TypeError
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("states", [5.0, None])
    def test_scalar_ensemble_members_are_a_dimension_mismatch(self, states):
        # len() of the 0-d member array raised a bare TypeError
        with pytest.raises(DimMismatch, match="one state vector per weight"):
            PureStateEnsemble([1.0], states)


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rho = random_density(3, 3, seed=40)
        path = tmp_path / "state.json"
        write_matrix(path, rho)
        back = read_matrix(path)
        assert np.abs(back.entries - rho.mat).max() < 1e-15
        again = read_density(path)
        assert again.dim == 3

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "state.json"
        write_matrix(path, maximally_mixed(2))
        data = json.loads(path.read_text())
        assert set(data) == {"d", "re", "im"}
        assert data["d"] == 2

    def test_hermiticity_validated_on_load(self, tmp_path):
        bad = {"d": 2, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(NonHermitian):
            read_matrix(path)

    def test_shape_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 3, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(DimMismatch):
            read_matrix(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"re": [[1.0]], "im": [[0.0]]},  # no "d"
            {"d": "x", "re": [[1.0]], "im": [[0.0]]},
            {"d": 1, "re": [["x"]], "im": [[0.0]]},
            {"d": 1, "re": [[10**400]], "im": [[0.0]]},  # no float value
            [1, 2],  # not a record
        ],
    )
    def test_malformed_record(self, tmp_path, record):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(DomainError, match="malformed matrix record"):
            read_matrix(path)

    @pytest.mark.parametrize("d", ["1e400", "2.5", "NaN", '"2"', "true"])
    def test_dimension_must_be_an_integer(self, tmp_path, d):
        # 1e400 (inf) raised a bare OverflowError, 2.5 was read as 2 and true as 1
        path = tmp_path / "bad.json"
        path.write_text(f'{{"d": {d}, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}')
        with pytest.raises(DomainError, match="malformed matrix record: dimension must be an integer"):
            read_matrix(path)

    def test_whole_float_dimension_is_read(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"d": 2.0, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
        assert read_matrix(path).entries.shape == (2, 2)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(DomainError):
            read_matrix(path)

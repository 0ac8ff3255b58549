"""Verification harness: reports, determinism, negative controls, stability."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_kit.entropies import UnifiedParams, unified_quantum
from entropy_kit.bounds import max_unified
from entropy_kit.errors import DimMismatch, DomainError, InvalidIndex, NotDiagonal, PureState
from entropy_kit.linops import (
    DensityOperator,
    GeneralizedMeasurement,
    apply_generalized,
    diagonal_density,
    maximally_mixed,
    tensor,
    trace_distance,
)
from entropy_kit import verify
from entropy_kit.verify import (
    ALL_CHECKS,
    QUBIT_MEASUREMENT,
    CheckReport,
    StabilityExample,
    qubit_measurement_decrease,
    report_ok,
    run_check,
    stability_ratio,
)

REPORT_KEYS = {"check", "trials", "skipped", "failures", "max_violation", "worst_case", "seed"}


def stability_example_states(
    ex: StabilityExample, max_dim: int = 4096
) -> tuple[DensityOperator, DensityOperator]:
    """The example pair as diagonal density operators, to cross-check the
    closed form; large dimensions are refused rather than allocated."""
    if ex.d > max_dim:
        raise DomainError(f"refusing to materialize dimension {ex.d} > {max_dim}")
    d, eps = ex.d, ex.eps
    if ex.variant == "example0":
        first = [1.0] + [0.0] * (d - 1)
        second = [1.0 - eps] + [eps / (d - 1)] * (d - 1)
    else:
        first = [0.0] + [1.0 / (d - 1)] * (d - 1)
        second = [eps] + [(1.0 - eps) / (d - 1)] * (d - 1)
    return diagonal_density(first), diagonal_density(second)


class TestRecorder:
    def test_flags_blatant_violation(self):
        rec = CheckReport("demo")
        assert rec.compare(2.0, 1.0, {"tag": "x"})
        assert rec.failures == 1
        assert rec.max_violation == pytest.approx(1.0)
        assert rec.worst_case["lhs"] == 2.0 and rec.worst_case["rhs"] == 1.0

    def test_tolerates_roundoff(self):
        rec = CheckReport("demo")
        assert not rec.compare(1.0 + 1e-9, 1.0, {})
        assert rec.failures == 0

    def test_strict_mode_rejects_equality(self):
        rec = CheckReport("demo")
        assert rec.compare(1.0, 1.0, {}, strict=True)

    def test_tracks_worst_case(self):
        rec = CheckReport("demo")
        rec.compare(1.5, 1.0, {"tag": "small"})
        rec.compare(3.0, 1.0, {"tag": "big"})
        rec.compare(1.1, 1.0, {"tag": "tiny"})
        assert rec.worst_case["tag"] == "big"
        assert rec.max_violation == pytest.approx(2.0)

    def test_empty_report(self):
        rep = CheckReport("demo", seed=7)
        assert rep.max_violation == 0.0
        assert rep.worst_case is None
        assert rep.failures == 0 and rep.trials == 0 and rep.comparisons == 0
        assert rep.to_dict()["seed"] == 7

    def test_first_comparison_is_the_worst_case_even_below_zero(self):
        # "no comparison yet" is worst_case None, not max_violation 0.0, so
        # a suite whose every comparison holds reports its closest one
        rep = CheckReport("demo")
        rep.compare(1.0, 3.0, {"tag": "first"})
        rep.compare(1.0, 4.0, {"tag": "looser"})
        assert rep.max_violation == -2.0
        assert rep.worst_case == {"tag": "first", "lhs": 1.0, "rhs": 3.0}
        assert rep.comparisons == 2 and rep.failures == 0

    def test_wrong_regime_scalar_instance_is_caught(self):
        # |x^s - y^s| <= s|x - y| holds on [0, 1] for s >= 1 but breaks on
        # the tail: x = 1, y = 3, s = 2 gives 8 > 4
        rec = CheckReport("demo")
        assert rec.compare(abs(1.0**2 - 3.0**2), 2.0 * abs(1.0 - 3.0), {})


#: violations the scalar path orders in its own way: ties, signed zeros, NaN
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-9, 1e300, math.inf, -math.inf, math.nan)


class TestCompareMany:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
            ),
            max_size=40,
        ),
        st.sampled_from([0.0, 1e3]),
        st.lists(st.integers(0, 40), max_size=4),
        st.sampled_from([None, (1.0, 3.0), (math.nan, 0.0), (5.0, 1.0)]),
    )
    def test_bit_equal_to_scalar_compares(self, pairs, shift, cuts, before):
        # shift 1e3 makes every finite violation negative; ``before`` is a
        # scalar comparison made first, as the seeded violation pair is
        lhs = np.array([a for a, _ in pairs], dtype=float)
        rhs = np.array([b + shift for _, b in pairs], dtype=float)
        loop, many = CheckReport("demo"), CheckReport("demo")
        if before is not None:
            for rep in (loop, many):
                rep.compare(*before, {"index": -1})
        for j, (a, b) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            loop.compare(a, b, {"index": j})
        edges = sorted({0, len(pairs), *(c for c in cuts if c <= len(pairs))})
        for lo, hi in zip(edges, edges[1:]):
            many.compare_many(lhs[lo:hi], rhs[lo:hi], lambda j, lo=lo: {"index": lo + j})
        assert many.comparisons == loop.comparisons
        # JSON keeps the sign of a zero and spells NaN, so equal text is equal bits
        assert json.dumps(many.to_dict()) == json.dumps(loop.to_dict())

    def test_nan_first_is_the_worst_case_and_later_nan_never(self):
        rep = CheckReport("demo")
        rep.compare_many(np.array([math.nan, 5.0]), np.array([0.0, 1.0]), lambda j: {"j": j})
        assert math.isnan(rep.max_violation) and rep.worst_case["j"] == 0
        rep = CheckReport("demo")
        rep.compare_many(np.array([1.0, math.nan, 3.0, 3.0]), np.zeros(4), lambda j: {"j": j})
        assert rep.max_violation == 3.0 and rep.worst_case["j"] == 2

    def test_empty_arrays_change_nothing(self):
        rep = CheckReport("demo")
        rep.compare_many(np.zeros((0, 3)), np.zeros((0, 3)), lambda j: {})
        assert rep.worst_case is None and rep.comparisons == 0

    def test_case_is_built_for_the_worst_comparison_alone(self):
        asked = []
        rep = CheckReport("demo")
        rep.compare_many(np.arange(6.0).reshape(2, 3), np.ones((2, 3)), lambda j: asked.append(j) or {})
        assert asked == [5]
        assert rep.failures == 4 and rep.comparisons == 6


class TestReports:
    def test_serialized_keys_are_the_contract(self):
        rep = run_check("scalar-lemma", trials=5, seed=42)
        assert set(rep.to_dict().keys()) == REPORT_KEYS
        assert set(json.loads(rep.to_json()).keys()) == REPORT_KEYS

    def test_json_is_deterministic(self):
        a = run_check("fannes", trials=30, seed=7).to_json()
        b = run_check("fannes", trials=30, seed=7).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_check("fannes", trials=30, seed=1).to_json()
        b = run_check("fannes", trials=30, seed=2).to_json()
        assert a != b

    def test_zero_trials(self):
        rep = run_check("ensemble", trials=0, seed=0)
        assert rep.trials == 0
        assert rep.comparisons == 0
        assert rep.max_violation == 0.0
        assert rep.worst_case is None
        assert not report_ok(rep)

    def test_grid_outside_the_claim_does_not_pass(self):
        rep = run_check("fannes", trials=10, seed=0, params_grid=[(1.0, 0.5)])
        assert rep.skipped == 10
        assert rep.comparisons == 0
        assert not report_ok(rep)

    def test_comparisons_counted(self):
        # the ensemble grid has 35 points; s = 0 is not claimed at q >= 1
        rep = run_check("ensemble", trials=3, seed=0)
        assert rep.skipped == 3 * 3
        assert rep.comparisons == 3 * 32
        assert report_ok(rep)

    def test_negative_trials_rejected(self):
        # the former public entries of these two suites reported -4 and 0 trials
        for name in ("fannes", "subadd-violation", "scalar-lemma"):
            with pytest.raises(DomainError, match="trial count must be nonnegative"):
                run_check(name, trials=-5)

    @pytest.mark.parametrize("name", ALL_CHECKS)
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_report_independent_of_chunk_size(self, monkeypatch, name, chunk):
        default = run_check(name, trials=8, seed=5).to_json()
        monkeypatch.setattr(verify, "STATE_CHUNK", chunk)
        assert run_check(name, trials=8, seed=5).to_json() == default

    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_report_across_a_full_chunk_boundary(self, monkeypatch, name):
        # 70 trials are a full default chunk and part of a second one
        default = run_check(name, trials=70, seed=5).to_json()
        monkeypatch.setattr(verify, "STATE_CHUNK", 1)
        assert run_check(name, trials=70, seed=5).to_json() == default

    @pytest.mark.parametrize("name", ["mixing", "ensemble", "triangle"])
    def test_one_chunk_of_states_alive_at_a_time(self, monkeypatch, name):
        # a plain suite, one whose judge draws more, and one whose judge builds more states
        monkeypatch.setattr(verify, "STATE_CHUNK", 4)
        built, alive = [], []
        build, trial_rng = verify.density_operators, verify._trial_rng

        def tracked_build(mats):
            states = build(mats)
            built.extend(weakref.ref(state) for state in states)
            return states

        def watched_rng(seed, check, i):
            if i % 4 == 0:  # the first draw of a chunk
                alive.append(sum(ref() is not None for ref in built))
            return trial_rng(seed, check, i)

        monkeypatch.setattr(verify, "density_operators", tracked_build)
        monkeypatch.setattr(verify, "_trial_rng", watched_rng)
        run_check(name, trials=12, seed=0)
        assert built
        assert alive == [0, 0, 0]

    @pytest.mark.parametrize(
        "name,dims,trials,sizes",
        [
            ("ensemble", None, 70, [64, 6]),
            ("ensemble", (64,), 20, [16, 4]),
            ("ensemble", (128,), 5, [4, 1]),
            ("ensemble", (256,), 2, [1, 1]),
            # dimensions just above 32: 64 * 32**2 // 33**2 = 60 trials
            ("ensemble", (2, 33), 61, [60, 1]),
            # pair suites size by d_A * d_B**2, the side of triangle's rho_BC:
            # 27 at most for the default pairs
            ("subadd", None, 65, [64 * 3, 3]),
            ("subadd", ((4, 4),), 17, [16 * 3, 3]),
            ("subadd", ((8, 8),), 3, [3, 3, 3]),
            # triangle builds its purified reductions in a second stacked call
            ("triangle", None, 65, [64 * 3, 64 * 2, 3, 2]),
            ("triangle", ((2, 8),), 5, [4 * 3, 4 * 2, 3, 2]),
            ("triangle", ((1, 16),), 2, [3, 2, 3, 2]),
            ("triangle", ((16, 1),), 65, [64 * 3, 64 * 2, 3, 2]),
        ],
    )
    def test_chunk_sized_by_the_largest_matrix(self, monkeypatch, name, dims, trials, sizes):
        built = []
        build = verify.density_operators

        def counted_build(mats):
            built.append(len(mats))
            return build(mats)

        monkeypatch.setattr(verify, "density_operators", counted_build)
        suite = verify.SUITES[name]
        verify._run_suite(name, trials, 0, dims, verify._as_grid(None, suite.grid))
        assert built == sizes

    def test_triangle_chunk_memory_is_capped(self):
        # rho_BC is 256 x 256 at the pair (1, 16); 64 trials of it in one
        # chunk peaked near 100 MB
        tracemalloc.start()
        try:
            rep = run_check("triangle", trials=64, seed=0, dims=(1, 16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report_ok(rep)
        assert peak <= 10 * 2**20

    def test_suite_is_a_draw_and_a_judge(self):
        fields = [f.name for f in dataclasses.fields(verify.Suite)]
        assert fields == ["draw", "judge", "dims", "grid", "claimed", "q_only"]
        pairs = {name for name, suite in verify.SUITES.items() if suite.pairs}
        assert pairs == {"audenaert", "subadd", "subadd-violation", "triangle"}

    def test_report_ok_inverts_for_violation_search(self):
        empty = CheckReport("subadd-violation")
        assert not report_ok(empty)
        regular = CheckReport("fannes")
        regular.compare(2.0, 1.0, {})
        assert not report_ok(regular)


class TestGrid:
    @pytest.mark.parametrize("name", ALL_CHECKS)
    @pytest.mark.parametrize(
        "grid",
        [[(2.0, math.nan)], [(2.0, math.inf)], [(math.nan, 1.0)], [(0.0, 1.0)], [(2.0, 1.0), (2.0, math.nan)]],
    )
    def test_every_suite_rejects_a_bad_point(self, name, grid):
        # including the suites that read q alone and the ones that read no grid
        with pytest.raises(InvalidIndex):
            run_check(name, trials=10, seed=0, params_grid=grid)

    def test_bad_point_is_named_not_skipped(self):
        # mixing claims no point with s = nan, which used to be skipped
        with pytest.raises(InvalidIndex, match="s must be finite, got nan"):
            run_check("mixing", trials=10, seed=0, params_grid=[(0.5, math.nan)])

    @pytest.mark.parametrize("name", ["audenaert", "pinching"])
    def test_q_only_suites_compare_each_q_once(self, name):
        single = run_check(name, trials=10, seed=0, params_grid=[(2.0, 1.0)])
        repeated = run_check(name, trials=10, seed=0, params_grid=[(2.0, 1.0), (2.0, 2.0)])
        assert single.comparisons == 10
        assert repeated.comparisons == 10
        assert repeated.skipped == 0
        assert repeated.to_json() == single.to_json()
        two = run_check(name, trials=10, seed=0, params_grid=[(1.5, 1.0), (2.0, 1.0), (1.5, 2.0)])
        assert two.comparisons == 20
        assert two.skipped == 0


class TestSuitesPass:
    @pytest.mark.parametrize("name", [c for c in ALL_CHECKS if c != "subadd-violation"])
    def test_green_at_moderate_trials(self, name):
        rep = run_check(name, trials=120, seed=42)
        assert report_ok(rep), rep.to_json()
        assert rep.failures == 0

    def test_violation_search_finds_break(self):
        rep = run_check("subadd-violation", trials=120, seed=42)
        assert report_ok(rep)
        assert rep.failures >= 1
        assert rep.max_violation >= 1.0 - 1e-9

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            run_check("nonsense")

    def test_oversized_dims_fall_back_for_pairs(self):
        rep = run_check("subadd", trials=10, seed=3, dims=(5, 7))
        assert report_ok(rep)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_a_domain_error(self, seed):
        for name in ("fannes", "subadd-violation"):
            with pytest.raises(DomainError, match="seed must be nonnegative"):
                run_check(name, trials=1, seed=seed)

    @pytest.mark.parametrize("dims", [(0,), (2, verify.MAX_CHECK_DIM + 1), (10**300,)])
    def test_dimension_outside_the_drawable_range(self, dims):
        # 10**300 used to reach the random generator as a bare ValueError
        for name in ("ensemble", "subadd"):
            with pytest.raises(DomainError, match="dimension must lie in"):
                run_check(name, trials=1, seed=0, dims=dims)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            # bare TypeErrors from range() and the seed sequence
            ({"trials": 2.5}, "trial count must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            # a bare ValueError from int()
            ({"dims": (float("nan"),)}, "dimension must be an integer, got nan"),
            # int() truncated this to d = 2 and ran silently
            ({"dims": (2.7,)}, "dimension must be an integer, got 2.7"),
        ],
    )
    def test_non_integer_input_is_a_domain_error(self, kwargs, message):
        for name in ("ensemble", "subadd", "subadd-violation", "scalar-lemma"):
            with pytest.raises(DomainError, match=message):
                run_check(name, **{"trials": 2, "seed": 0, **kwargs})

    @pytest.mark.parametrize("name", verify.TWO_LEVEL_CHECKS)
    def test_one_level_systems_are_refused_before_any_draw(self, name, monkeypatch):
        """The Fannes bound and random block resolutions need d >= 2, so
        these suites refuse d = 1 before a trial runs, not mid-run."""
        monkeypatch.setattr(verify, "_run_suite", lambda *args: pytest.fail("trials were drawn"))
        with pytest.raises(DomainError, match=f"check {name} needs every dimension >= 2, got 1"):
            run_check(name, trials=20, seed=3, dims=(2, 1))

    @pytest.mark.parametrize("name", sorted(set(verify.SUITES) - set(verify.TWO_LEVEL_CHECKS)))
    def test_other_suites_run_one_level_systems(self, name):
        assert run_check(name, trials=4, seed=3, dims=(1, 2)).comparisons > 0

    def test_whole_floats_are_integers(self):
        as_floats = run_check("ensemble", trials=3.0, seed=4.0, dims=(2.0, 3.0))
        assert as_floats.to_json() == run_check("ensemble", trials=3, seed=4, dims=(2, 3)).to_json()

    def test_schatten_norms_skip_q_below_one(self):
        # q < 1 lies outside Audenaert's claim and is skipped like any such point
        mixed = run_check("audenaert", trials=5, seed=0, params_grid=[(2.0, 0.0), (0.5, 0.0)])
        alone = run_check("audenaert", trials=5, seed=0, params_grid=[(2.0, 0.0)])
        assert (mixed.comparisons, mixed.skipped, mixed.failures) == (5, 5, 0)
        assert mixed.worst_case == alone.worst_case

    @pytest.mark.parametrize("name", ["triangle", "audenaert", "subadd"])
    def test_no_claimed_point_draws_nothing(self, name, monkeypatch):
        monkeypatch.setattr(verify, "_run_chunk", lambda *args: pytest.fail("trials were drawn"))
        rep = run_check(name, trials=1000, seed=0, params_grid=[(0.5, 1.0)])
        assert (rep.trials, rep.skipped, rep.comparisons) == (1000, 1000, 0)

    def test_entropy_beyond_the_float_range_is_a_domain_error(self):
        # t^s overflows at s = -3000; the qubit's power sum underflows at q = 1e300
        with pytest.raises(DomainError, match="float range"):
            run_check("ensemble", trials=2, seed=0, params_grid=[(2.0, -3000.0)])
        with pytest.raises(DomainError, match="float range"):
            run_check("qubit-measure", params_grid=[(1e300, 1.0)])


class TestSeededViolations:
    def test_analytic_instances_without_sampling(self):
        rep = run_check("subadd-violation", trials=0, seed=0)
        assert rep.trials == 1
        assert rep.failures == 2
        assert rep.worst_case["kind"] == "seeded"
        assert rep.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_analytic_violation_magnitudes(self):
        # on I/2 (x) I/2 the gap E(AB) - 2 E(A) is exactly 1 at (2, -1)
        # and 6 - 4 sqrt 2 at (1/2, 1)
        mm = maximally_mixed(2)
        prod = tensor(mm, mm)
        for (q, s), expect in (((2.0, -1.0), 1.0), ((0.5, 1.0), 6.0 - 4.0 * math.sqrt(2.0))):
            params = UnifiedParams(q, s)
            gap = unified_quantum(prod, params) - 2.0 * unified_quantum(mm, params)
            assert gap == pytest.approx(expect, abs=1e-12)


class TestQubitMeasurement:
    def test_collapses_to_ground_state(self):
        after = apply_generalized(
            diagonal_density((0.5, 0.5)), GeneralizedMeasurement(QUBIT_MEASUREMENT)
        )
        assert np.allclose(after.mat, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_flat_qubit_entropy_halves_to_zero(self):
        rho = diagonal_density((0.5, 0.5))
        after = apply_generalized(rho, GeneralizedMeasurement(QUBIT_MEASUREMENT))
        p = UnifiedParams(2.0, 1.0)
        assert unified_quantum(rho, p) == pytest.approx(0.5)
        assert unified_quantum(after, p) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("diag", [(0.5, 0.5), (0.8, 0.2), (0.99, 0.01)])
    def test_strict_decrease_over_grid(self, diag):
        rep = qubit_measurement_decrease(diagonal_density(diag))
        assert rep.failures == 0
        assert rep.max_violation < 0.0

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimMismatch):
            qubit_measurement_decrease(diagonal_density((0.5, 0.3, 0.2)))

    def test_rejects_coherences(self):
        rho = DensityOperator.from_matrix(np.array([[0.5, 0.3], [0.3, 0.5]]))
        with pytest.raises(NotDiagonal):
            qubit_measurement_decrease(rho)

    def test_rejects_pure_input(self):
        with pytest.raises(PureState):
            qubit_measurement_decrease(diagonal_density((1.0, 0.0)))


class TestStabilityExamples:
    def test_validation(self):
        with pytest.raises(DomainError):
            StabilityExample("example2", 0.1, 4, 2.0, 1.0)
        with pytest.raises(DomainError):
            StabilityExample("example0", 1.0, 4, 2.0, 1.0)
        with pytest.raises(DomainError):
            StabilityExample("example0", 0.1, 1, 2.0, 1.0)
        with pytest.raises(InvalidIndex):
            StabilityExample("example0", 0.1, 4, 0.0, 1.0)

    @pytest.mark.parametrize("d", [4.7, 10**400, float("nan"), 2**53 + 1])
    def test_dimension_must_be_an_exact_integer(self, d):
        with pytest.raises(DomainError):
            StabilityExample("example0", 0.01, d, 0.5, -1.0)

    @pytest.mark.parametrize("q,s", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan), (2.0, math.inf)])
    def test_indices_must_be_finite(self, q, s):
        with pytest.raises(InvalidIndex):
            StabilityExample("example0", 0.1, 10, q, s)

    def test_overflow_is_a_domain_error(self):
        ex = StabilityExample("example0", 0.1, int(1e300), 0.1, 2.0)
        with pytest.raises(DomainError, match="float range"):
            stability_ratio(ex)

    def test_example1_frozen_small_dimension(self):
        # d = 10, q = 2, s = -1: power sums 1/9 and 1/10, entropies 8 and 9
        # against max 9, hence exactly 1/9
        ex = StabilityExample("example1", 0.1, 10, 2.0, -1.0)
        assert stability_ratio(ex) == pytest.approx(1.0 / 9.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["example0", "example1"])
    def test_states_sit_at_trace_distance_eps(self, variant):
        ex = StabilityExample(variant, 0.17, 6, 2.0, 1.0)
        rho, omega = stability_example_states(ex)
        assert trace_distance(rho, omega) == pytest.approx(0.17, abs=1e-12)

    @pytest.mark.parametrize("variant", ["example0", "example1"])
    @pytest.mark.parametrize("q,s", [(1.7, -1.2), (0.5, -1.0), (2.0, 1.0), (0.3, 0.5)])
    def test_closed_form_matches_matrix_route(self, variant, q, s):
        ex = StabilityExample(variant, 0.3, 4, q, s)
        rho, omega = stability_example_states(ex)
        params = UnifiedParams(q, s)
        direct = abs(
            unified_quantum(rho, params) - unified_quantum(omega, params)
        ) / max_unified(q, s, 4)
        assert stability_ratio(ex) == pytest.approx(direct, abs=1e-10)

    def test_shannon_branch_matches_matrix_route(self):
        ex = StabilityExample("example0", 0.1, 100, 1.0, 1.0)
        rho, omega = stability_example_states(ex)
        params = UnifiedParams(1.0, 1.0)
        direct = abs(
            unified_quantum(rho, params) - unified_quantum(omega, params)
        ) / math.log(100)
        assert stability_ratio(ex) == pytest.approx(direct, abs=1e-10)
        hand = (
            -0.9 * math.log(0.9) - 0.1 * math.log(0.1) + 0.1 * math.log(99)
        ) / math.log(100)
        assert stability_ratio(ex) == pytest.approx(hand, abs=1e-12)

    def test_refuses_huge_materialization(self):
        ex = StabilityExample("example0", 0.01, 10**6, 0.5, -1.0)
        with pytest.raises(DomainError):
            stability_example_states(ex)

    def test_instability_grows_with_dimension(self):
        ratios = [
            stability_ratio(StabilityExample("example0", 0.01, d, 0.5, -1.0))
            for d in (10, 1000, 10**6, 10**8)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(0.333140, abs=1e-5)
        assert ratios[-1] > 0.999

    def test_stable_direction_saturates_below_one(self):
        # for s > 0 the same perturbation tends to eps^((1-q)s), not 1
        ex = StabilityExample("example0", 0.01, 10**8, 0.5, 0.5)
        assert stability_ratio(ex) < 0.32

    def test_dimensionless_in_cost(self):
        # closed form handles astronomically large d without allocating
        ex = StabilityExample("example1", 0.1, 10**12, 2.0, -1.0)
        assert 0.999 < stability_ratio(ex) < 1.0


class TestReportShape:
    def test_comparisons_not_serialized(self):
        rep = run_check("fannes", trials=2, seed=0)
        assert rep.comparisons > 0
        assert set(rep.to_dict()) == REPORT_KEYS

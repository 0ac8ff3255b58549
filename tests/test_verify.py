"""Verification harness: reports, determinism, negative controls, stability."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

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
    search_subadditivity_violation,
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
        with pytest.raises(DomainError):
            run_check("fannes", trials=-1)

    @pytest.mark.parametrize("name", ALL_CHECKS)
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_report_independent_of_chunk_size(self, monkeypatch, name, chunk):
        default = run_check(name, trials=8, seed=5).to_json()
        monkeypatch.setattr(verify, "STATE_CHUNK", chunk)
        assert run_check(name, trials=8, seed=5).to_json() == default

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


class TestSeededViolations:
    def test_analytic_instances_without_sampling(self):
        rep = search_subadditivity_violation(trials=0, seed=0)
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

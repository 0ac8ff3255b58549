"""Verification harness: reports, determinism, negative controls, stability."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import weakref
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entropy_kit.entropies import (
    UnifiedParams,
    binary_tsallis,
    q_log,
    renyi,
    unified_classical,
    unified_from_power_sum,
    unified_quantum,
)
from entropy_kit.bounds import BoundSpec, eta_q, lipschitz_bound, max_unified, unified_fannes_bound
from entropy_kit.errors import DimMismatch, DomainError, InvalidIndex, NotDiagonal, OutOfValidity, PureState
from entropy_kit.linops import (
    DensityOperator,
    GeneralizedMeasurement,
    OrthogonalResolution,
    apply_generalized,
    diagonal_density,
    maximally_mixed,
    partial_trace,
    pinch,
    purify,
    tensor,
    trace_distance,
)
from entropy_kit import linops, verify
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


def _compare_one(rep: CheckReport, lhs: float, rhs: float, case: dict, strict: bool = False) -> bool:
    """One comparison through ``compare_many`` on 1-element arrays; True
    if it failed."""
    before = rep.failures
    rep.compare_many(np.array([lhs]), np.array([rhs]), lambda j: case, strict=strict)
    return rep.failures > before


def _scalar_compare(rep: CheckReport, lhs: float, rhs: float, case: dict, strict: bool = False) -> None:
    """The rule of ``compare_many`` for one comparison, in Python floats:
    the oracle the array path is held to."""
    rep.comparisons += 1
    violation = float(lhs) - float(rhs)
    if strict:
        failed = violation >= 0.0
    else:
        failed = violation > verify.TOL.check_rel * (1.0 + max(abs(lhs), abs(rhs)))
    if failed:
        rep.failures += 1
    if rep.worst_case is None or violation > rep.max_violation:
        rep.max_violation = violation
        rep.worst_case = dict(case, lhs=float(lhs), rhs=float(rhs))


class TestRecorder:
    def test_flags_blatant_violation(self):
        rec = CheckReport("demo")
        assert _compare_one(rec, 2.0, 1.0, {"tag": "x"})
        assert rec.failures == 1
        assert rec.max_violation == pytest.approx(1.0)
        assert rec.worst_case["lhs"] == 2.0 and rec.worst_case["rhs"] == 1.0

    def test_tolerates_roundoff(self):
        rec = CheckReport("demo")
        assert not _compare_one(rec, 1.0 + 1e-9, 1.0, {})
        assert rec.failures == 0

    def test_strict_mode_rejects_equality(self):
        rec = CheckReport("demo")
        assert _compare_one(rec, 1.0, 1.0, {}, strict=True)

    def test_tracks_worst_case(self):
        rec = CheckReport("demo")
        _compare_one(rec, 1.5, 1.0, {"tag": "small"})
        _compare_one(rec, 3.0, 1.0, {"tag": "big"})
        _compare_one(rec, 1.1, 1.0, {"tag": "tiny"})
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
        _compare_one(rep, 1.0, 3.0, {"tag": "first"})
        _compare_one(rep, 1.0, 4.0, {"tag": "looser"})
        assert rep.max_violation == -2.0
        assert rep.worst_case == {"tag": "first", "lhs": 1.0, "rhs": 3.0}
        assert rep.comparisons == 2 and rep.failures == 0

    def test_wrong_regime_scalar_instance_is_caught(self):
        # |x^s - y^s| <= s|x - y| holds on [0, 1] for s >= 1 but breaks on
        # the tail: x = 1, y = 3, s = 2 gives 8 > 4
        rec = CheckReport("demo")
        assert _compare_one(rec, abs(1.0**2 - 3.0**2), 2.0 * abs(1.0 - 3.0), {})


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
        st.booleans(),
    )
    # strict: equality, the signed zeros and NaN, first and later
    @example([(1.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (math.nan, 0.0), (2.0, 2.0)], 0.0, [1, 3], None, True)
    @example([(0.0, -0.0), (1.0, 1.0), (math.nan, 1.0)], 0.0, [], (math.nan, 0.0), True)
    @example([(-0.0, 0.0), (5.0, 5.0)], 0.0, [1], (1.0, 1.0), True)
    def test_bit_equal_to_scalar_compares(self, pairs, shift, cuts, before, strict):
        # shift 1e3 makes every finite violation negative; ``before`` is a
        # single comparison made first, as the seeded violation pair's first is
        lhs = np.array([a for a, _ in pairs], dtype=float)
        rhs = np.array([b + shift for _, b in pairs], dtype=float)
        loop, many = CheckReport("demo"), CheckReport("demo")
        if before is not None:
            _scalar_compare(loop, *before, {"index": -1}, strict=strict)
            _compare_one(many, *before, {"index": -1}, strict=strict)
        for j, (a, b) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            _scalar_compare(loop, a, b, {"index": j}, strict=strict)
        edges = sorted({0, len(pairs), *(c for c in cuts if c <= len(pairs))})
        for lo, hi in zip(edges, edges[1:]):
            many.compare_many(lhs[lo:hi], rhs[lo:hi], lambda j, lo=lo: {"index": lo + j}, strict=strict)
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
        # a full default chunk and part of a second one
        trials = verify.STATE_CHUNK + 6
        default = run_check(name, trials=trials, seed=5).to_json()
        monkeypatch.setattr(verify, "STATE_CHUNK", 1)
        assert run_check(name, trials=trials, seed=5).to_json() == default

    @pytest.mark.parametrize(
        "name,chunks",
        # 4 * 16**2 // 16**2 = 4 trials a chunk at d <= 16 and at the
        # default pairs' d_A d_B <= 9, and 4 * 16**2 // 27**2 = 0, so one,
        # at triangle's d_B d_A d_B <= 27
        [("mixing", 3), ("ensemble", 3), ("subadd", 3), ("triangle", 12)],
    )
    def test_one_chunk_of_states_alive_at_a_time(self, monkeypatch, name, chunks):
        # a plain suite, one whose judge draws more, a pair suite and one
        # whose judge builds more states
        monkeypatch.setattr(verify, "STATE_CHUNK", 4)
        built, alive = [], []
        build, spectra, trial_rngs = verify._density_stacks, verify._density_spectra, verify._trial_rngs

        def tracked_build(mats, *args):
            rows = build(mats, *args)
            # a state made of a row holds views of its stack's buffers, so
            # its eigenvalue stack lives as long as any such state does
            built.extend(weakref.ref(stack[0]) for stack, _ in rows)
            return rows

        def tracked_spectra(mats, *args):
            # the states the triangle judge builds from its own stacks
            vals, vecs = spectra(mats, *args)
            built.append(weakref.ref(vals))
            return vals, vecs

        def watched_rngs(seed, check, chunk):
            # a chunk's generators are built just before its first draw
            alive.append(sum(ref() is not None for ref in built))
            return trial_rngs(seed, check, chunk)

        monkeypatch.setattr(verify, "_density_stacks", tracked_build)
        monkeypatch.setattr(verify, "_density_spectra", tracked_spectra)
        monkeypatch.setattr(verify, "_trial_rngs", watched_rngs)
        run_check(name, trials=12, seed=0)
        assert built
        assert alive == [0] * chunks

    @pytest.mark.parametrize(
        "name,dims,trials,sizes",
        [
            # 512 * 16**2 // max(d_max, 16)**2 trials a chunk: 512 at d <= 16
            ("ensemble", None, 600, [512, 88]),
            ("ensemble", (16,), 513, [512, 1]),
            ("ensemble", (17,), 454, [453, 1]),
            ("ensemble", (32,), 129, [128, 1]),
            ("ensemble", (64,), 40, [32, 8]),
            ("ensemble", (128,), 9, [8, 1]),
            ("ensemble", (256,), 3, [2, 1]),
            # dimensions just above 32: 512 * 16**2 // 33**2 = 120 trials
            ("ensemble", (2, 33), 121, [120, 1]),
            # audenaert, subadd and subadd-violation size by d_A d_B, the
            # side of rho_AB: 9 at most for the default pairs, 16 at (2, 8)
            ("audenaert", None, 600, [512 * 3, 88 * 3]),
            ("subadd", None, 600, [512 * 3, 88 * 3]),
            ("subadd-violation", None, 600, [512 * 6, 88 * 6]),
            ("audenaert", ((2, 8),), 513, [512 * 3, 3]),
            ("subadd", ((2, 8),), 513, [512 * 3, 3]),
            ("subadd-violation", ((2, 8),), 513, [512 * 6, 6]),
            ("subadd", ((8, 8),), 33, [32 * 3, 3]),
            # triangle by d_B d_A d_B, the side of its judge's rho_BC: 27
            # at most for the default pairs, so 512 * 16**2 // 27**2 = 179,
            # 128 at (2, 8) but 32 at (8, 2); its judge validates its
            # purified reductions without _density_stacks
            ("triangle", None, 180, [179 * 3, 3]),
            ("triangle", ((2, 8),), 9, [8 * 3, 3]),
            ("triangle", ((8, 2),), 129, [128 * 3, 3]),
            ("triangle", ((1, 16),), 3, [2 * 3, 3]),
            ("triangle", ((16, 1),), 513, [512 * 3, 3]),
        ],
    )
    def test_chunk_sized_by_the_largest_matrix(self, monkeypatch, name, dims, trials, sizes):
        # matrices per _density_stacks call, summed over its stacks
        built = []
        build = verify._density_stacks

        def counted_build(stacks, *args):
            built.append(sum(map(len, stacks)))
            return build(stacks, *args)

        monkeypatch.setattr(verify, "_density_stacks", counted_build)
        suite = verify.CHECKS[name].suite
        verify._run_suite(name, trials, 0, dims, verify._as_grid(None, suite.grid), CheckReport(name))
        assert built == sizes

    @pytest.mark.parametrize("dims,trials", [(((3, 3),), 20), (((2, 8),), 20), (None, 70)])
    def test_purified_stacks_are_capped(self, monkeypatch, dims, trials):
        # triangle's purified states, (d_A d_B)^2-square, are never made:
        # the reductions rho_C (d_A d_B-square) and rho_BC (d_B d_A d_B)
        # come straight from the purifications, whose side sizes the chunk,
        # so the (2, 8) chunks of 8 trials fill one slot: 8 * 128**2 = 2**17
        shapes = []
        pure_traces = verify._pure_traces

        def counted(psi, *args):
            out = pure_traces(psi, *args)
            shapes.append(out.shape[:2])
            return out

        monkeypatch.setattr(verify, "_pure_traces", counted)
        suite = verify.CHECKS["triangle"].suite
        rec = CheckReport("triangle")
        verify._run_suite("triangle", trials, 0, dims, verify._as_grid(None, suite.grid), rec)
        assert report_ok(rec)
        assert max(n * d * d for n, d in shapes) <= verify.STATE_CHUNK * verify._CHUNK_DIM**2
        if dims == ((3, 3),):
            assert shapes == [(20, 9), (20, 27)]
        if dims == ((2, 8),):
            assert shapes == [(8, 16), (8, 128)] * 2 + [(4, 16), (4, 128)]

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

    @pytest.mark.parametrize("name", [n for n in ALL_CHECKS if verify.CHECKS[n].suite])
    def test_eigenvectors_kept_only_where_read(self, monkeypatch, name):
        # the ensemble judge draws from its states' eigenvectors and the
        # triangle judge purifies its rho_AB rows; no other state keeps
        # them, nor do the triangle judge's purified reductions
        check = verify.CHECKS[name]
        seen, spectra = [], verify._density_spectra

        def judge(trials, states, points):
            seen.extend([stack[2] is not None for stack, _ in st] for st in states)
            return check.suite.judge(trials, states, points)

        def judged_spectra(mats, *args):
            vals, vecs = spectra(mats, *args)
            seen.append(vecs is not None)
            return vals, vecs

        suite = dataclasses.replace(check.suite, judge=judge)
        monkeypatch.setitem(verify.CHECKS, name, dataclasses.replace(check, suite=suite))
        monkeypatch.setattr(verify, "_density_spectra", judged_spectra)
        run_check(name, trials=6, seed=1)
        states, built = seen[:6], seen[6:]
        first = name in ("ensemble", "triangle")
        assert all(marks == [first] + [False] * (len(marks) - 1) for marks in states)
        assert len(built) == (2 * 3 if name == "triangle" else 0) and not any(built)

    def test_suite_is_a_draw_a_build_and_a_judge(self):
        # largest sizes the chunks, and vectors keeps the eigenvectors its judge reads
        fields = [f.name for f in dataclasses.fields(verify.Suite)]
        assert fields == [
            "draw", "build", "judge", "dims", "grid", "claimed", "q_only", "largest", "vectors"
        ]
        pairs = {name for name, check in verify.CHECKS.items() if check.suite and check.suite.pairs}
        assert pairs == {"audenaert", "subadd", "subadd-violation", "triangle"}

    def test_states_are_rows_of_the_validated_stacks(self, monkeypatch):
        # a seed-42 `check all --trials 1000` pass runs 22 chunks and 146
        # stacked eigh calls (142 in the chunks, 4 for the closed-form
        # parts' states).  Each build group's stack of a slot is a
        # contiguous slice of a stack that one of its chunk's eigh calls
        # validated, its trial j's row at offset + j: no per-matrix step
        # lies between the build and the eigensolve
        eigh, validated, chunks, groups, rows = np.linalg.eigh, [], [], [], []

        def counted_eigh(mats):
            validated.append(mats)
            return eigh(mats)

        def counted_chunk(*args):
            chunks.append(len(validated))
            run_chunk(*args)

        def checked(suite):
            def build(infos, made):
                groups[:] = suite.build(infos, made)
                return groups

            def judge(trials, states, points):
                chunk = validated[chunks[-1]:]
                for idx, stacks in groups:
                    for k, built in enumerate(stacks):
                        slot = [states[t][k] for t in idx]
                        (vals, mats, vecs), o = slot[0]
                        assert slot == [((vals, mats, vecs), o + j) for j in range(len(idx))]
                        assert [m is mats for m in chunk].count(True) == 1 and len(vals) == len(mats)
                        # the judge reads the slot as a view of the validated stack
                        view = verify._row_stack(slot, 1)
                        assert np.shares_memory(view, mats) and not np.shares_memory(view, built)
                        assert bit_equal(view, built)
                        rows.append(len(idx))
                return suite.judge(trials, states, points)

            return dataclasses.replace(suite, build=build, judge=judge)

        run_chunk = verify._run_chunk
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(verify, "_run_chunk", counted_chunk)
        for name, check in verify.CHECKS.items():
            if check.suite:
                monkeypatch.setitem(verify.CHECKS, name, dataclasses.replace(check, suite=checked(check.suite)))
        for name in ALL_CHECKS:
            run_check(name, trials=1000, seed=42)
        assert len(chunks) == 22 and len(validated) == 146
        # the states of 1000 trials of each of the 9 suites
        assert sum(rows) == 26020

    def test_report_ok_inverts_for_violation_search(self):
        empty = CheckReport("subadd-violation")
        assert not report_ok(empty)
        regular = CheckReport("fannes")
        _compare_one(regular, 2.0, 1.0, {})
        assert not report_ok(regular)

    @pytest.mark.parametrize("value", [None, "fannes", {"check": "fannes", "comparisons": 1, "failures": 0}])
    def test_report_ok_refuses_a_non_report(self, value):
        with pytest.raises(DomainError, match="expected CheckReport, got"):
            report_ok(value)


def chunk_builds(name: str, dims, trials: int) -> tuple:
    """(infos, built draws, the suite's chunk build) of the first chunk of
    check ``name`` at seed 3, as ``verify._run_chunk`` makes them; the
    build's (trial indices, stacks) groups are read back as each trial's
    list of matrices, item j of each stack for the group's trial j."""
    suite = verify.CHECKS[name].suite
    chunk = range(trials)
    infos, draws = zip(*[
        suite.draw(dims, i, rng) for i, rng in zip(chunk, verify._trial_rngs(3, name, chunk))
    ])
    made = verify._sampled(draws)
    built = [None] * trials
    for idx, stacks in suite.build(list(infos), made):
        assert all(isinstance(stack, np.ndarray) and len(stack) == len(idx) for stack in stacks)
        for j, t in enumerate(idx):
            built[t] = [stack[j] for stack in stacks]
    return infos, made, built


def chunk_states(name: str, dims, trials: int) -> tuple:
    """(infos, the built matrices of ``chunk_builds``, each trial's states)
    of that chunk, as ``verify._run_chunk`` makes them."""
    suite = verify.CHECKS[name].suite
    infos, made, built = chunk_builds(name, dims, trials)
    groups = suite.build(list(infos), made)
    return infos, built, verify._chunk_states(groups, suite.vectors, trials)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestChunkBuilds:
    """Each suite's chunk build, one stacked call per core and shape, gives
    every trial's matrices bit for bit as the per-trial formulas do, with
    mixed pair shapes, one-item groups and (2, 8) pairs."""

    PAIRS = ((2, 2), (2, 3), (3, 3), (2, 8), (1, 2))

    @staticmethod
    def reductions(da: int, db: int, rho: np.ndarray) -> list:
        return [rho, partial_trace(rho, da, db, "A"), partial_trace(rho, da, db, "B")]

    def assert_built(self, built: list, expected: list) -> None:
        assert len(built) == len(expected)
        for mats, want in zip(built, expected):
            assert len(mats) == len(want)
            assert all(bit_equal(a, b) for a, b in zip(mats, want))

    def test_bipartite(self):
        infos, made, built = chunk_builds("subadd", self.PAIRS, 12)
        self.assert_built(built, [self.reductions(*info, m[0]) for info, m in zip(infos, made)])

    def test_violation(self):
        infos, made, built = chunk_builds("subadd-violation", self.PAIRS, 12)
        expected = [
            [fa, fb, np.kron(fa, fb)] + self.reductions(*info, rho)
            for info, (fa, fb, rho) in zip(infos, made)
        ]
        self.assert_built(built, expected)

    def test_ensemble(self):
        infos, made, built = chunk_builds("ensemble", (2, 3, 5), 12)
        self.assert_built(built, made)

    def test_mixing(self):
        # each mixture is formed per trial, as sum(w * omega) forms it
        infos, made, built = chunk_builds("mixing", (2, 3, 5), 20)
        expected = [oms + [sum(w * om for w, om in zip(info[2], oms))] for info, oms in zip(infos, made)]
        self.assert_built(built, expected)

    def test_fannes(self):
        infos, made, built = chunk_builds("fannes", (2, 3, 5), 20)
        expected = [
            [rho, om if lam is None else (1.0 - lam) * rho + lam * om]
            for (_, lam), (rho, om) in zip(infos, made)
        ]
        assert {lam is None for _, lam in infos} == {True, False}
        self.assert_built(built, expected)

    @pytest.mark.parametrize("name,dims", [("pinching", (3, 4, 64)), ("projective", (2, 5))])
    def test_pinching(self, name, dims):
        infos, made, built = chunk_builds(name, dims, 12)
        self.assert_built(built, [[rho, pinch(rho, OrthogonalResolution(res))] for rho, res in made])

    def test_purified_reductions(self):
        infos, built, states = chunk_states("triangle", self.PAIRS, 12)
        groups = verify._by_info(verify._purified_build)(list(infos), [st[:1] for st in states])
        purified = verify._trial_rows(groups, len(infos))
        expected = []
        for (da, db), mats in zip(infos, built):
            n = da * db
            psi = purify(DensityOperator.from_matrix(mats[0]))
            pure = np.outer(psi, psi.conj())
            reductions = [partial_trace(pure, n, n, "B"), partial_trace(pure, da, db * n, "B")]
            expected.append([DensityOperator.from_matrix(r).eigenvalues for r in reductions])
        # eigenvalue rows, and no eigenvectors, of the reductions
        assert all(len(stack) == 1 for rows in purified for stack, _ in rows)
        self.assert_built([[stack[0][j] for stack, j in rows] for rows in purified], expected)

    def test_fannes_bounds(self):
        # every (trial, point) bound is unified_fannes_bound's at the pair's
        # trace distance, and the kept points are those it does not refuse
        grid = verify.FANNES_GRID + ((0.5, -1.5), (0.5, 0.0), (0.9, 1.0), (1.2, 3.0), (2.5, -0.25))
        points = verify._as_grid(grid, None)
        infos, built, states = chunk_states("fannes", (2, 3, 5), 40)
        ((lhs, bound),), keep, case = verify._fannes_judge(list(enumerate(infos)), states, points)
        refused = 0
        for t, ((d, _), (rho, omega)) in enumerate(zip(infos, built)):
            eps = case(t, 0, 0)["eps"]
            assert eps == trace_distance(DensityOperator(rho), DensityOperator(omega))
            for k, p in enumerate(points):
                try:
                    want = unified_fannes_bound(BoundSpec(p.q, p.s, d, eps))
                except OutOfValidity:
                    refused += 1
                    assert not keep[t, k]
                    continue
                assert keep[t, k] and float(bound[t, k]).hex() == want.hex()
        assert 0 < refused < keep.size

    def test_fannes_distances(self, monkeypatch):
        distances = []
        trace_distances = verify._trace_distances

        def recorded(a, b):
            out = trace_distances(a, b)
            distances.extend(zip(a, b, out.tolist()))
            return out

        monkeypatch.setattr(verify, "_trace_distances", recorded)
        run_check("fannes", trials=12, seed=3, dims=(2, 3, 5))
        assert len(distances) == 12
        for a, b, eps in distances:
            assert eps == trace_distance(DensityOperator(a), DensityOperator(b))


class TestCheckTable:
    """``verify.CHECKS`` is the one description of a check; the expected
    values here are written out, not read back from the table."""

    def test_check_order(self):
        # the order fixes each check's id in the trial seeds
        assert ALL_CHECKS == (
            "ensemble", "mixing", "scalar-lemma", "fannes", "audenaert", "subadd",
            "subadd-violation", "triangle", "pinching", "projective", "qubit-measure",
        )

    @pytest.mark.parametrize(
        "d,refusing",
        [(1, {"fannes", "pinching", "projective"}), (65, {"pinching", "projective"}), (2, set())],
    )
    def test_dimension_ranges(self, d, refusing):
        refused = set()
        for name in ALL_CHECKS:
            try:
                run_check(name, trials=0, seed=0, dims=(d,))
            except DomainError:
                refused.add(name)
        assert refused == refusing

    def test_only_the_violation_search_is_expected_to_break(self):
        breaking = set()
        for name in ALL_CHECKS:
            rep = CheckReport(name)
            _compare_one(rep, 2.0, 1.0, {})
            if report_ok(rep):
                breaking.add(name)
        assert breaking == {"subadd-violation"}

    def test_report_of_a_check_without_a_row(self):
        demo = CheckReport("demo")
        assert not report_ok(demo)
        _compare_one(demo, 1.0, 2.0, {})
        assert report_ok(demo)
        _compare_one(demo, 2.0, 1.0, {})
        assert not report_ok(demo)


SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 9)


class TestTrialGenerators:
    """Each chunk's generators are hashed in one batch, bit for bit
    numpy's ``default_rng((seed, check id, trial))``: this pins numpy's
    frozen SeedSequence -> PCG64 seeding that the batch reproduces."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_state_equals_default_rng(self, seed, name):
        # one-word indices, and chunks across 2**32 and 2**64, whose rows differ in length
        for chunk in (range(70), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 2)):
            rngs = verify._trial_rngs(seed, name, chunk)
            assert len(rngs) == len(chunk)
            for i, rng in zip(chunk, rngs):
                expect = np.random.default_rng((seed, ALL_CHECKS.index(name), i))
                assert rng.bit_generator.state == expect.bit_generator.state

    @pytest.mark.parametrize("seed", [5, 2**64 + 5])
    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_reports_equal_with_default_rng(self, monkeypatch, seed, name):
        batched = run_check(name, trials=70, seed=seed).to_json()

        def one_by_one(seed, check, chunk):
            return [np.random.default_rng((seed, ALL_CHECKS.index(check), i)) for i in chunk]

        monkeypatch.setattr(verify, "_trial_rngs", one_by_one)
        assert run_check(name, trials=70, seed=seed).to_json() == batched


def bits(value) -> bytes:
    """The float64 bytes of a float draw, whatever holds it (float, array, list)."""
    return np.asarray(value, dtype=np.float64).tobytes()


def same_draw(old, new) -> bool:
    """Whether two suite draws hold the same items: None and ints equal,
    floats and arrays equal bit for bit, lists and tuples item by item."""
    if isinstance(old, (list, tuple)):
        return isinstance(new, (list, tuple)) and len(old) == len(new) and all(map(same_draw, old, new))
    if old is None or isinstance(old, int):
        return type(new) is type(old) and new == old
    return np.shape(old) == np.shape(new) and bits(old) == bits(new)


def rng_pair(seed: int) -> tuple:
    return np.random.default_rng(seed), np.random.default_rng(seed)


# Each suite draw as written with numpy's public calls (integers with its
# default int64, uniform, dirichlet) and the argument-checking linops draws.


def public_pick(rng, items):
    return items[int(rng.integers(len(items)))]


def public_ginibre(rng, d):
    return linops._ginibre_draw(d, int(rng.integers(1, d + 1)), rng)


def public_block_ranks(d, rng):
    cuts = int(rng.integers(1, 2 ** (d - 1)))
    ranks, size = [], 1
    for pos in range(d - 1):
        if cuts >> pos & 1:
            ranks.append(size)
            size = 1
        else:
            size += 1
    return ranks + [size]


def public_state(dims, i, rng):
    d = int(public_pick(rng, dims))
    return (rng, d), [public_ginibre(rng, d)]


def public_mixing(dims, i, rng):
    d = int(public_pick(rng, dims))
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    return (d, k, weights), [public_ginibre(rng, d) for _ in range(k)]


def public_fannes(dims, i, rng):
    d = int(public_pick(rng, dims))
    rho = public_ginibre(rng, d)
    if rng.uniform() < 0.5:
        return (d, None), [rho, public_ginibre(rng, d)]
    lam = float(rng.uniform(0.0, 0.3))
    return (d, lam), [rho, linops._ginibre_draw(d, d, rng)]


def public_bipartite(dims, i, rng):
    da, db = public_pick(rng, dims)
    return (da, db), [public_ginibre(rng, da * db)]


def public_violation(dims, i, rng):
    da, db = public_pick(rng, dims)
    return (da, db), [public_ginibre(rng, da), public_ginibre(rng, db), public_ginibre(rng, da * db)]


def public_pinching(every, dims, i, rng):
    d = int(public_pick(rng, dims))
    rho = public_ginibre(rng, d)
    resolution = linops._resolution_draw(d, rng, (1,) * d if i % every == 0 else public_block_ranks(d, rng))
    return (d, len(resolution[0])), [rho, resolution]


PUBLIC_DRAWS = {
    "ensemble": public_state,
    "mixing": public_mixing,
    "fannes": public_fannes,
    "audenaert": public_bipartite,
    "subadd": public_bipartite,
    "subadd-violation": public_violation,
    "triangle": public_bipartite,
    "pinching": lambda dims, i, rng: public_pinching(7, dims, i, rng),
    "projective": lambda dims, i, rng: public_pinching(5, dims, i, rng),
}
ENTRY_SEEDS = range(2000)
#: the bounds of the suites' bounded integers calls: the _pick lengths, a
#: Ginibre rank's (1, d + 1) and an ensemble size's (rank, max(rank, 8) + 1)
#: up to MAX_CHECK_DIM, and mixing's k in 2..4
INT_BOUNDS = (
    [(0, n) for n in range(1, verify.MAX_CHECK_DIM + 1)]
    + [(1, d + 1) for d in range(1, verify.MAX_CHECK_DIM + 1)]
    + [(r, max(r, 8) + 1) for r in range(1, verify.MAX_CHECK_DIM + 1)]
    + [(2, 5)]
)


class TestGeneratorEntryPoints:
    """The suites take their numbers through numpy's cheapest calls that
    return the bits of the public calls they were written with and leave
    the generator in the same state: ``random`` for ``uniform``, unit
    ``standard_exponential`` draws times the reciprocal of their sum for
    ``dirichlet(np.ones(k))``, and ``dtype=np.int32`` for an int64
    ``integers`` below 2^31 (the same 32-bit Lemire draw).  This pins
    numpy's algorithms (2.4.6), as ``TestTrialGenerators`` pins its seeding."""

    def test_bounded_integers_take_the_int32_draw(self):
        for seed in ENTRY_SEEDS:
            old, new = rng_pair(seed)
            # every 13th bound from the seed's offset: each bound meets about 150 seeds
            for lo, hi in INT_BOUNDS[seed % 13 :: 13]:
                if lo == 0:
                    assert old.integers(hi) == verify._pick(new, range(hi))
                else:
                    assert old.integers(lo, hi) == new.integers(lo, hi, dtype=np.int32)
            assert old.bit_generator.state == new.bit_generator.state

    def test_uniform_is_its_formula_on_random(self):
        low, high = verify._LEMMA_LOW, verify._LEMMA_HIGH
        for seed in ENTRY_SEEDS:
            old, new = rng_pair(seed)
            # scalar-lemma's draws from one random(6), then fannes's coin and lambda
            lemma = [*old.uniform(0.0, 1.0, 2), *old.uniform(1.0, 10.0, 2)]
            lemma += [old.uniform(1.0, 4.0), old.uniform(0.01, 1.0)]
            assert bits(lemma) == bits(low + (high - low) * new.random(6))
            assert bits(old.uniform()) == bits(0.0 + (1.0 - 0.0) * new.random())
            assert bits(old.uniform(0.0, 0.3)) == bits(0.0 + (0.3 - 0.0) * new.random())
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unit_dirichlet_is_scaled_exponentials(self, k):
        for seed in ENTRY_SEEDS:
            old, new = rng_pair(seed)
            g = new.standard_exponential(k)
            assert bits(old.dirichlet(np.ones(k))) == bits(g * (1.0 / sum(g.tolist())))
            assert old.bit_generator.state == new.bit_generator.state

    def test_block_ranks_equal_the_cut_loop(self):
        for seed in ENTRY_SEEDS:
            d = 2 + seed % (linops.MAX_RANK_DRAW_DIM - 1)
            old, new = rng_pair(seed)
            assert linops._block_ranks(d, new) == public_block_ranks(d, old)
            assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("name", PUBLIC_DRAWS)
    def test_suite_draw_equals_the_public_calls(self, name):
        suite = verify.CHECKS[name].suite
        for seed in ENTRY_SEEDS:
            old, new = rng_pair(seed)
            info, draws = suite.draw(suite.dims, seed, new)
            want_info, want_draws = PUBLIC_DRAWS[name](suite.dims, seed, old)
            if name == "ensemble":  # the info holds the trial's generator, then d
                info, want_info = info[1:], want_info[1:]
            assert same_draw(want_info, info) and same_draw(want_draws, draws)
            assert old.bit_generator.state == new.bit_generator.state


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

    @pytest.mark.parametrize(
        "pair,shown",
        [
            (("a", 1.0), "'a'"),
            (("2", 1.0), "'2'"),
            ((2.0, Decimal("1")), "Decimal('1')"),
            ((10**400, 1.0), "1" + "0" * 400),
        ],
        ids=["str", "numeric-str", "decimal", "int-past-float-range"],
    )
    def test_refused_value_is_shown_as_given(self, pair, shown):
        # a non-number or an int past the float range used to print as nan or inf
        with pytest.raises(InvalidIndex) as info:
            run_check("fannes", trials=10, seed=0, params_grid=[pair])
        assert str(info.value).endswith(f"got {shown}")

    def test_int_and_numpy_points_run_as_floats(self):
        as_floats = run_check("fannes", trials=10, seed=0, params_grid=[(2.0, 1.0)]).to_json()
        assert run_check("fannes", trials=10, seed=0, params_grid=[(2, 1)]).to_json() == as_floats
        assert run_check("fannes", trials=10, seed=0, params_grid=[(np.float64(2), np.int64(1))]).to_json() == as_floats

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


#: an int whose repr Python refuses (past its 4300-digit limit)
HUGE = 10**5000

REFUSED_SCALARS = {
    "q_log-huge-x": (lambda: q_log(-HUGE, 2.0), DomainError),
    "binary_tsallis-huge-eps": (lambda: binary_tsallis(HUGE, 2.0), DomainError),
    "unified_from_power_sum-huge-t": (lambda: unified_from_power_sum(HUGE, 2.0, 1.0), DomainError),
    "eta_q-huge-x": (lambda: eta_q(-HUGE, 2.0), DomainError),
    "stability-huge-eps": (lambda: StabilityExample("example0", HUGE, 5, 2.0, 1.0), DomainError),
    "stability-huge-variant": (lambda: StabilityExample(HUGE, 0.1, 5, 2.0, 1.0), DomainError),
    "run_check-huge-name": (lambda: run_check(HUGE), DomainError),
    "run_check-unhashable-name": (lambda: run_check([1]), DomainError),
    "partial_trace-huge-keep": (lambda: partial_trace(np.eye(4), 2, 2, HUGE), DomainError),
    "params-str-q": (lambda: UnifiedParams("a", 1.0), InvalidIndex),
    "params-none-s": (lambda: UnifiedParams(2.0, None), InvalidIndex),
    "renyi-str-q": (lambda: renyi([0.5, 0.5], "a"), InvalidIndex),
    "bound-spec-str-eps": (lambda: BoundSpec(2.0, 1.0, 3, "a"), DomainError),
    "lipschitz-str-eps": (lambda: lipschitz_bound("a", 2.0, 1.0), DomainError),
    "q_log-str-x": (lambda: q_log("a", 2.0), DomainError),
    "eta_q-str-x": (lambda: eta_q("a", 2.0), DomainError),
    "binary_tsallis-str-eps": (lambda: binary_tsallis("a", 2.0), DomainError),
    "unified_from_power_sum-str-t": (lambda: unified_from_power_sum("a", 2.0, 1.0), DomainError),
    "stability-str-eps": (lambda: StabilityExample("example0", "a", 5, 2.0, 1.0), DomainError),
    "grid-q-past-float-range": (lambda: run_check("fannes", params_grid=[(10**400, 1.0)]), InvalidIndex),
    "grid-str-q": (lambda: run_check("fannes", params_grid=[("a", 1.0)]), InvalidIndex),
    "grid-point-of-one": (lambda: run_check("fannes", params_grid=[(2.0,)]), DomainError),
    "grid-point-none": (lambda: run_check("fannes", params_grid=[None]), DomainError),
    "grid-not-iterable": (lambda: run_check("fannes", params_grid=5), DomainError),
}


class TestRefusedScalars:
    @pytest.mark.parametrize("call,error", REFUSED_SCALARS.values(), ids=REFUSED_SCALARS.keys())
    def test_refused_with_the_documented_error(self, call, error):
        # each escaped as a bare ValueError, TypeError or OverflowError
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value)


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
            # a bool was read as 1 or 0: trials=True ran one trial
            ({"trials": True}, "trial count must be an integer, got True"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"dims": (True,)}, "dimension must be an integer, got True"),
            # a bare TypeError: 'int' object is not iterable
            ({"dims": 3}, "dims must be a sequence, got 3"),
        ],
    )
    def test_non_integer_input_is_a_domain_error(self, kwargs, message):
        for name in ("ensemble", "subadd", "subadd-violation", "scalar-lemma"):
            with pytest.raises(DomainError, match=message):
                run_check(name, **{"trials": 2, "seed": 0, **kwargs})

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"dims": (10**5000,)}, r"dimension must lie in \[1, 256\]"),
            ({"seed": -(10**5000)}, "seed must be nonnegative"),
            # never a huge positive count: that run would not end
            ({"trials": -(10**5000)}, "trial count must be nonnegative"),
        ],
    )
    def test_giant_ints_are_domain_errors(self, kwargs, message):
        # each ended in a bare ValueError: Python refuses to print the int
        with pytest.raises(DomainError, match=f"{message}, got <int too long to print>"):
            run_check("ensemble", **{"trials": 1, "seed": 0, **kwargs})

    @pytest.mark.parametrize("name", ["fannes", "pinching", "projective"])
    def test_one_level_systems_are_refused_before_any_draw(self, name, monkeypatch):
        """The Fannes bound and random block resolutions need d >= 2, so
        these suites refuse d = 1 before a trial runs, not mid-run."""
        monkeypatch.setattr(verify, "_run_suite", lambda *args: pytest.fail("trials were drawn"))
        with pytest.raises(DomainError, match=f"check {name} needs every dimension >= 2, got 1"):
            run_check(name, trials=20, seed=3, dims=(2, 1))

    @pytest.mark.parametrize("name", ["pinching", "projective"])
    def test_resolution_suites_refuse_more_than_64_levels_before_any_draw(self, name, monkeypatch):
        """Drawn block ranks are the bits of one int64 draw, so d = 65 used
        to stop these suites mid-run with numpy's bare ValueError."""
        monkeypatch.setattr(verify, "_run_suite", lambda *args: pytest.fail("trials were drawn"))
        with pytest.raises(DomainError, match=f"check {name} needs every dimension <= 64, got 65"):
            run_check(name, trials=20, seed=3, dims=(2, 65))

    @pytest.mark.parametrize("name", ["pinching", "projective"])
    def test_resolution_suites_run_64_levels(self, name):
        assert run_check(name, trials=2, seed=3, dims=(64,)).comparisons > 0

    @pytest.mark.parametrize("name", ["audenaert", "ensemble", "mixing", "subadd", "subadd-violation", "triangle"])
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

    def test_rejects_a_non_state(self):
        # reading .dim of the string was a bare AttributeError
        with pytest.raises(DomainError, match="^expected DensityOperator, got str$"):
            qubit_measurement_decrease("x")

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="qubit-measure reports seed 0")
    def test_report_carries_the_seed(self):
        # qubit_measurement_decrease builds CheckReport("qubit-measure",
        # trials=1) without the seed; perfbench/golden and every tests/data
        # report pin "seed": 0 on that line, so the fix is a re-baseline
        assert run_check("qubit-measure", seed=42).seed == 42


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

    def test_array_variant_is_a_domain_error(self):
        # the membership test raised numpy's bare "truth value of an array
        # is ambiguous" ValueError
        with pytest.raises(DomainError, match="variant must be"):
            StabilityExample(np.array(["a", "b"]), 0.1, 5, 2.0, 1.0)

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

    @pytest.mark.parametrize("q", [1.0, 1.0 + 5e-8])
    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
    def test_example1_shannon_branch_matches_explicit_spectra(self, q, s):
        # q within TOL.q_limit of 1: the closed form's Shannon branch for the
        # flat state on d - 1 levels, against the spectra written out
        d, eps = 10, 0.1
        ex = StabilityExample("example1", eps, d, q, s)
        params = UnifiedParams(q, s)
        flat = [0.0] + [1.0 / (d - 1)] * (d - 1)
        perturbed = [eps] + [(1.0 - eps) / (d - 1)] * (d - 1)
        direct = abs(
            unified_classical(flat, params) - unified_classical(perturbed, params)
        ) / max_unified(q, s, d)
        assert stability_ratio(ex) == pytest.approx(direct, abs=1e-15)

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

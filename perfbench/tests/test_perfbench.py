"""Tests of the benchmark itself: seeded inputs, stated sizes, checks, tracing.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entropy_kit.linops import DensityOperator

import reference as ref
import run
import speed
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
CHUNKED = sorted(wl.CHUNKED)


def _same(a, b) -> bool:
    for x, y in zip(vars(a).values(), vars(b).values()):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)):
                return False
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def _all_same(xs, ys) -> bool:
    return len(xs) == len(ys) and all(_same(x, y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("name", CHUNKED)
def test_same_seed_gives_same_inputs(name):
    chunk = wl.CHUNKED[name].chunk
    assert _all_same(chunk(5, 0), chunk(5, 0))
    assert _all_same(chunk(5, 3), chunk(5, 3))


@pytest.mark.parametrize("name", CHUNKED)
def test_other_seed_or_chunk_gives_other_inputs(name):
    chunk = wl.CHUNKED[name].chunk
    assert not _all_same(chunk(5, 0), chunk(6, 0))
    assert not _all_same(chunk(5, 0), chunk(5, 1))


def test_harness_input_is_the_seed():
    assert wl.harness_argv(7) == ["check", "all", "--trials", "1000", "--seed", "7", "--json"]


def test_golden_report_sizes():
    counts = wl.report_counts(run.GOLDEN.read_text())
    assert counts["suites"] == list(run.SUITES)
    assert counts["trials"] == 10 * wl.HARNESS_TRIALS + 2
    trials, failed = wl.harness_failed_trials(run.GOLDEN.read_text(), None)
    assert (trials, failed) == (counts["trials"], 0)


def test_sweep_grid_covers_the_stated_points():
    grid = wl.SWEEP_GRID
    assert 150 <= len(grid) <= 200 and len(set(grid)) == len(grid)
    qs = np.array([q for q, _ in grid])
    ss = np.array([s for _, s in grid])
    dq, ds = np.abs(qs - 1.0), np.abs(ss)
    assert ((dq > 0) & (dq < ref.Q_WINDOW)).any() and (dq == 0).any()
    assert ((dq > ref.Q_WINDOW) & (dq <= 1e-5)).any()
    assert ((ds > 0) & (ds < ref.S_WINDOW)).any() and (ds == 0).any()
    assert ((ds > ref.S_WINDOW) & (ds <= 1e-8)).any()
    assert (ss == 1.0).any()
    for k in wl._TYPE_Q:
        assert (1.0 / k, k) in grid
    for (q, _), (lo, hi) in zip(grid, wl.SWEEP_EPS):
        assert 2 * lo < ref.low_threshold(q) < 2 * hi


def test_op_counts_match_stated_sizes():
    sweep = wl.sweep_chunk(1, 0)
    assert len(sweep) == wl.SWEEP_CHUNK
    assert all(wl.SWEEP_DIMS[0] <= inp.d <= wl.SWEEP_DIMS[1] for inp in sweep)
    quantum, classical, bounds = wl.sweep_op(sweep[0])
    assert (len(quantum), len(classical), len(bounds)) == (171, 171, 342)
    states = wl.states_chunk(1, 0)
    assert len(states) == wl.STATES_CHUNK
    assert all(inp.d in wl.STATES_DIMS and inp.a.shape == (inp.d, inp.d) for inp in states)
    res = run.run_chunked(wl.CHUNKED["states"], 1, n_ops=5)
    assert res["attempted"] == len(res["latencies"]) == 5
    assert res["input_dim3_sum"] == sum(2 * inp.d**3 for inp in states[:5])
    assert res["correct"] and res["failed"] == 0


def test_gauge_scales_each_op_time_to_nominal_speed():
    res = run.run_chunked(wl.CHUNKED["sweep"], 2, n_ops=5)
    assert len(res["speed"]) == len(res["latencies"]) == 5
    assert all(0.05 < f < 20 for f in res["speed"])
    assert res["chunks"] == 1
    assert speed.reference_s() > speed.reference_s(speed.OP_REPS) > 0


def test_chunked_run_is_correct_across_chunks():
    res = run.run_chunked(wl.CHUNKED["sweep"], 2, n_ops=wl.SWEEP_CHUNK + 3)
    assert res["attempted"] == wl.SWEEP_CHUNK + 3 and res["chunks"] == 2
    assert res["correct"]


@pytest.mark.parametrize("name", CHUNKED)
def test_checks_reject_a_wrong_entropy(name):
    kind = wl.CHUNKED[name]
    inp = kind.chunk(3, 0)[0]
    out = kind.op(inp)
    assert kind.check(inp, out) == (True, True)
    if name == "sweep":
        quantum = list(out[0])
        quantum[10] += 1e-6
        wrong = (quantum,) + tuple(out[1:])
    else:
        wrong = out[:3] + (out[3] + 1e-6,)
    assert kind.check(inp, wrong) == (False, False)


def test_states_check_rejects_a_wrong_trace_distance():
    inp = wl.states_chunk(3, 0)[0]
    psi, ens, dist, value = wl.states_op(inp)
    assert wl.states_check(inp, (psi, ens, dist * (1 + 1e-6), value)) == (False, False)


def test_tiny_entries_are_correct_with_or_without_the_rank_snap():
    """Entries below the 1e-12 snap: the snapped value and the exact one
    are both accepted, so a run stays correct when the snap is fixed."""
    probs = np.array([1.0 - 1e-13, 1e-13])
    inp = wl.SweepInput(2, 2, None, probs)
    quantum, classical, bounds = wl.sweep_op(inp)
    exact_quantum = list(ref.unified(probs, wl._QS, wl._SS))
    snapped_quantum = list(ref.unified(ref.snapped(probs), wl._QS, wl._SS))
    for values in (quantum, exact_quantum, snapped_quantum):
        exact, documented = wl.sweep_check(inp, (values, classical, bounds))
        assert exact or documented
    assert wl.sweep_check(inp, (exact_quantum, classical, bounds))[0]

    kind = wl.Chunked(lambda seed, chunk: [inp], wl.sweep_op, wl.sweep_check, 1)
    res = run.run_chunked(kind, 0, n_ops=1)
    exact, _ = wl.sweep_check(inp, wl.sweep_op(inp))
    assert res["correct"] and res["failed"] == 0
    assert res["exact_missed"] == (not exact)


def test_reference_matches_closed_forms():
    qs, ss = np.array([2.0, 0.5, 1.0, 3.0]), np.array([1.0, 0.0, 2.0, -1.0])
    flat = np.full(4, 0.25)
    assert np.allclose(ref.unified(flat, qs, ss), ref.max_unified(qs, ss, 4), rtol=1e-14)
    assert ref.unified(np.array([0.5, 0.5]), qs[:1], ss[:1])[0] == pytest.approx(0.5, rel=1e-15)
    assert ref.fannes_bound(2.0, 1.0, 4, 0.1) == pytest.approx(0.18666666666666668, rel=1e-14)
    assert np.isnan(ref.fannes_bound(1.5, 0.5, 4, 0.1))


def _bindings():
    namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "entropy_kit"]
    return {
        (ns.__name__, attr): value
        for ns in namespaces + [wl]
        for attr, value in vars(ns).items()
        if callable(value)
    } | {("DensityOperator", "__post_init__"): DensityOperator.__post_init__}


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    inp = wl.sweep_chunk(1, 0)[0]
    tracer = tracing.Tracer()
    with tracer:
        assert wl.unified_quantum is not before[("workloads", "unified_quantum")]
        assert DensityOperator.__post_init__ is not before[("DensityOperator", "__post_init__")]
        wl.sweep_op(inp)
    assert _bindings() == before
    summary = tracer.summary()
    assert summary["entropies:unified_quantum"]["calls"] == len(wl.SWEEP_GRID)
    assert summary["linops.density:DensityOperator"]["calls"] == 1
    assert summary["linops.density:DensityOperator"]["detail3"] == inp.d**3


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _bindings() == before


def test_traced_harness_report_is_byte_identical():
    code, plain = wl.run_harness_pass(11, 3)
    tracer = tracing.Tracer()
    with tracer:
        traced_code, traced = wl.run_harness_pass(11, 3)
    assert (code, plain) == (traced_code, traced)
    names = set(tracer.summary())
    assert {f"verify.{s}:run_check" for s in run.SUITES} <= names
    assert "cli:main" in names


def test_harness_latencies_are_per_suite_times_per_trial():
    res = run.run_harness(wl, 11, passes=1)
    (seg,) = res["segments"]
    assert len(seg) == res["attempted"] == 10 * wl.HARNESS_TRIALS + 2
    assert res["correct"] and res["failed"] == 0
    assert len(np.unique(seg)) == len(run.SUITES)
    assert np.median(seg) < np.percentile(seg, 99.0)
    assert 0 < seg.sum() <= res["op_s"]


def test_set_up_is_timed_in_a_fresh_interpreter():
    total_s, cli_s = run.probe_set_up("sweep", 1)
    assert 0 < cli_s < total_s


def test_printed_metrics_match_benchmark_spec():
    setup = {"setup_s": 0.1, "cli_import_s": 0.01}
    fake = {"attempted": 4, "failed": 0, "exact_missed": 1, "op_s": 1.0, "segments": [[0.1, 0.2, 0.3, 0.4]]}
    assert list(run.end_to_end(fake, setup)) == [m["name"] for m in SPEC["end_to_end"]]
    layer = run.per_layer({}, {}, setup, 1.5)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    for metrics, spec in ((run.end_to_end(fake, setup), "end_to_end"), (layer, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[spec]}
        assert all(unit == units[name] for name, (_, unit) in metrics.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_exits_without_result_when_library_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""

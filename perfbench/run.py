"""Benchmark of entropy-kit: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

- ``harness``: ``entropy-kit check all --trials 1000 --seed <seed> --json``
  through ``cli.main`` in-process, pass after pass; an op is a suite trial.
- ``sweep``: one small state, then every point of a 171-point (q, s) grid.
- ``states``: one state at d in {16, 32, 64}, then its eigenvector users.

One closed loop, one caller, one BLAS thread.  ``--trace 0`` times the
workload for ``--seconds`` and prints the end-to-end metrics; ``--trace 1``
runs a fixed amount of work untraced and then traced, and prints the
per-layer metrics.  Op times are CPU times scaled to nominal host speed
(see speed.py).  Every op's outputs are checked after its chunk is
timed.  Set-up (import, first inputs, warm-up) is timed in fresh
interpreters.  The last line of standard output is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# The library's work is single-threaded; pin BLAS to one thread before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden" / "check-all-trials1000-seed42.jsonl"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("harness", "sweep", "states")
SUITES = (
    "ensemble", "mixing", "scalar-lemma", "fannes", "audenaert", "subadd",
    "subadd-violation", "triangle", "pinching", "projective", "qubit-measure",
)
#: set-ups per run; setup_s is their median
SETUP_REPS = 7
#: share of --seconds the untraced half of a traced sweep/states run takes
TRACE_SHARE = 1.0 / 3.0
#: ops per latency segment: enough for ten samples beyond p99.  The machine's
#: speed drifts over seconds, so percentiles are taken per segment and averaged.
SEGMENT_OPS = 1000

#: one whole set-up in a fresh interpreter; argv is (workload, seed)
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import entropy_kit
t1 = time.perf_counter()
import entropy_kit.cli
t2 = time.perf_counter()
import workloads
workloads.warm_up(sys.argv[1], int(sys.argv[2]))
t3 = time.perf_counter()
print(t3 - t0, t2 - t1, entropy_kit.__file__)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------- set-up


def probe_set_up(name: str, seed: int) -> tuple[float, float]:
    """Wall seconds of one set-up in a fresh interpreter (import entropy_kit
    and its CLI, generate the first inputs, warm up), and of the CLI import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    res = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, name, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    total_s, cli_s, path = res.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"probe imported entropy_kit from {path}, not from {SRC}")
    return float(total_s), float(cli_s)


def set_up(name: str, seed: int) -> dict:
    """SETUP_REPS set-ups, each in a fresh interpreter so that first-call
    costs count every time; each wall time is scaled to nominal host speed
    (see speed.py)."""
    gauge = speed.Gauge()
    totals, cli_imports = [], []
    for _ in range(SETUP_REPS):
        total_s, cli_s = probe_set_up(name, seed)
        totals.append(total_s * gauge.factor())
        cli_imports.append(cli_s)
    return {"setup_s": statistics.median(totals), "cli_import_s": statistics.median(cli_imports)}


# --------------------------------------------------------------- running


def run_chunked(kind, seed, seconds=None, n_ops=None, tracer=None) -> dict:
    """Time ops chunk by chunk until ``seconds`` of wall time in ops, or
    ``n_ops`` ops; inputs are generated and outputs checked between chunks.
    Op times are CPU times, each scaled to nominal host speed by the short
    kernel read after every op (see speed.py)."""
    from entropy_kit import EntropyKitError

    latencies, raw, busy, chunk, dims3 = [], [], 0.0, 0, 0
    failed, missed, correct = 0, 0, True
    gauge = speed.Gauge(speed.OP_REPS, speed.OP_NOMINAL_S)
    while (busy < seconds) if n_ops is None else (len(latencies) < n_ops):
        inputs = kind.chunk(seed, chunk)
        chunk += 1
        if n_ops is not None:
            inputs = inputs[: n_ops - len(latencies)]
        outputs, times, scales = [], [], []
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            for inp in inputs:
                if tracer is not None:
                    tracer.op = len(latencies) + len(times)
                t0 = speed.clock()
                try:
                    out = kind.op(inp)
                except EntropyKitError as exc:
                    out = exc
                times.append(speed.clock() - t0)
                scales.append(gauge.factor())
                outputs.append(out)
            busy += time.perf_counter() - start
        raw += times
        latencies += [t * f for t, f in zip(times, scales)]
        for inp, out in zip(inputs, outputs):
            exact, documented = (
                (False, False) if isinstance(out, Exception) else kind.check(inp, out)
            )
            missed += not exact
            failed += not (exact or documented)
            correct = correct and (exact or documented)
            dims3 += kind.matrices_per_op * inp.d**3
    return {
        "attempted": len(latencies), "failed": failed, "exact_missed": missed,
        "correct": correct, "latencies": latencies, "op_s": sum(latencies), "raw_s": sum(raw),
        "speed": gauge.factors, "chunks": chunk, "input_dim3_sum": dims3,
        "segments": segments(latencies),
    }


def segments(latencies: list) -> list:
    """Consecutive runs of SEGMENT_OPS ops (the remainder joins the last one)."""
    n = max(1, len(latencies) // SEGMENT_OPS)
    bounds = [i * SEGMENT_OPS for i in range(n)] + [len(latencies)]
    return [latencies[a:b] for a, b in zip(bounds, bounds[1:])]


def trial_latencies(suites: list, text: str) -> np.ndarray:
    """One latency per suite trial of a pass: its suite's run_check time per trial."""
    reports = [json.loads(line) for line in text.splitlines()]
    if [r["check"] for r in reports] != [name for name, _ in suites]:
        raise RuntimeError("timed run_check calls do not match the report's suites")
    return np.concatenate([
        np.full(r["trials"], secs / r["trials"])
        for r, (_, secs) in zip(reports, suites)
        if r["trials"]
    ])


def run_harness(wl, seed, seconds=None, passes=None, tracers=()) -> dict:
    """Passes of ``check all`` until ``seconds`` of wall time have gone (at
    least two passes) or ``passes`` passes; pass i runs under ``tracers[i]``.

    Every report must equal the golden one on the golden seed; on any
    seed each pass must equal the first and every suite must pass.  Each
    pass is one latency segment (see trial_latencies).  Without tracers the
    host-speed gauge is read after every suite and scales that suite; with
    tracers it is read once per pass, so that no gauge time falls inside a
    traced span.
    """
    expected = GOLDEN.read_text() if seed == wl.GOLDEN_SEED else None
    times, raw, segs, trials, failed, correct, report = [], [], [], 0, 0, True, None
    start = time.perf_counter()
    gauge = speed.Gauge()

    def more() -> bool:
        if passes is not None:
            return len(times) < passes
        return len(times) < 2 or time.perf_counter() - start < seconds

    while more():
        tracer = tracers[len(times)] if len(times) < len(tracers) else None
        suites, spent = [], gauge.spent
        timed = wl.timed_suites(suites, None if tracers else gauge)
        with tracer if tracer is not None else contextlib.nullcontext(), timed:
            t0 = speed.clock()
            code, text = wl.run_harness_pass(seed)
            raw.append(speed.clock() - t0 - (gauge.spent - spent))
        # the rest of the pass (argparse, formatting) takes the pass-end scale
        scale = gauge.factor()
        scaled = [(name, secs * (scale if f is None else f)) for name, secs, f in suites]
        rest = raw[-1] - sum(secs for _, secs, _ in suites)
        times.append(sum(secs for _, secs in scaled) + rest * scale)
        segs.append(trial_latencies(scaled, text))
        n, bad = wl.harness_failed_trials(text, expected)
        correct = correct and code == 0 and bad == 0 and (expected in (None, text))
        if expected is None:
            expected = text
        trials, failed, report = trials + n, failed + bad, text
    return {
        "attempted": trials, "failed": failed, "exact_missed": failed,
        "correct": correct, "segments": segs, "op_s": sum(times), "raw_s": sum(raw),
        "speed": gauge.factors, "passes": len(times),
        "report": report, "pass_s": times, "trials_per_pass": round(trials / len(times)),
    }


# --------------------------------------------------------------- metrics


def end_to_end(run: dict, setup: dict) -> dict:
    """Throughput over all op time; percentiles per segment, averaged over segments."""
    segs = run["segments"]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (run["attempted"] / run["op_s"], "1/s"),
        "op_p50_ms": (statistics.fmean(1e3 * statistics.median(seg) for seg in segs), "ms"),
        "op_p99_ms": (statistics.fmean(1e3 * np.percentile(seg, 99.0) for seg in segs), "ms"),
        "exact_ratio": (1.0 - run["exact_missed"] / run["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summary: dict, counts: dict, setup: dict, overhead: float) -> dict:
    def agg(prefix: str, field: str, fn: str | None = None):
        return sum(
            v[field]
            for name, v in summary.items()
            if (name.split(":")[0] == prefix or name.startswith(prefix + "."))
            and (fn is None or name.endswith(":" + fn))
        )

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    d_calls = agg("linops.density", "calls")
    d_self = agg("linops.density", "self_s")
    out["linops.density.calls"] = (d_calls, "count")
    out["linops.density.self_s"] = (d_self, "s")
    out["linops.density.us_per_call"] = (1e6 * ratio(d_self, d_calls), "us")
    out["linops.density.dim3_sum"] = (agg("linops.density", "detail3"), "count")
    for group in ("composite", "sampling", "trace_distance"):
        out[f"linops.{group}.calls"] = (agg(f"linops.{group}", "calls"), "count")
        out[f"linops.{group}.self_s"] = (agg(f"linops.{group}", "self_s"), "s")
    eigvec_users = agg("linops", "calls", "purify") + agg("linops", "calls", "ensemble_from_state")
    out["linops.eigvec_use_ratio"] = (ratio(eigvec_users, d_calls), "ratio")
    e_calls, e_self = agg("entropies", "calls"), agg("entropies", "self_s")
    out["entropies.calls"] = (e_calls, "count")
    out["entropies.self_s"] = (e_self, "s")
    out["entropies.us_per_call"] = (1e6 * ratio(e_self, e_calls), "us")
    out["entropies.limit_share"] = (ratio(agg("entropies", "limit"), e_calls), "ratio")
    out["bounds.calls"] = (agg("bounds", "calls"), "count")
    out["bounds.self_s"] = (agg("bounds", "self_s"), "s")
    out["bounds.valid_ratio"] = (
        ratio(agg("bounds", "outer_ok"), agg("bounds", "outer")), "ratio"
    )
    for suite in SUITES:
        out[f"verify.{suite}.s"] = (agg(f"verify.{suite}", "total_s"), "s")
    out["verify.self_s"] = (agg("verify", "self_s"), "s")
    for key in ("trials", "skipped", "failures"):
        out[f"verify.{key}"] = (counts.get(key, 0), "count")
    out["cli.import_s"] = (setup["cli_import_s"], "s")
    out["cli.self_s"] = (agg("cli", "self_s"), "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# ------------------------------------------------------------ provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args, sizes: dict) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **sizes,
    }


# ------------------------------------------------------------------ main


def import_library():
    """Import entropy_kit from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "entropy_kit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/entropy_kit not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entropy_kit

    if not Path(entropy_kit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: entropy_kit imported from {entropy_kit.__file__}, not {SRC}")


def sizes_of(name: str, wl, run: dict) -> dict:
    if name == "harness":
        return {
            "ops": run["attempted"], "passes": run["passes"],
            "trials_per_pass": run["trials_per_pass"], "pass_s": run["pass_s"],
        }
    dims = wl.SWEEP_DIMS if name == "sweep" else wl.STATES_DIMS
    sizes = {"ops": run["attempted"], "chunks": run["chunks"], "dims": list(dims),
             "input_dim3_sum": run["input_dim3_sum"]}
    if name == "sweep":
        sizes["grid_points"] = len(wl.SWEEP_GRID)
        sizes["bound_evaluations_per_op"] = 2 * len(wl.SWEEP_GRID)
    return sizes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads as wl

    setup = set_up(args.workload, args.seed)
    # warm this process up too, untimed, so the timed loop pays no first-call costs
    wl.warm_up(args.workload, args.seed)
    if args.trace == 0:
        if args.workload == "harness":
            run = run_harness(wl, args.seed, seconds=args.seconds)
        else:
            run = run_chunked(wl.CHUNKED[args.workload], args.seed, seconds=args.seconds)
        metrics = end_to_end(run, setup)
        runs = [run]
    else:
        tracer = tracing.Tracer()
        if args.workload == "harness":
            both = run_harness(wl, args.seed, passes=2, tracers=(None, tracer))
            untraced_s, traced_s = both["pass_s"]
            run, runs = both, [both]
            counts = wl.report_counts(both["report"])
        else:
            kind = wl.CHUNKED[args.workload]
            plain = run_chunked(kind, args.seed, seconds=args.seconds * TRACE_SHARE)
            run = run_chunked(kind, args.seed, n_ops=plain["attempted"], tracer=tracer)
            untraced_s, traced_s = sum(plain["latencies"]), sum(run["latencies"])
            runs, counts = [plain, run], {}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}.npz")
        metrics = per_layer(tracer.summary(), counts, setup, traced_s / untraced_s)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    missed = sum(r["exact_missed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:<22.10g} {unit}")
    print(f"{'fail_ratio':<28} {failed / attempted:<22.10g} ratio")
    print(f"{'exact_miss_ratio':<28} {missed / attempted:<22.10g} ratio")
    print(
        f"host speed factor: median {statistics.median(run['speed']):.4g} "
        f"(min {min(run['speed']):.4g}, max {max(run['speed']):.4g}); unscaled ops_per_s "
        f"{run['attempted'] / run['raw_s']:.6g}"
    )
    print(
        f"latency samples: {sum(map(len, run['segments']))} in {len(run['segments'])} segment(s); "
        f"attempted={attempted} failed={failed} exact_missed={missed} correct={correct}"
    )
    segs = run["segments"]
    print("segments: " + json.dumps({
        "ops_per_s": [len(seg) / sum(seg) for seg in segs],
        "p50_ms": [1e3 * statistics.median(seg) for seg in segs],
        "p99_ms": [1e3 * float(np.percentile(seg, 99.0)) for seg in segs],
    }))
    print("provenance: " + json.dumps(provenance(args, sizes_of(args.workload, wl, run))))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

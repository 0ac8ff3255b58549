"""The three workloads: their seeded inputs, one op each, and the checks.

Every input is drawn from ``numpy.random.default_rng((seed, workload id,
chunk index))``, so a run's inputs depend only on the seed and on how many
chunks the run reaches, never on timing.  The library receives only the
generated inputs.  Checks compare each op's outputs with ``reference``
and run after the op's chunk has been timed.

A check returns two verdicts.  ``exact`` compares with the mathematically
exact spectrum; the share of ops that meet it is the ``exact_ratio``
metric.  ``documented`` compares with the spectrum after the library's
documented 1e-12 rank snap, without the sign check (the snap itself can
push a value below 0).  An op is correct when it meets either: the exact
value, or the value the library's current contract promises; an op that
meets neither is failed, and the run is then not correct.  The two
differ only on spectra with entries at or below 1e-12, which the sweep
keeps on purpose.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass

import numpy as np

from entropy_kit import (
    BoundSpec,
    DensityOperator,
    OutOfValidity,
    ProbabilityDistribution,
    UnifiedParams,
    diagonal_density,
    ensemble_from_state,
    purify,
    trace_distance,
    unified_classical,
    unified_fannes_bound,
    unified_quantum,
)
from entropy_kit import cli
from entropy_kit.cli import main as cli_main

import reference as ref
import speed

WORKLOAD_IDS = {"harness": 0, "sweep": 1, "states": 2}


def _chunk_rng(seed: int, workload: str, chunk: int) -> np.random.Generator:
    return np.random.default_rng((seed, WORKLOAD_IDS[workload], chunk))


def _ginibre(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    a = g @ g.conj().T
    return a / a.trace().real


# ---------------------------------------------------------------- harness

HARNESS_TRIALS = 1000
WARMUP_TRIALS = 10
GOLDEN_SEED = 42


def harness_argv(seed: int, trials: int = HARNESS_TRIALS) -> list[str]:
    return ["check", "all", "--trials", str(trials), "--seed", str(seed), "--json"]


def run_harness_pass(seed: int, trials: int = HARNESS_TRIALS) -> tuple[int, str]:
    """One in-process ``entropy-kit check all --json``; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(harness_argv(seed, trials))
    return code, buf.getvalue()


@contextlib.contextmanager
def timed_suites(times: list, gauge=None):
    """Append (suite, CPU seconds, scale) to ``times`` for each ``run_check``
    the CLI makes inside the block, wrapping whatever ``cli.run_check`` is
    then.  ``scale`` is ``gauge.factor()`` read right after the suite, or
    None without a gauge."""
    inner = cli.run_check

    def run_check(name, *args, **kwargs):
        t0 = speed.clock()
        try:
            return inner(name, *args, **kwargs)
        finally:
            secs = speed.clock() - t0
            times.append((name, secs, None if gauge is None else gauge.factor()))

    cli.run_check = run_check
    try:
        yield
    finally:
        cli.run_check = inner


def suite_passes(report: dict) -> bool:
    """The CLI's verdict: no failures, except the violation search must find one."""
    if report["check"] == "subadd-violation":
        return report["failures"] >= 1
    return report["failures"] == 0


def harness_failed_trials(text: str, expected: str | None) -> tuple[int, int]:
    """(trials, failed trials) of one report: a suite fails when it does not
    pass or when its line differs from the expected report."""
    expected_lines = None if expected is None else expected.splitlines()
    trials = failed = 0
    for i, line in enumerate(text.splitlines()):
        report = json.loads(line)
        trials += report["trials"]
        same = expected_lines is None or (
            i < len(expected_lines) and expected_lines[i] == line
        )
        if not (same and suite_passes(report)):
            failed += report["trials"]
    return trials, failed


def report_counts(text: str) -> dict:
    """Exact trials / skipped / failures summed over the suites, and the suite names."""
    reports = [json.loads(line) for line in text.splitlines()]
    return {
        "suites": [r["check"] for r in reports],
        "trials": sum(r["trials"] for r in reports),
        "skipped": sum(r["skipped"] for r in reports),
        "failures": sum(r["failures"] for r in reports),
    }


# ------------------------------------------------------------------ sweep

_GRID_Q = (
    0.1, 0.3, 0.5, 0.7, 0.9,
    1.0 - 5e-8, 1.0, 1.0 + 5e-8,  # inside the q -> 1 window
    # just outside it; E amplifies a spectrum's rounding by 1/|q - 1|, so a
    # 1e-9 comparison needs |q - 1| well above 1e-7 (see README.md)
    1.0 - 1e-5, 1.0 + 1e-5,
    1.5, 2.0, 2.5, 3.0, 5.0,
)
_GRID_S = (
    -2.0, -1.0, -0.5,
    -5e-10, 0.0, 5e-10,  # inside the s -> 0 window
    -1e-8, 1e-8,  # just outside it
    0.5, 1.0, 2.0,
)
#: type-q pairs (1/q, q) whose first index is not already on the grid
_TYPE_Q = (3.0, 1.5, 4.0, 0.25, 0.8, 1.25)

SWEEP_GRID = tuple((q, s) for q in _GRID_Q for s in _GRID_S) + tuple(
    (1.0 / k, k) for k in _TYPE_Q
)
SWEEP_PARAMS = tuple(UnifiedParams(q, s) for q, s in SWEEP_GRID)
_QS = np.array([q for q, _ in SWEEP_GRID])
_SS = np.array([s for _, s in SWEEP_GRID])
#: two trace distances per grid point, 10 % below and above the
#: low-index threshold 2 eps = q^(1/(1-q))
SWEEP_EPS = tuple(
    tuple(f * ref.low_threshold(q) / 2.0 for f in (0.9, 1.1)) for q, _ in SWEEP_GRID
)
SWEEP_DIMS = (2, 16)
SWEEP_CHUNK = 32


@dataclass(frozen=True)
class SweepInput:
    d: int
    rank: int
    mat: np.ndarray | None  # a normalized Ginibre state, or None
    probs: np.ndarray  # the distribution, or the diagonal of mat

    def spectrum(self) -> np.ndarray:
        if self.mat is None:
            return self.probs
        return ref.top_eigenvalues(self.mat, self.rank)


def sweep_chunk(seed: int, chunk: int) -> list[SweepInput]:
    """Half raw Ginibre states of random rank, half Dirichlet distributions
    whose concentration spans 0.01..1, so some entries fall far below 1e-12."""
    rng = _chunk_rng(seed, "sweep", chunk)
    out = []
    for _ in range(SWEEP_CHUNK):
        d = int(rng.integers(SWEEP_DIMS[0], SWEEP_DIMS[1] + 1))
        if rng.random() < 0.5:
            rank = int(rng.integers(1, d + 1))
            mat = _ginibre(rng, d, rank)
            out.append(SweepInput(d, rank, mat, mat.diagonal().real.copy()))
        else:
            alpha = 10.0 ** rng.uniform(-2.0, 0.0)
            probs = rng.dirichlet(np.full(d, alpha))
            out.append(SweepInput(d, d, None, probs))
    return out


def sweep_op(inp: SweepInput):
    """One state, then the whole grid: quantum, classical and two bounds per point."""
    if inp.mat is None:
        rho = diagonal_density(inp.probs)
    else:
        rho = DensityOperator.from_matrix(inp.mat)
    dist = ProbabilityDistribution(inp.probs)
    quantum = [unified_quantum(rho, params) for params in SWEEP_PARAMS]
    classical = [unified_classical(dist, params) for params in SWEEP_PARAMS]
    bounds = []
    for (q, s), eps_pair in zip(SWEEP_GRID, SWEEP_EPS):
        for eps in eps_pair:
            try:
                bounds.append(unified_fannes_bound(BoundSpec(q, s, inp.d, eps)))
            except OutOfValidity:
                bounds.append(float("nan"))
    return quantum, classical, bounds


def _entropy_ok(values, spectrum, d: int, qs=_QS, ss=_SS, signed=True) -> bool:
    """Agreement with the reference, and E <= max within the same slack;
    with ``signed`` also E >= 0 within it."""
    want = ref.unified(spectrum, qs, ss)
    top = ref.max_unified(qs, ss, d)
    values = np.asarray(values)
    slack = ref.REL_TOL * (1.0 + np.abs(want))
    return bool(
        ref.close(values, want).all()
        and (not signed or (values >= -slack).all())
        and (values <= top + ref.REL_TOL * (1.0 + top)).all()
    )


@functools.lru_cache(maxsize=None)
def _sweep_bounds(d: int) -> np.ndarray:
    """Reference bounds over the grid; they depend on the state only through d."""
    return np.array([
        ref.fannes_bound(q, s, d, eps)
        for (q, s), eps_pair in zip(SWEEP_GRID, SWEEP_EPS)
        for eps in eps_pair
    ])


def sweep_check(inp: SweepInput, out) -> tuple[bool, bool]:
    quantum, classical, bounds = out
    common = _entropy_ok(classical, inp.probs, inp.d) and bool(
        ref.close(bounds, _sweep_bounds(inp.d)).all()
    )
    spectrum = inp.spectrum()
    exact = common and _entropy_ok(quantum, spectrum, inp.d)
    documented = common and _entropy_ok(
        quantum, ref.snapped(spectrum), inp.d, signed=False
    )
    return exact, documented


# ----------------------------------------------------------------- states

STATES_DIMS = (16, 32, 64)
STATES_POINTS = ((0.5, 1.0), (2.0, 1.0), (0.7, -1.0), (3.0, 0.5), (1.0, 0.0))
STATES_CHUNK = 16


@dataclass(frozen=True)
class StatesInput:
    d: int
    rank: int
    a: np.ndarray
    b: np.ndarray
    ensemble_seed: int
    params: UnifiedParams


def states_chunk(seed: int, chunk: int) -> list[StatesInput]:
    rng = _chunk_rng(seed, "states", chunk)
    out = []
    for _ in range(STATES_CHUNK):
        d = int(STATES_DIMS[rng.integers(len(STATES_DIMS))])
        rank = int(rng.integers(1, d + 1))
        a = _ginibre(rng, d, rank)
        b = _ginibre(rng, d, int(rng.integers(1, d + 1)))
        q, s = STATES_POINTS[rng.integers(len(STATES_POINTS))]
        seed_e = int(rng.integers(2**63))
        out.append(StatesInput(d, rank, a, b, seed_e, UnifiedParams(q, s)))
    return out


def states_op(inp: StatesInput):
    """Two constructions, then the eigenvector consumers and one entropy."""
    rho = DensityOperator.from_matrix(inp.a)
    sigma = DensityOperator.from_matrix(inp.b)
    psi = purify(rho)
    ens = ensemble_from_state(rho, inp.d, inp.ensemble_seed)
    dist = trace_distance(rho, sigma)
    value = unified_quantum(rho, inp.params)
    return psi, ens, dist, value


def states_check(inp: StatesInput, out) -> tuple[bool, bool]:
    psi, ens, dist, value = out
    d = inp.d
    half = psi.reshape(d, d)
    vecs = np.array(ens.states)
    average = (vecs.T * ens.weights.probs) @ vecs.conj()
    common = (
        ref.max_abs(half @ half.conj().T, inp.a) <= ref.REL_TOL
        and ref.max_abs(average, inp.a) <= ref.REL_TOL
        and ens.size <= d
        and bool(ref.close(dist, ref.trace_distance(inp.a, inp.b)))
    )
    qs = np.array([inp.params.q])
    ss = np.array([inp.params.s])
    spectrum = ref.top_eigenvalues(inp.a, inp.rank)
    exact = common and _entropy_ok([value], spectrum, d, qs, ss)
    documented = common and _entropy_ok(
        [value], ref.snapped(spectrum), d, qs, ss, signed=False
    )
    return exact, documented


@dataclass(frozen=True)
class Chunked:
    """A workload made of independent ops over chunks of seeded inputs."""

    chunk: object  # (seed, chunk index) -> list of inputs
    op: object  # input -> outputs; the only timed call
    check: object  # (input, outputs) -> (exact, documented)
    matrices_per_op: int  # d x d inputs per op, for the stated input size


CHUNKED = {
    "sweep": Chunked(sweep_chunk, sweep_op, sweep_check, 1),
    "states": Chunked(states_chunk, states_op, states_check, 2),
}


#: ops run untimed in each set-up, on the first chunk of inputs
WARMUP_OPS = 4


def warm_up(name: str, seed: int) -> None:
    """Generate the first inputs and run a few ops on them: the set-up after import."""
    if name == "harness":
        run_harness_pass(seed, WARMUP_TRIALS)
        return
    kind = CHUNKED[name]
    for inp in kind.chunk(seed, 0)[:WARMUP_OPS]:
        kind.op(inp)

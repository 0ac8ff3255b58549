"""Randomized, seeded verification of the entropy family's inequalities.

Every check draws its per-trial randomness from a SeedSequence built on
(seed, check id, trial index), so reports are reproducible byte for byte
regardless of execution order.  The random-state suites are rows of
``SUITES``, each a draw and a judge, run by one loop: it draws the
matrices of a chunk of trials (``STATE_CHUNK`` of them, fewer for large
matrices), builds all of their states with one stacked
``density_operators`` call and hands them to the suite's judge, which
reads them at every grid point as one table and judges the chunk's
claims as arrays over (trial, point, case), each step bit-identical to
working one state, point and comparison at a time.  One chunk's states
are alive at a time.  ``run_check`` is the only entry to every suite.
A comparison "lhs <= rhs" fails when the signed violation lhs - rhs
exceeds TOL.check_rel * (1 + magnitude); ``failures`` counts failed
comparisons, ``skipped`` counts grid points outside a claim's proven
region or validity window, and a suite that claims no grid point draws
nothing.  A suite that made no comparison at all does not pass.

The subadditivity violation search inverts the reading: there the
inequality is expected to break, ``failures`` counts the violations
found, and an empty result is the anomaly.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import BoundSpec, _check_dimension, fannes_range, max_unified, unified_fannes_bound
from .entropies import UnifiedParams, _entropy_rows, unified_from_power_sum, unified_quantum
from .errors import DimMismatch, DomainError, NotDiagonal, OutOfValidity, PureState
from .linops import (
    DensityOperator,
    GeneralizedMeasurement,
    _integer,
    _power_sums,
    apply_generalized,
    density_operators,
    diagonal_density,
    ensemble_from_state,
    maximally_mixed,
    partial_trace,
    pinch,
    purify,
    random_density_matrix,
    random_resolution,
    tensor,
    trace_distance,
)
from .tolerances import TOL

ALL_CHECKS = (
    "ensemble",
    "mixing",
    "scalar-lemma",
    "fannes",
    "audenaert",
    "subadd",
    "subadd-violation",
    "triangle",
    "pinching",
    "projective",
    "qubit-measure",
)

_CHECK_IDS = {name: idx for idx, name in enumerate(ALL_CHECKS)}

#: trials whose states one ``density_operators`` call builds while the
#: suite builds no matrix above ``_CHUNK_DIM``; larger matrices get fewer
#: trials, so one matrix slot of a chunk holds at most
#: STATE_CHUNK * _CHUNK_DIM**2 entries.  Only one chunk's states are alive
#: at a time, and each chunk pays a fixed cost (one stacked ``eigh`` per
#: shape, the table columns, one judge), which 64 trials spread thinly
STATE_CHUNK = 64
_CHUNK_DIM = 32

DEFAULT_DIMS = (2, 3, 4, 5, 6)
#: largest system dimension ``run_check`` draws states of: each state
#: costs an O(d^3) eigensolve, and a chunk then holds a single trial
MAX_CHECK_DIM = 256
#: suites that need d >= 2: the Fannes bound, and random resolutions of two or more blocks
TWO_LEVEL_CHECKS = ("fannes", "pinching", "projective")
DEFAULT_PAIR_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))
SQUARE_PAIR_DIMS = ((2, 2), (2, 3), (3, 3))

ENSEMBLE_GRID = tuple(
    (q, s)
    for q in (0.3, 0.7, 1.5, 2.0, 3.0)
    for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
)
MIXING_GRID = tuple(
    (q, s) for q in (0.3, 0.6, 0.9) for s in (-1.0, 0.0, 0.5, 1.0)
)
FANNES_GRID = tuple(
    (q, s) for q in (0.3, 0.7) for s in (-2.0, -1.0, 0.0, 0.5, 1.0)
) + tuple(
    (q, s) for q in (1.5, 2.0, 3.0) for s in (-1.0, -0.5, 0.0, 1.0, 2.0)
)
AUDENAERT_Q = (1.5, 2.0, 3.0)
SUBADD_GRID = tuple((q, s) for q in (1.5, 2.0, 3.0) for s in (1.0 / q, 1.0, 2.0))
#: points of the two failure regions, {q > 1, s < 0} then {0 < q < 1, s > 0}
VIOLATION_GRID = ((2.0, -1.0), (3.0, -0.5), (2.0, -0.001), (0.3, 0.5), (0.5, 1.0), (0.7, 0.5))
PINCHING_DIMS = (3, 4, 5, 6)
PINCHING_Q = (0.3, 0.5, 1.5, 2.0, 2.5, 4.0)
PROJECTIVE_GRID = tuple(
    (q, s)
    for q in (0.3, 0.7, 1.5, 2.0, 3.0)
    for s in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
)


@dataclass
class CheckReport:
    """Outcome of one verification suite, accumulated by ``compare`` and
    ``compare_many``."""

    check: str
    trials: int = 0
    skipped: int = 0
    failures: int = 0
    #: worst signed violation lhs - rhs; 0.0 while ``worst_case`` is None
    max_violation: float = 0.0
    #: case of the worst comparison with its lhs and rhs; None before the first
    worst_case: dict | None = None
    seed: int = 0
    #: comparisons made; not emitted, so JSON and CSV reports keep their bytes
    comparisons: int = 0

    def compare(self, lhs: float, rhs: float, info: dict, strict: bool = False) -> bool:
        """Record "lhs <= rhs" (strict: "lhs < rhs"); True if it failed."""
        self.comparisons += 1
        violation = float(lhs) - float(rhs)
        if strict:
            failed = violation >= 0.0
        else:
            failed = violation > TOL.check_rel * (1.0 + max(abs(lhs), abs(rhs)))
        if failed:
            self.failures += 1
        if self.worst_case is None or violation > self.max_violation:
            self.max_violation = violation
            self.worst_case = dict(info, lhs=float(lhs), rhs=float(rhs))
        return failed

    def compare_many(self, lhs: np.ndarray, rhs: np.ndarray, case_at: Callable) -> None:
        """Record "lhs <= rhs" for every element of two float arrays of one
        shape, bit for bit as ``compare`` called on each in C order would.

        Elementwise ``- abs maximum * +`` round as the scalar expressions
        do; the worst case is the first index of the largest violation,
        as the strict ``>`` in ``compare`` picks it, and a NaN violation is
        the worst case only as the report's very first comparison.
        ``case_at(index)`` gives the case of a flat index and is called for
        the worst comparison alone.
        """
        lhs, rhs = lhs.ravel(), rhs.ravel()
        if lhs.size == 0:
            return
        with np.errstate(invalid="ignore", over="ignore"):  # silent, as Python floats are
            violation = lhs - rhs
            slack = TOL.check_rel * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        self.comparisons += violation.size
        self.failures += int(np.count_nonzero(violation > slack))
        worst, best = None, self.max_violation
        if self.worst_case is None:
            worst, best = 0, violation[0]
        # nothing exceeds a NaN best, and a later NaN never exceeds anything
        j = int(np.argmax(np.where(np.isnan(violation), -np.inf, violation)))
        if violation[j] > best:
            worst = j
        if worst is not None:
            self.max_violation = float(violation[worst])
            self.worst_case = dict(case_at(worst), lhs=float(lhs[worst]), rhs=float(rhs[worst]))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "trials": self.trials,
            "skipped": self.skipped,
            "failures": self.failures,
            "max_violation": self.max_violation,
            "worst_case": self.worst_case,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _trial_rng(seed: int, check: str, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, _CHECK_IDS[check], index))


def _as_grid(params_grid, default) -> list:
    """The grid (``default`` if None) as ``UnifiedParams``, validated once."""
    grid = default if params_grid is None else params_grid
    return [UnifiedParams(float(q), float(s)) for q, s in grid]


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Ginibre density matrix of dimension d and a uniformly drawn rank."""
    return random_density_matrix(d, int(rng.integers(1, d + 1)), rng)


def _bipartite_matrices(rng: np.random.Generator, da: int, db: int) -> list:
    """A random rho_AB on C^da (x) C^db and its reductions rho_A, rho_B."""
    rho_ab = _random_matrix(rng, da * db)
    return [
        rho_ab,
        partial_trace(rho_ab, da, db, "A"),
        partial_trace(rho_ab, da, db, "B"),
    ]


def _bipartite_draw(dims, i, rng):
    da, db = _pick(rng, dims)
    return (da, db), _bipartite_matrices(rng, da, db)


def _stacked(per_trial: list) -> list:
    """States of every trial's matrices from one ``density_operators``
    call, split back into one list per trial."""
    states = density_operators([m for mats in per_trial for m in mats])
    out, start = [], 0
    for mats in per_trial:
        out.append(states[start : start + len(mats)])
        start += len(mats)
    return out


def _scalar_lemma(trials: int, seed: int) -> CheckReport:
    """Scalar comparisons behind the continuity proofs.

    |x^s - y^s| <= s |x - y| on [0,1] for s >= 1 and on [1,inf) for
    0 < s <= 1; reversed on the swapped regimes; and |ln x - ln y| <=
    |x - y| on [1, inf).
    """
    rec = CheckReport("scalar-lemma", seed=seed)
    for i in range(trials):
        rng = _trial_rng(seed, "scalar-lemma", i)
        x0, y0 = rng.uniform(0.0, 1.0, 2)
        x1, y1 = rng.uniform(1.0, 10.0, 2)
        s_hi = float(rng.uniform(1.0, 4.0))
        s_lo = float(rng.uniform(0.01, 1.0))
        rec.trials += 1
        cases = (
            ("unit-direct", abs(x0**s_hi - y0**s_hi), s_hi * abs(x0 - y0), s_hi),
            ("tail-direct", abs(x1**s_lo - y1**s_lo), s_lo * abs(x1 - y1), s_lo),
            ("unit-reversed", s_lo * abs(x0 - y0), abs(x0**s_lo - y0**s_lo), s_lo),
            ("tail-reversed", s_hi * abs(x1 - y1), abs(x1**s_hi - y1**s_hi), s_hi),
            ("tail-log", abs(math.log(x1) - math.log(y1)), abs(x1 - y1), 0.0),
        )
        for kind, lhs, rhs, s in cases:
            rec.compare(lhs, rhs, {"trial": i, "kind": kind, "s": s})
    return rec


def _table(per_trial: list, points, q_only: bool = False) -> list:
    """Each trial's (holders, points) array of entropies at ``points``, or
    of power sums tr(rho^q) for ``q_only`` claims, from one table of the
    whole chunk, bit for bit the per-point values."""
    flat = [h for hs in per_trial for h in hs]
    if q_only:
        table = _power_sums(flat, [p.q for p in points])
    else:
        table = np.array(_entropy_rows(flat, points)).reshape(len(flat), len(points))
    return np.split(table, np.cumsum([len(hs) for hs in per_trial[:-1]]))


def _pair_case(trials, points):
    def case(t, k, c):
        i, (da, db) = trials[t]
        return {"trial": i, "d_a": da, "d_b": db, "q": points[k].q, "s": points[k].s}

    return case


def _ensemble_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    return (rng, d), [_random_matrix(rng, d)]


def _ensemble_judge(trials, states, points):
    """Quantum entropy never exceeds the classical entropy of any ensemble
    realizing the state; the Renyi line s = 0 is only claimed for q < 1."""
    holders, ms = [], []
    for (_, (rng, _)), (rho,) in zip(trials, states):
        # an ensemble of m pure states needs m >= rank >= 1
        rank = int(np.sum(rho.eigenvalues > TOL.rank))
        ms.append(int(rng.integers(rank, max(rank, 8) + 1)))
        holders.append((rho, ensemble_from_state(rho, ms[-1], rng).weights))
    rho, weights = np.stack(_table(holders, points), axis=1)

    def case(t, k, c):
        i, (_, d) = trials[t]
        return {"trial": i, "d": d, "m": ms[t], "q": points[k].q, "s": points[k].s}

    return [(rho, weights)], None, case


def _mixing_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    omegas = [_random_matrix(rng, d) for _ in range(k)]
    mixed = sum(w * om for w, om in zip(weights, omegas))
    return (d, k, weights), omegas + [mixed]


def _mixing_judge(trials, states, points):
    """Mixing concavity: sum_i p_i E(omega_i) <= E(sum_i p_i omega_i)
    for 0 < q < 1 and s <= 1."""
    rows = _table(states, points)
    # zip stops at the omegas' rows; the mixture's row is last
    lhs = [sum(w * row for w, row in zip(info[2], e)) for (_, info), e in zip(trials, rows)]

    def case(t, k, c):
        i, (d, n, _) = trials[t]
        return {"trial": i, "d": d, "k": n, "q": points[k].q, "s": points[k].s}

    return [(np.stack(lhs), np.stack([e[-1] for e in rows]))], None, case


def _fannes_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    rho = _random_matrix(rng, d)
    if rng.uniform() < 0.5:
        return d, [rho, _random_matrix(rng, d)]
    # interpolate toward a second state so small trace distances (the
    # low-region validity window) are exercised
    lam = float(rng.uniform(0.0, 0.3))
    other = random_density_matrix(d, d, rng)
    return d, [rho, (1.0 - lam) * rho + lam * other, other]


def _fannes_judge(trials, states, points):
    """Entropy differences of random state pairs stay below the unified
    continuity bound; low-region points whose 2*eps exceeds the
    monotonicity threshold are skipped."""
    # an interpolated draw's third state is built only to be validated
    pairs = [st[:2] for st in states]
    eps = [min(trace_distance(rho, omega), 1.0) for rho, omega in pairs]
    rho, omega = np.stack(_table(pairs, points), axis=1)
    bound = np.zeros((len(trials), len(points)))
    keep = np.ones(bound.shape, dtype=bool)
    for t, (_, d) in enumerate(trials):
        for k, p in enumerate(points):
            try:
                bound[t, k] = unified_fannes_bound(BoundSpec(p.q, p.s, d, eps[t]))
            except OutOfValidity:
                keep[t, k] = False

    def case(t, k, c):
        i, d = trials[t]
        return {"trial": i, "d": d, "q": points[k].q, "s": points[k].s, "eps": eps[t]}

    return [(np.abs(rho - omega), bound)], keep, case


def _audenaert_judge(trials, states, points):
    """Schatten-norm inequality ||rho_A||_q + ||rho_B||_q <= 1 + ||rho_AB||_q
    for q >= 1, from the power sums tr(rho^q)."""
    # (tr rho^q)^(1/q) with scalar pow, not numpy's array **
    norm_ab, norm_a, norm_b = np.stack([
        [[t ** (1.0 / p.q) for t, p in zip(row, points)] for row in e.tolist()]
        for e in _table(states, points, q_only=True)
    ], axis=1)

    def case(t, k, c):
        i, (da, db) = trials[t]
        return {"trial": i, "d_a": da, "d_b": db, "q": points[k].q}

    return [(norm_a + norm_b, 1.0 + norm_ab)], None, case


def _subadditive(q: float, s: float) -> bool:
    return q > 1.0 and s >= 1.0 / q


def _subadd_judge(trials, states, points):
    """Subadditivity E(rho_AB) <= E(rho_A) + E(rho_B) for q > 1, s >= 1/q."""
    e_ab, e_a, e_b = np.stack(_table(states, points), axis=1)
    return [(e_ab, e_a + e_b)], None, _pair_case(trials, points)


def _violation_draw(dims, i, rng):
    da, db = _pick(rng, dims)
    fa = _random_matrix(rng, da)
    fb = _random_matrix(rng, db)
    return (da, db), [fa, fb, np.kron(fa, fb)] + _bipartite_matrices(rng, da, db)


def _violation_judge(trials, states, points):
    """E(rho_AB) against E(rho_A) + E(rho_B) on a product state and on a
    correlated one, where subadditivity is expected to fail."""
    fa, fb, prod, corr, ca, cb = np.stack(_table(states, points), axis=1)
    kinds = ("product", "correlated")

    def case(t, k, c):
        i, (da, db) = trials[t]
        p = points[k]
        return {"trial": i, "kind": kinds[c], "d_a": da, "d_b": db, "q": p.q, "s": p.s}

    return [(prod, fa + fb), (corr, ca + cb)], None, case


def _purified_reductions(da, db, rho_ab) -> list:
    # the rank-1 purified state needs no DensityOperator (and no
    # eigensolve) of its own: only its two reductions are evaluated
    n = da * db
    psi = purify(rho_ab)
    pure = np.outer(psi, psi.conj())
    return [partial_trace(pure, n, n, "B"), partial_trace(pure, da, db * n, "B")]


def _triangle_judge(trials, states, points):
    """Triangle inequality |E(rho_A) - E(rho_B)| <= E(rho_AB) for q > 1,
    s >= 1/q, via purification; also verifies that both reductions of the
    purified state carry the entropies they should."""
    more = _stacked([_purified_reductions(*info, st[0]) for (_, info), st in zip(trials, states)])
    rows = _table([first + second for first, second in zip(states, more)], points)
    e_ab, e_a, e_b, e_c, e_bc = np.stack(rows, axis=1)
    zero = np.zeros_like(e_ab)
    kinds = ("purified-complement", "purified-rest", "triangle")
    pair_case = _pair_case(trials, points)
    return (
        [(np.abs(e_ab - e_c), zero), (np.abs(e_a - e_bc), zero), (np.abs(e_a - e_b), e_ab)],
        None,
        lambda t, k, c: dict(pair_case(t, k, c), kind=kinds[c]),
    )


def _pinching_draw(every, dims, i, rng):
    """A random state and its pinching by a random resolution, with
    rank-1 blocks on every ``every``-th trial so the fully projective
    case is always exercised."""
    d = int(_pick(rng, dims))
    rho = _random_matrix(rng, d)
    ranks = (1,) * d if i % every == 0 else None
    resolution = random_resolution(d, rng, ranks=ranks)
    return (d, resolution.size), [rho, pinch(rho, resolution)]


def _pinching_judge(trials, states, points):
    """Pinching pushes tr(rho^q) up for q < 1 and down for q > 1."""
    t_rho, t_pin = np.stack(_table(states, points, q_only=True), axis=1)
    low = np.array([p.q < 1.0 for p in points], dtype=bool)

    def case(t, k, c):
        i, (d, blocks) = trials[t]
        q = points[k].q
        direction = "raise" if q < 1.0 else "lower"
        return {"trial": i, "d": d, "q": q, "blocks": blocks, "direction": direction}

    return [(np.where(low, t_rho, t_pin), np.where(low, t_pin, t_rho))], None, case


def _projective_judge(trials, states, points):
    """Pinching never lowers the unified entropy: E(rho) <= E(pinched)."""
    rho, pinched = np.stack(_table(states, points), axis=1)

    def case(t, k, c):
        i, (d, blocks) = trials[t]
        return {"trial": i, "d": d, "q": points[k].q, "s": points[k].s, "blocks": blocks}

    return [(rho, pinched)], None, case


@dataclass(frozen=True)
class Suite:
    """One claim checked on random states: a row of ``SUITES``.

    ``draw(dims, i, rng)`` gives (info, matrices) for trial i, and a
    chunk's matrices become states through one stacked build.
    ``judge(trials, states, points)`` then judges the whole chunk at once
    from its (i, info) pairs and each trial's states, reading entropies at
    the claimed points, or power sums tr(rho^q) for ``q_only`` claims
    (which ignore s and compare each distinct q of the grid once), through
    ``_table``.  It returns (pairs, keep, case): one (lhs, rhs) pair of
    (trial, point) arrays per case of "lhs <= rhs", a (trial, point) mask
    of the points inside the claim's validity window (None for all), and
    ``case(t, k, c)``, the case dict of trial t, point k and case c.
    Points outside ``claimed`` are skipped without a judge; with none
    inside, no trial is drawn.
    """

    draw: Callable
    judge: Callable
    dims: tuple
    grid: tuple
    claimed: Callable = lambda q, s: True
    q_only: bool = False

    @property
    def pairs(self) -> bool:
        """Whether the suite draws (d_A, d_B) pairs, as its dims list."""
        return isinstance(self.dims[0], tuple)


SUITES = {
    "ensemble": Suite(
        _ensemble_draw, _ensemble_judge, (2, 3, 4, 5), ENSEMBLE_GRID,
        claimed=lambda q, s: not (s == 0.0 and not q < 1.0),
    ),
    "mixing": Suite(
        _mixing_draw, _mixing_judge, DEFAULT_DIMS, MIXING_GRID,
        claimed=lambda q, s: q < 1.0 and s <= 1.0,
    ),
    "fannes": Suite(
        _fannes_draw, _fannes_judge, DEFAULT_DIMS, FANNES_GRID,
        claimed=lambda q, s: fannes_range(q, s) is not None,
    ),
    "audenaert": Suite(
        _bipartite_draw, _audenaert_judge, DEFAULT_PAIR_DIMS,
        tuple((q, 0.0) for q in AUDENAERT_Q), claimed=lambda q, s: q >= 1.0, q_only=True,
    ),
    "subadd": Suite(
        _bipartite_draw, _subadd_judge, DEFAULT_PAIR_DIMS, SUBADD_GRID, claimed=_subadditive
    ),
    "subadd-violation": Suite(_violation_draw, _violation_judge, SQUARE_PAIR_DIMS, VIOLATION_GRID),
    "triangle": Suite(
        _bipartite_draw, _triangle_judge, SQUARE_PAIR_DIMS, SUBADD_GRID, claimed=_subadditive
    ),
    "pinching": Suite(
        functools.partial(_pinching_draw, 7), _pinching_judge, PINCHING_DIMS,
        tuple((q, 0.0) for q in PINCHING_Q), q_only=True,
    ),
    "projective": Suite(
        functools.partial(_pinching_draw, 5), _projective_judge, DEFAULT_DIMS, PROJECTIVE_GRID
    ),
}


def _run_chunk(rec, suite, claimed, chunk, draw) -> None:
    """Draw, build and judge the trials of ``chunk`` into ``rec``.

    ``draw(i)`` returns (info, matrices) for trial i from that trial's
    own generator.  The chunk's matrices become states through one
    stacked call; they die when this call returns, before the next chunk
    is drawn.
    """
    infos, mats = zip(*[draw(i) for i in chunk])
    states = _stacked(mats)
    del mats
    pairs, keep, case = suite.judge(list(zip(chunk, infos)), states, claimed)
    lhs, rhs = (np.stack(side, axis=-1) for side in zip(*pairs))
    if keep is None:
        keep = np.ones(lhs.shape[:2], dtype=bool)
    at = np.argwhere(keep)
    rec.skipped += keep.size - len(at)
    # comparisons in (trial, point, case) order, as the claims are read
    n = len(pairs)
    rec.compare_many(lhs[keep], rhs[keep], lambda j: case(*at[j // n].tolist(), j % n))


def _run_suite(name, trials, seed, dims, grid, rec=None) -> CheckReport:
    """Run the ``SUITES`` row ``name`` over ``grid``, from ``_as_grid``;
    ``rec`` carries comparisons made before the random trials."""
    suite = SUITES[name]
    if suite.q_only:
        # s is ignored, so a q repeated with another s would repeat its comparisons
        grid = list({p.q: p for p in grid}.values())
    claimed = [p for p in grid if suite.claimed(p.q, p.s)]
    if rec is None:
        rec = CheckReport(name, seed=seed)
    rec.trials += trials
    rec.skipped += (len(grid) - len(claimed)) * trials
    if not claimed:
        return rec
    dims = dims or suite.dims
    # the largest matrix built: triangle's rho_BC is (d_B d_A d_B)-square
    d_max = max(a * b * b for a, b in dims) if suite.pairs else max(dims)
    size = max(1, STATE_CHUNK * _CHUNK_DIM**2 // max(d_max, _CHUNK_DIM) ** 2)

    def draw(i):
        return suite.draw(dims, i, _trial_rng(seed, name, i))

    for start in range(0, trials, size):
        _run_chunk(rec, suite, claimed, range(start, min(start + size, trials)), draw)
    return rec


def _seeded_violations(seed: int) -> CheckReport:
    """The ``subadd-violation`` report before sampling: two analytic
    instances on I/2 (x) I/2, so at least one violation is present.
    (q=2, s=-1) violates by exactly 1 and (q=1/2, s=1) by 6 - 4 sqrt 2.
    """
    rec = CheckReport("subadd-violation", seed=seed)
    mm = maximally_mixed(2)
    product = tensor(mm, mm)
    rec.trials += 1
    for q, s in ((2.0, -1.0), (0.5, 1.0)):
        params = UnifiedParams(q, s)
        rec.compare(
            unified_quantum(product, params),
            2.0 * unified_quantum(mm, params),
            {"trial": -1, "kind": "seeded", "d_a": 2, "d_b": 2, "q": q, "s": s},
        )
    return rec


QUBIT_MEASUREMENT = (((1, 0), (0, 0)), ((0, 1), (0, 0)))


def qubit_measurement_decrease(rho_diag: DensityOperator, params_grid=None) -> CheckReport:
    """Strict entropy decrease under the qubit measurement {|0><0|, |0><1|}.

    The non-selective update maps any diagonal qubit state to the pure
    state |0><0|, so every unified entropy must drop strictly when the
    input is impure.  Off-diagonal or pure inputs are rejected.
    """
    if rho_diag.dim != 2:
        raise DimMismatch(f"expected a qubit state, got dimension {rho_diag.dim}")
    off = max(abs(rho_diag.mat[0, 1]), abs(rho_diag.mat[1, 0]))
    if off > TOL.herm:
        raise NotDiagonal(f"off-diagonal magnitude {off!r} exceeds {TOL.herm:g}")
    if float(rho_diag.eigenvalues.min()) <= TOL.rank:
        raise PureState("strict decrease needs an impure state")
    grid = _as_grid(params_grid, PROJECTIVE_GRID)
    rec = CheckReport("qubit-measure")
    after = apply_generalized(rho_diag, GeneralizedMeasurement(QUBIT_MEASUREMENT))
    rec.trials += 1
    for params in grid:
        rec.compare(
            unified_quantum(after, params),
            unified_quantum(rho_diag, params),
            {"q": params.q, "s": params.s},
            strict=True,
        )
    return rec


@dataclass(frozen=True)
class StabilityExample:
    """Diagonal state pair probing Lesche stability at small trace distance.

    ``example0`` perturbs a pure state into diag(1-eps, eps/(d-1), ...);
    ``example1`` perturbs the flat state on d-1 levels into
    diag(eps, (1-eps)/(d-1), ...).  Both pairs sit at trace distance eps.
    """

    variant: str
    eps: float
    d: int
    q: float
    s: float

    def __post_init__(self):
        if self.variant not in ("example0", "example1"):
            raise DomainError(f'variant must be "example0" or "example1", got {self.variant!r}')
        if not 0.0 <= self.eps < 1.0:
            raise DomainError(f"eps must lie in [0, 1), got {self.eps!r}")
        _check_dimension(self.d, 2)
        UnifiedParams(self.q, self.s)


def _example_power_sums(ex: StabilityExample) -> tuple[float, float]:
    """(sum lambda^q) for the unperturbed and perturbed member, closed form."""
    q, eps = ex.q, ex.eps
    w = float(ex.d - 1) ** (1.0 - q)
    if ex.variant == "example0":
        return 1.0, (1.0 - eps) ** q + eps**q * w
    return w, eps**q + (1.0 - eps) ** q * w


def _xlnx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def stability_ratio(ex: StabilityExample) -> float:
    """|E(rho) - E(omega)| / max_unified for the example pair, closed form.

    Evaluates analytically in d, so dimensions like 10^8 cost nothing.
    For q < 1 with s < 0, and for q > 1 with s < 0, the ratio approaches
    1 as d grows even though eps is fixed: the Lesche criterion fails.
    """
    q, s, d = ex.q, ex.s, ex.d
    if abs(q - 1.0) < TOL.q_limit:
        # Shannon entropies of the diagonal spectra
        eps = ex.eps
        if ex.variant == "example0":
            s_rho = 0.0
            s_omega = -_xlnx(1.0 - eps) - _xlnx(eps) + eps * math.log(d - 1)
        else:
            s_rho = math.log(d - 1)
            s_omega = -_xlnx(eps) - _xlnx(1.0 - eps) + (1.0 - eps) * math.log(d - 1)
        return abs(s_rho - s_omega) / math.log(d)
    t_rho, t_omega = _example_power_sums(ex)
    num = abs(
        unified_from_power_sum(t_rho, q, s) - unified_from_power_sum(t_omega, q, s)
    )
    return num / max_unified(q, s, d)


def _checked_inputs(name: str, trials, seed, dims) -> tuple:
    """``run_check``'s (trials, seed, dims) as ints, or the ``DomainError``
    that ``run_check(name, ...)`` raises before drawing anything."""
    if name not in ALL_CHECKS:
        raise DomainError(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
    trials, seed = _integer("trial count", trials), _integer("seed", seed)
    if trials < 0:
        raise DomainError(f"trial count must be nonnegative, got {trials!r}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
    if dims is not None:
        dims = tuple(_integer("dimension", d) for d in dims)
        for d in dims:
            if not 1 <= d <= MAX_CHECK_DIM:
                raise DomainError(f"dimension must lie in [1, {MAX_CHECK_DIM}], got {d!r}")
            if d < 2 and name in TWO_LEVEL_CHECKS:
                raise DomainError(f"check {name} needs every dimension >= 2, got {d!r}")
    return trials, seed, dims


def run_check(
    name: str,
    trials: int = 1000,
    seed: int = 0,
    dims=None,
    params_grid=None,
) -> CheckReport:
    """Run one named suite, the only entry to any suite; ``dims`` takes
    integer system sizes in [1, ``MAX_CHECK_DIM``], from 2 for
    ``TWO_LEVEL_CHECKS`` (pairs are formed for the bipartite checks, capped
    at composite dimension 16), ``trials`` and ``seed`` nonnegative
    integers.  Inputs are checked before anything is drawn."""
    trials, seed, dims = _checked_inputs(name, trials, seed, dims)
    if name == "scalar-lemma":
        _as_grid(params_grid, ())  # reads no grid, but a bad one is still an error
        return _scalar_lemma(trials, seed)
    if name == "qubit-measure":
        return qubit_measurement_decrease(diagonal_density((0.8, 0.2)), params_grid)
    if dims is not None and SUITES[name].pairs:
        dims = tuple((a, b) for a in dims for b in dims if a * b <= 16) or DEFAULT_PAIR_DIMS
    grid = _as_grid(params_grid, SUITES[name].grid)
    rec = _seeded_violations(seed) if name == "subadd-violation" else None
    return _run_suite(name, trials, seed, dims, grid, rec)


def report_ok(report: CheckReport) -> bool:
    """Pass criterion: at least one comparison and no failures, except
    the violation search which must find at least one."""
    if report.comparisons == 0:
        return False
    if report.check == "subadd-violation":
        return report.failures >= 1
    return report.failures == 0

"""Randomized, seeded verification of the entropy family's inequalities.

Each claim is a row of ``CHECKS``: closed-form comparisons, a suite of
random states or both, the dimensions it takes and whether it is expected
to break.  ``run_check``, the only entry, runs every row one way: it
validates the inputs, takes the report from the closed-form part (or
starts an empty one) and runs the suite into it.  Each trial draws from a
SeedSequence built on (seed, check id, trial index), so reports are
reproducible byte for byte regardless of execution order.  A suite's one
loop takes a chunk of trials (``STATE_CHUNK`` of them, fewer where the
largest matrix a trial builds, whose side each suite declares, is large)
through a draw step and a build step.  Each trial draws its
discrete choices and every Gaussian factor from its own generator; then
the chunk's draws become Ginibre states, Haar unitaries and resolution
projectors with one stacked call per kind and shape, the suite's build
makes the chunk's matrices from them (mixtures and interpolations per
trial; partial traces, products and pinchings with one call of a stacked
``linops`` core per shape), and one ``linops._density_stacks`` call
validates them with one ``eigh`` per shape.  A trial's state is then a
row of its shape's stacks (cleaned eigenvalues, matrices, and eigenvectors
where the judge reads them), and no record is made of it: the stacked
builders take and give arrays.  The ensemble judge draws each trial's
ensemble from its row and builds the chunk's ensembles the same way, the
triangle judge purifies its rho_AB rows and traces the pure states'
reductions straight from the purifications, keeping only their
eigenvalues, and fannes measures its pairs' trace distances from the
stacks, one core call per shape.  The judge reads the eigenvalue stacks
at every grid point as one ``entropies._entropy_table`` and judges the
chunk's claims as arrays over (trial, point, case), each step
bit-identical to working one matrix, state, point and comparison at a
time.  One chunk's states are alive at a time.
Closed-form and random parts alike record their comparisons as arrays
through ``CheckReport.compare_many``: "lhs <= rhs" fails when the signed
violation lhs - rhs exceeds TOL.check_rel * (1 + magnitude), a strict
"lhs < rhs" when it is >= 0; ``failures`` counts failed comparisons,
``skipped`` counts grid points outside a claim's proven region or
validity window, and a suite that claims no grid point draws nothing.  A
check that made no comparison does not pass.

A check expected to break (the subadditivity violation search) inverts
the reading: ``failures`` counts the violations found, and an empty
result is the anomaly.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bounds import _low_q, _point_terms, fannes_range, max_unified
from .entropies import (
    UnifiedParams, _check_indices, _entropy_table, _point_form, unified_from_power_sum, unified_quantum
)
from .errors import DimMismatch, DomainError, NotDiagonal, PureState
from .linops import (
    MAX_RANK_DRAW_DIM,
    DensityOperator,
    GeneralizedMeasurement,
    _density_matrices,
    _density_spectra,
    _density_stacks,
    _dimension,
    _ensemble_draw,
    _ensembles,
    _expect,
    _ginibre_draw,
    _groups,
    _grouped,
    _integer,
    _items,
    _partial_traces,
    _pinches,
    _pure_traces,
    _purifications,
    _real,
    _resolution_draw,
    _resolutions,
    _shown,
    _stack_rows,
    _tensors,
    _trace_distances,
    apply_generalized,
    diagonal_density,
    maximally_mixed,
    tensor,
)
from .tolerances import TOL

#: trials whose states one ``_density_stacks`` call builds while no trial
#: of the suite builds a matrix of side above ``_CHUNK_DIM`` (each suite
#: declares that side, ``Suite.largest``); larger matrices get fewer
#: trials, so one matrix slot of a chunk holds at most 2^17 entries,
#: STATE_CHUNK * _CHUNK_DIM**2: 512 trials at d = 9 and d = 16, 179 at
#: d = 27, 128 at d = 32, 32 at d = 64 and 2 at d = 256.  Only one chunk's
#: states are alive at a time, and each chunk pays a fixed cost (one
#: stacked ``eigh`` per shape, the table columns, one judge), which 512
#: trials at d <= 16 spread thinly
STATE_CHUNK = 512
_CHUNK_DIM = 16

DEFAULT_DIMS = (2, 3, 4, 5, 6)
#: largest system dimension ``run_check`` draws states of: each state
#: costs an O(d^3) eigensolve, and a chunk then holds 2 trials
MAX_CHECK_DIM = 256
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
    """Outcome of one verification suite, accumulated by ``compare_many``."""

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

    def compare_many(
        self, lhs: np.ndarray, rhs: np.ndarray, case_at: Callable, strict: bool = False
    ) -> None:
        """Record "lhs <= rhs" (strict: "lhs < rhs") for every element of
        two float arrays of one shape, in C order.

        A comparison fails when its violation lhs - rhs exceeds
        TOL.check_rel * (1 + max(|lhs|, |rhs|)), or under ``strict`` when
        it is >= 0.  Elementwise ``- abs maximum * +`` round as Python
        floats do.  The worst case is the first index of the largest
        violation, so a report reads the same for any split of its
        comparisons into calls, and a NaN violation is the worst case
        only as the report's very first comparison.  ``case_at(index)``
        gives the case of a flat index and is called for the worst
        comparison alone.
        """
        lhs, rhs = lhs.ravel(), rhs.ravel()
        if lhs.size == 0:
            return
        with np.errstate(invalid="ignore", over="ignore"):  # silent, as Python floats are
            violation = lhs - rhs
            if strict:
                failed = violation >= 0.0
            else:
                failed = violation > TOL.check_rel * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        self.comparisons += violation.size
        self.failures += int(np.count_nonzero(failed))
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


# Each trial draws from the PCG64 stream of SeedSequence((seed, check id,
# trial)).  numpy freezes that hash (NEP 19), so it is computed below in
# uint32 arithmetic for a whole chunk, one row per trial.  Each hashmix
# step k maps a word v to (v ^ c_k) * c_(k+1), then v ^ (v >> 16), with
# c_k = init * mult**k.


def _geometric(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_MULT_A = 0x931E8875
#: pool hashmix constants: steps 0-3 fill the pool, 4-15 mix it and
#: 16-19 take the first entropy word past it
_POOL_HASH = _geometric(0x43B0D7E5, _MULT_A, 21)
#: each further entropy word's steps start 4 steps on
_WORD_STEP = np.uint32(pow(_MULT_A, 4, 2**32))
#: row src: the steps pool word src mixes into each word d != src with
_MIX_STEP = np.array([[4 + 3 * src + d - (d > src) for d in range(4)] for src in range(4)])
_MIX_XOR, _MIX_MUL = _POOL_HASH[_MIX_STEP], _POOL_HASH[_MIX_STEP + 1]
#: generate_state(4, uint64): 8 steps through the pool, cycled
_STATE_HASH = _geometric(0x8B51F9DD, 0x58F38DED, 9)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mul
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(0xCA01F9DD)
    r -= y * np.uint32(0x4973F715)
    r ^= r >> 16
    return r


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """Row j: ``SeedSequence(entropy[j]).generate_state(4, np.uint64)``,
    for (trials, words) uint32 entropy rows of one length."""
    pool = np.zeros((len(entropy), 4), dtype=np.uint32)
    pool[:, : entropy.shape[1]] = entropy[:, :4]
    pool = _hashmix(pool, _POOL_HASH[:4], _POOL_HASH[1:5])
    for src in range(4):
        # word src mixes into the other three and keeps its own value
        mixed = _mix(pool, _hashmix(pool[:, src : src + 1], _MIX_XOR[src], _MIX_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    xor, mul = _POOL_HASH[16:20], _POOL_HASH[17:]
    for src in range(4, entropy.shape[1]):
        pool = _mix(pool, _hashmix(entropy[:, src : src + 1], xor, mul))
        xor, mul = xor * _WORD_STEP, mul * _WORD_STEP
    words = _hashmix(np.tile(pool, 2), _STATE_HASH[:-1], _STATE_HASH[1:])
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A trial's precomputed words: all ``PCG64`` asks its seed sequence for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _chunks(trials: int, size: int):
    """Trials 0 .. trials - 1 as consecutive ranges of ``size``."""
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _int_words(n: int) -> bytes:
    """n as SeedSequence reads an int: little-endian uint32 words, at least one."""
    return n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little")


def _trial_rngs(seed: int, check: str, chunk: range) -> list:
    """The generators of trials ``chunk``, each bit for bit the one numpy
    seeds from the tuple (seed, check id, i)."""
    head = np.frombuffer(_int_words(seed) + _int_words(ALL_CHECKS.index(check)), "<u4")
    rngs, start = [], chunk.start
    while start < chunk.stop:
        # indices with as many words as the first one share a row length
        n_words = len(_int_words(start)) // 4
        part = range(start, min(chunk.stop, 1 << 32 * n_words))
        entropy = np.empty((len(part), len(head) + n_words), dtype=np.uint32)
        entropy[:, : len(head)] = head
        index = b"".join(i.to_bytes(4 * n_words, "little") for i in part)
        entropy[:, len(head) :] = np.frombuffer(index, "<u4").reshape(len(part), n_words)
        rngs += [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in _state_words(entropy)]
        start = part.stop
    return rngs


def _as_grid(params_grid, default) -> list:
    """The grid (``default`` if None) as float ``UnifiedParams``, each pair checked as given."""
    grid = default if params_grid is None else params_grid
    try:
        pairs = [(q, s) for q, s in grid]
    except (TypeError, ValueError):  # not an iterable of pairs
        raise DomainError(f"grid must be a sequence of (q, s) pairs, got {_shown(grid)}") from None
    for q, s in pairs:
        _check_indices(q, s)
    return [UnifiedParams(float(q), float(s)) for q, s in pairs]


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    """Ginibre draw of dimension d and a uniformly drawn rank."""
    return _ginibre_draw(d, int(rng.integers(1, d + 1)), rng)


def _bipartite_draw(dims, i, rng):
    da, db = _pick(rng, dims)
    return (da, db), [_ginibre(rng, da * db)]


def _by_info(build):
    """A suite's build that runs ``build(info, *columns)`` once for the
    trials of each distinct info, column k listing their k-th built draws
    (or rows).  ``build`` returns, for each matrix a trial gets, a stack
    (or list) whose item j is the group's trial j's."""

    def group(items: list) -> list:
        return list(zip(*build(items[0][0], *zip(*(made for _, made in items)))))

    return lambda infos, made: _grouped(list(zip(infos, made)), lambda it: it[0], group)


def _bipartite_build(info, rhos):
    """rho_AB on C^d_A (x) C^d_B and its reductions rho_A, rho_B."""
    rho = np.array(rhos)
    return rho, _partial_traces(rho, *info, "A"), _partial_traces(rho, *info, "B")



def _per_trial(build, per_trial: list) -> list:
    """``build`` of every trial's items in one call, split back into one
    list per trial."""
    made = iter(build([x for xs in per_trial for x in xs]))
    return [[next(made) for _ in xs] for xs in per_trial]


def _sampled(draws: list) -> list:
    """Draws of one kind built with one stacked call per shape: Ginibre
    draws into density matrices, (ranks, Haar draw) pairs into projectors."""
    return (_resolutions if isinstance(draws[0], tuple) else _density_matrices)(draws)


_LEMMA_KINDS = ("unit-direct", "tail-direct", "unit-reversed", "tail-reversed", "tail-log")


def _scalar_lemma(trials: int, seed: int, params_grid) -> CheckReport:
    """Scalar comparisons behind the continuity proofs, judged as one
    (trial, kind) array per chunk of trials.

    |x^s - y^s| <= s |x - y| on [0,1] for s >= 1 and on [1,inf) for
    0 < s <= 1; reversed on the swapped regimes; and |ln x - ln y| <=
    |x - y| on [1, inf).
    """
    rec = CheckReport("scalar-lemma", trials=trials, seed=seed)
    for chunk in _chunks(trials, STATE_CHUNK):
        rows = []
        for rng in _trial_rngs(seed, "scalar-lemma", chunk):
            x0, y0 = rng.uniform(0.0, 1.0, 2)
            x1, y1 = rng.uniform(1.0, 10.0, 2)
            s_hi = float(rng.uniform(1.0, 4.0))
            s_lo = float(rng.uniform(0.01, 1.0))
            # (lhs, rhs, s) of each kind
            rows.append((
                (abs(x0**s_hi - y0**s_hi), s_hi * abs(x0 - y0), s_hi),
                (abs(x1**s_lo - y1**s_lo), s_lo * abs(x1 - y1), s_lo),
                (s_lo * abs(x0 - y0), abs(x0**s_lo - y0**s_lo), s_lo),
                (s_hi * abs(x1 - y1), abs(x1**s_hi - y1**s_hi), s_hi),
                (abs(math.log(x1) - math.log(y1)), abs(x1 - y1), 0.0),
            ))
        lhs, rhs, s = np.moveaxis(np.array(rows), -1, 0)
        rec.compare_many(lhs, rhs, lambda j: {
            "trial": chunk[j // 5], "kind": _LEMMA_KINDS[j % 5], "s": float(s.flat[j])
        })
    return rec


def _seeded_violations(trials: int, seed: int, params_grid) -> CheckReport:
    """The ``subadd-violation`` report before sampling: two analytic
    instances on I/2 (x) I/2, so at least one violation is present.
    (q=2, s=-1) violates by exactly 1 and (q=1/2, s=1) by 6 - 4 sqrt 2.
    """
    rec = CheckReport("subadd-violation", trials=1, seed=seed)
    mm = maximally_mixed(2)
    product = tensor(mm, mm)
    points = [UnifiedParams(2.0, -1.0), UnifiedParams(0.5, 1.0)]
    lhs = np.array([unified_quantum(product, p) for p in points])
    rhs = np.array([2.0 * unified_quantum(mm, p) for p in points])
    rec.compare_many(lhs, rhs, lambda j: {
        "trial": -1, "kind": "seeded", "d_a": 2, "d_b": 2, "q": points[j].q, "s": points[j].s
    })
    return rec


def _table(per_trial: list, points, q_only: bool = False) -> np.ndarray:
    """The (slot, trial, point) array of entropies at ``points``, or of
    power sums tr(rho^q) for ``q_only`` claims, of each trial's rows of
    value stacks, one per slot, from one ``_entropy_table`` of the whole
    chunk, bit for bit the per-point values."""
    table = _entropy_table([r for rs in per_trial for r in rs], points, q_only)
    return table.reshape(len(per_trial), -1, len(points)).swapaxes(0, 1)


def _pair_case(trials, points):
    def case(t, k, c):
        i, (da, db) = trials[t]
        return {"trial": i, "d_a": da, "d_b": db, "q": points[k].q, "s": points[k].s}

    return case


def _state_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    return (rng, d), [_ginibre(rng, d)]


def _ensemble_judge(trials, states, points):
    """Quantum entropy never exceeds the classical entropy of any ensemble
    realizing the state; the Renyi line s = 0 is only claimed for q < 1.
    Each trial draws its ensemble from its own generator, and the chunk's
    ensembles are built with one stacked call per shape."""
    rhos, draws, ms = [], [], []
    for (_, (rng, _)), (((vals, mats, vecs), j),) in zip(trials, states):
        rhos.append((vals[j], vecs[j], mats[j]))
        # an ensemble of m pure states needs m >= rank >= 1
        rank = int(np.sum(vals[j] > TOL.rank))
        ms.append(int(rng.integers(rank, max(rank, 8) + 1)))
        draws.append(_ensemble_draw(rank, ms[-1], rng))
    weights = _stack_rows([w for w, _, _ in _ensembles(rhos, draws)])
    rho, weights = _table([[row, w] for (row,), w in zip(states, weights)], points)

    def case(t, k, c):
        i, (_, d) = trials[t]
        return {"trial": i, "d": d, "m": ms[t], "q": points[k].q, "s": points[k].s}

    return [(rho, weights)], None, case


def _mixing_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    return (d, k, weights), [_ginibre(rng, d) for _ in range(k)]


def _mixing_build(infos, made):
    return [
        omegas + [sum(w * om for w, om in zip(info[2], omegas))]
        for info, omegas in zip(infos, made)
    ]


def _mixing_judge(trials, states, points):
    """Mixing concavity: sum_i p_i E(omega_i) <= E(sum_i p_i omega_i)
    for 0 < q < 1 and s <= 1."""
    # a trial's k omegas (where zip stops), then their mixture: k varies, so no _table
    table = _entropy_table([r for rs in states for r in rs], points)
    rows = np.split(table, np.cumsum([len(rs) for rs in states[:-1]]))
    lhs = [sum(w * row for w, row in zip(info[2], e)) for (_, info), e in zip(trials, rows)]

    def case(t, k, c):
        i, (d, n, _) = trials[t]
        return {"trial": i, "d": d, "k": n, "q": points[k].q, "s": points[k].s}

    return [(np.stack(lhs), np.stack([e[-1] for e in rows]))], None, case


def _fannes_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    rho = _ginibre(rng, d)
    if rng.uniform() < 0.5:
        return (d, None), [rho, _ginibre(rng, d)]
    # interpolate toward a second state so small trace distances (the
    # low-region validity window) are exercised
    lam = float(rng.uniform(0.0, 0.3))
    return (d, lam), [rho, _ginibre_draw(d, d, rng)]


def _fannes_build(infos, made):
    return [
        pair if lam is None else [pair[0], (1.0 - lam) * pair[0] + lam * pair[1]]
        for (_, lam), pair in zip(infos, made)
    ]


def _fannes_judge(trials, states, points):
    """Entropy differences of random state pairs stay below the unified
    continuity bound; low-region points whose 2*eps exceeds the
    monotonicity threshold are skipped."""
    rho, omega = _table(states, points)
    eps = [0.0] * len(trials)
    bound = np.zeros((len(trials), len(points)))
    keep = np.ones(bound.shape, dtype=bool)
    # BoundSpec would accept every input here: q and s come from _as_grid,
    # d from _checked_inputs, and eps, a trace distance, lies in [0, 1].
    # So each bound is unified_fannes_bound's formula on the memo's terms
    # (a claimed point lies in a region), read once per (d, point) with
    # d in the order the trials first draw it.  The points of one q lie in
    # one region and share its formula and ln_q term, so its Tsallis kernel
    # is evaluated once per trial and q: the low formula with its window
    # open is the bound at every s, and the window 2 eps <= q^(1/(1-q)) is
    # read as a mask; the high formula at factor 1.0, times each s's
    # factor, is the bound at that s, bit for bit
    for idx in _groups(d for _, (d, _) in trials):
        d = trials[idx[0]][1][0]
        mats = [_row_stack([states[t][k] for t in idx], 1) for k in (0, 1)]
        dist = _trace_distances(*mats)
        for t, e in zip(idx, dist.tolist()):
            eps[t] = e
        for ks in _groups(p.q for p in points):
            q = points[ks[0]].q
            terms = [_point_terms(q, points[k].s, d) for k in ks]
            formula, _, log_d = terms[0]
            low = formula is _low_q
            kernel = np.array([formula(q, eps[t], math.inf if low else 1.0, log_d) for t in idx])
            for k, (_, factor, _) in zip(ks, terms):
                if low:
                    bound[idx, k] = kernel
                    keep[idx, k] = 2.0 * dist <= factor
                else:
                    bound[idx, k] = factor * kernel

    def case(t, k, c):
        i, (d, _) = trials[t]
        return {"trial": i, "d": d, "q": points[k].q, "s": points[k].s, "eps": eps[t]}

    return [(np.abs(rho - omega), bound)], keep, case


def _audenaert_judge(trials, states, points):
    """Schatten-norm inequality ||rho_A||_q + ||rho_B||_q <= 1 + ||rho_AB||_q
    for q >= 1, from the power sums tr(rho^q)."""
    # (tr rho^q)^(1/q) with scalar pow, not numpy's array **
    norm_ab, norm_a, norm_b = np.array([
        [[t ** (1.0 / p.q) for t, p in zip(row, points)] for row in slot]
        for slot in _table(states, points, q_only=True).tolist()
    ])

    def case(t, k, c):
        i, (da, db) = trials[t]
        return {"trial": i, "d_a": da, "d_b": db, "q": points[k].q}

    return [(norm_a + norm_b, 1.0 + norm_ab)], None, case


def _subadditive(q: float, s: float) -> bool:
    return q > 1.0 and s >= 1.0 / q


def _subadd_judge(trials, states, points):
    """Subadditivity E(rho_AB) <= E(rho_A) + E(rho_B) for q > 1, s >= 1/q."""
    e_ab, e_a, e_b = _table(states, points)
    return [(e_ab, e_a + e_b)], None, _pair_case(trials, points)


def _violation_draw(dims, i, rng):
    da, db = _pick(rng, dims)
    return (da, db), [_ginibre(rng, da), _ginibre(rng, db), _ginibre(rng, da * db)]


def _violation_build(info, fas, fbs, rhos):
    fa, fb = np.array(fas), np.array(fbs)
    return (fa, fb, _tensors(fa, fb)) + _bipartite_build(info, rhos)


def _violation_judge(trials, states, points):
    """E(rho_AB) against E(rho_A) + E(rho_B) on a product state and on a
    correlated one, where subadditivity is expected to fail."""
    fa, fb, prod, corr, ca, cb = _table(states, points)
    kinds = ("product", "correlated")

    def case(t, k, c):
        i, (da, db) = trials[t]
        p = points[k]
        return {"trial": i, "kind": kinds[c], "d_a": da, "d_b": db, "q": p.q, "s": p.s}

    return [(prod, fa + fb), (corr, ca + cb)], None, case


def _row_stack(rows: list, k: int) -> np.ndarray:
    """The stack of item k (0 cleaned eigenvalues, 1 matrix, 2 eigenvectors)
    of ``_density_stacks`` rows of one shape."""
    return np.array([stack[k][j] for stack, j in rows])


def _purified_build(info, rows):
    """Eigenvalue rows of the reductions rho_C (the ancilla) and rho_BC of
    the purifications of the rho_AB rows of one (d_A, d_B) pair."""
    da, db = info
    n = da * db
    psi = _purifications(_row_stack(rows, 0), _row_stack(rows, 2))
    # the rank-1 purified states are never made, only their reductions,
    # which are validated as built; no claim reads their eigenvectors
    stacks = [_density_spectra(_pure_traces(psi, *dims), False)[:1] for dims in ((n, n), (da, db * n))]
    return [[(stack, j) for j in range(len(psi))] for stack in stacks]


def _triangle_judge(trials, states, points):
    """Triangle inequality |E(rho_A) - E(rho_B)| <= E(rho_AB) for q > 1,
    s >= 1/q, via purification; also verifies that both reductions of the
    purified state carry the entropies they should."""
    purified = _by_info(_purified_build)([info for _, info in trials], [st[:1] for st in states])
    e_ab, e_a, e_b, e_c, e_bc = _table([st + list(more) for st, more in zip(states, purified)], points)
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
    rho = _ginibre(rng, d)
    ranks = (1,) * d if i % every == 0 else None
    resolution = _resolution_draw(d, rng, ranks)
    return (d, len(resolution[0])), [rho, resolution]


def _pinching_build(info, rhos, resolutions):
    """Each state with its pinching, for trials of one (d, block count);
    the stack of each block's projectors is made as it is applied."""
    rho = np.array(rhos)
    return rho, _pinches(rho, (np.array(ps) for ps in zip(*resolutions)))


def _pinching_judge(trials, states, points):
    """Pinching pushes tr(rho^q) up for q < 1 and down for q > 1."""
    t_rho, t_pin = _table(states, points, q_only=True)
    low = np.array([p.q < 1.0 for p in points], dtype=bool)

    def case(t, k, c):
        i, (d, blocks) = trials[t]
        q = points[k].q
        direction = "raise" if q < 1.0 else "lower"
        return {"trial": i, "d": d, "q": q, "blocks": blocks, "direction": direction}

    return [(np.where(low, t_rho, t_pin), np.where(low, t_pin, t_rho))], None, case


def _projective_judge(trials, states, points):
    """Pinching never lowers the unified entropy: E(rho) <= E(pinched)."""
    rho, pinched = _table(states, points)

    def case(t, k, c):
        i, (d, blocks) = trials[t]
        return {"trial": i, "d": d, "q": points[k].q, "s": points[k].s, "blocks": blocks}

    return [(rho, pinched)], None, case


@dataclass(frozen=True)
class Suite:
    """A claim checked on random states: the random part of a ``CHECKS`` row.

    ``draw(dims, i, rng)`` gives (info, draws) for trial i: its discrete
    choices and the ``linops`` draws (Ginibre draws, (ranks, Haar draw)
    pairs of resolutions) it takes from its generator.  The chunk's draws
    are built into arrays (matrices, projector tuples) with one stacked
    call per kind and shape, ``build(infos, made)`` turns the chunk's infos
    and each trial's built draws into each trial's matrices (``_by_info``
    for one stacked call per distinct info), and the chunk's matrices
    become states through one stacked call.  ``judge(trials, states,
    points)`` then judges the whole chunk at once from its (i, info) pairs
    and each trial's states, rows ((vals, mats, vecs), j) of
    ``_density_stacks``, reading entropies at the claimed points, or power
    sums tr(rho^q) for ``q_only`` claims (which ignore s and compare each
    distinct q of the grid once), through ``_table``.  It returns (pairs,
    keep, case): one (lhs, rhs) pair of (trial, point) arrays per case of
    "lhs <= rhs", a (trial, point) mask of the points inside the claim's
    validity window (None for all), and ``case(t, k, c)``, the case dict of
    trial t, point k and case c.  Points outside ``claimed`` are skipped
    without a judge; with none inside, no trial is drawn.

    ``largest(dim)`` is the side of the largest matrix, drawn, built or
    made by the judge, of a trial at ``dim`` (an item of ``dims``), which
    sizes the chunks: d, or d_A d_B (``math.prod``, rho_AB's side) for a
    pair.  ``vectors`` says whether the judge reads the eigenvectors of
    each trial's first state; the other states' stacks keep none.
    """

    draw: Callable
    build: Callable
    judge: Callable
    dims: tuple
    grid: tuple
    claimed: Callable = lambda q, s: True
    q_only: bool = False
    largest: Callable = lambda d: d
    vectors: bool = False

    @property
    def pairs(self) -> bool:
        """Whether the suite draws (d_A, d_B) pairs, as its dims list."""
        return isinstance(self.dims[0], tuple)


@dataclass(frozen=True)
class Check:
    """A row of ``CHECKS``: ``exact(trials, seed, params_grid)`` makes the
    report from closed forms and ``suite`` runs random trials into it
    (either may be None), for dimensions in [least, most] = ``dims``."""

    exact: Callable | None
    suite: Suite | None
    dims: tuple = (1, MAX_CHECK_DIM)
    breaks: bool = False


CHECKS = {
    "ensemble": Check(None, Suite(
        _state_draw, lambda infos, made: made, _ensemble_judge, (2, 3, 4, 5), ENSEMBLE_GRID,
        claimed=lambda q, s: not (s == 0.0 and not q < 1.0), vectors=True,
    )),
    "mixing": Check(None, Suite(
        _mixing_draw, _mixing_build, _mixing_judge, DEFAULT_DIMS, MIXING_GRID,
        claimed=lambda q, s: q < 1.0 and s <= 1.0,
    )),
    "scalar-lemma": Check(_scalar_lemma, None),
    # the Fannes bound is stated for d >= 2
    "fannes": Check(None, Suite(
        _fannes_draw, _fannes_build, _fannes_judge, DEFAULT_DIMS, FANNES_GRID,
        claimed=lambda q, s: fannes_range(q, s) is not None,
    ), (2, MAX_CHECK_DIM)),
    "audenaert": Check(None, Suite(
        _bipartite_draw, _by_info(_bipartite_build), _audenaert_judge, DEFAULT_PAIR_DIMS,
        tuple((q, 0.0) for q in AUDENAERT_Q), claimed=lambda q, s: q >= 1.0, q_only=True,
        largest=math.prod,
    )),
    "subadd": Check(None, Suite(
        _bipartite_draw, _by_info(_bipartite_build), _subadd_judge, DEFAULT_PAIR_DIMS,
        SUBADD_GRID, claimed=_subadditive, largest=math.prod,
    )),
    "subadd-violation": Check(_seeded_violations, Suite(
        _violation_draw, _by_info(_violation_build), _violation_judge, SQUARE_PAIR_DIMS,
        VIOLATION_GRID, largest=math.prod,
    ), breaks=True),
    # the judge purifies rho_AB and builds rho_BC, (d_B d_A d_B)-square
    "triangle": Check(None, Suite(
        _bipartite_draw, _by_info(_bipartite_build), _triangle_judge, SQUARE_PAIR_DIMS,
        SUBADD_GRID, claimed=_subadditive, largest=lambda ab: ab[1] * ab[0] * ab[1], vectors=True,
    )),
    # a random resolution has two or more blocks, and its drawn block
    # ranks need d <= MAX_RANK_DRAW_DIM
    "pinching": Check(None, Suite(
        functools.partial(_pinching_draw, 7), _by_info(_pinching_build), _pinching_judge,
        PINCHING_DIMS, tuple((q, 0.0) for q in PINCHING_Q), q_only=True,
    ), (2, MAX_RANK_DRAW_DIM)),
    "projective": Check(None, Suite(
        functools.partial(_pinching_draw, 5), _by_info(_pinching_build), _projective_judge,
        DEFAULT_DIMS, PROJECTIVE_GRID,
    ), (2, MAX_RANK_DRAW_DIM)),
    "qubit-measure": Check(lambda trials, seed, params_grid: qubit_measurement_decrease(
        diagonal_density((0.8, 0.2)), params_grid
    ), None),
}
#: in this order, which fixes each check's id in the trial seeds
ALL_CHECKS = tuple(CHECKS)


def _run_chunk(rec, suite, claimed, chunk, draw) -> None:
    """Draw, build and judge the trials of ``chunk`` into ``rec``.

    ``draw(chunk)`` returns (info, draws) for each trial, each from that
    trial's own generator.  The chunk's draws are built with one stacked
    call per kind and shape, the trials' matrices are made from them by
    ``suite.build``, and those become states through one stacked call;
    they die when this call returns, before the next chunk is drawn.
    """
    infos, draws = zip(*draw(chunk))
    made = _per_trial(lambda flat: _grouped(flat, type, _sampled), draws)
    mats = suite.build(list(infos), made)
    del draws, made
    marks = [suite.vectors and k == 0 for ms in mats for k in range(len(ms))]
    states = _per_trial(lambda flat: _density_stacks(flat, marks), mats)
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


def _run_suite(name, trials, seed, dims, grid, rec) -> None:
    """Run the suite of the ``CHECKS`` row ``name`` over ``grid``, from
    ``_as_grid``, into ``rec``, the report of the row's closed-form part."""
    suite = CHECKS[name].suite
    if suite.q_only:
        # s is ignored, so a q repeated with another s would repeat its comparisons
        grid = list({p.q: p for p in grid}.values())
    claimed = [p for p in grid if suite.claimed(p.q, p.s)]
    rec.trials += trials
    rec.skipped += (len(grid) - len(claimed)) * trials
    if not claimed:
        return
    dims = dims or suite.dims
    d_max = max(map(suite.largest, dims))
    size = max(1, STATE_CHUNK * _CHUNK_DIM**2 // max(d_max, _CHUNK_DIM) ** 2)

    def draw(chunk):
        return [suite.draw(dims, i, rng) for i, rng in zip(chunk, _trial_rngs(seed, name, chunk))]

    for chunk in _chunks(trials, size):
        _run_chunk(rec, suite, claimed, chunk, draw)


QUBIT_MEASUREMENT = (((1, 0), (0, 0)), ((0, 1), (0, 0)))


def qubit_measurement_decrease(rho_diag: DensityOperator, params_grid=None) -> CheckReport:
    """Strict entropy decrease under the qubit measurement {|0><0|, |0><1|}.

    The non-selective update maps any diagonal qubit state to the pure
    state |0><0|, so every unified entropy must drop strictly when the
    input is impure.  Off-diagonal or pure inputs are rejected.
    """
    _expect(rho_diag, DensityOperator)
    if rho_diag.dim != 2:
        raise DimMismatch(f"expected a qubit state, got dimension {rho_diag.dim}")
    off = max(abs(rho_diag.mat[0, 1]), abs(rho_diag.mat[1, 0]))
    if off > TOL.herm:
        raise NotDiagonal(f"off-diagonal magnitude {off!r} exceeds {TOL.herm:g}")
    if float(rho_diag.eigenvalues.min()) <= TOL.rank:
        raise PureState("strict decrease needs an impure state")
    grid = _as_grid(params_grid, PROJECTIVE_GRID)
    rec = CheckReport("qubit-measure", trials=1)
    after = apply_generalized(rho_diag, GeneralizedMeasurement(QUBIT_MEASUREMENT))
    lhs = np.array([unified_quantum(after, p) for p in grid])
    rhs = np.array([unified_quantum(rho_diag, p) for p in grid])
    rec.compare_many(lhs, rhs, lambda j: {"q": grid[j].q, "s": grid[j].s}, strict=True)
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
        if not isinstance(self.variant, str) or self.variant not in ("example0", "example1"):
            raise DomainError(f'variant must be "example0" or "example1", got {_shown(self.variant)}')
        if not 0.0 <= _real(self.eps) < 1.0:
            raise DomainError(f"eps must lie in [0, 1), got {_shown(self.eps)}")
        _dimension(self.d, 2)
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
    if _point_form(q, s) is None:
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
    if not isinstance(name, str) or name not in CHECKS:
        raise DomainError(f"unknown check {_shown(name)}; choose from {', '.join(ALL_CHECKS)}")
    trials, seed = _integer("trial count", trials), _integer("seed", seed)
    if trials < 0:
        raise DomainError(f"trial count must be nonnegative, got {_shown(trials)}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {_shown(seed)}")
    if dims is not None:
        least, most = CHECKS[name].dims
        dims = tuple(_integer("dimension", d) for d in _items("dims", dims))
        for d in dims:
            if not 1 <= d <= MAX_CHECK_DIM:
                raise DomainError(f"dimension must lie in [1, {MAX_CHECK_DIM}], got {_shown(d)}")
            if d < least:
                raise DomainError(f"check {name} needs every dimension >= {least}, got {d!r}")
            if d > most:
                raise DomainError(f"check {name} needs every dimension <= {most}, got {d!r}")
    return trials, seed, dims


def run_check(
    name: str,
    trials: int = 1000,
    seed: int = 0,
    dims=None,
    params_grid=None,
) -> CheckReport:
    """Run the ``CHECKS`` row ``name``, the only entry to any check; ``dims``
    takes integer system sizes in the row's range, within [1,
    ``MAX_CHECK_DIM``] (pairs are formed for the bipartite suites, capped
    at composite dimension 16), ``trials`` and ``seed`` nonnegative
    integers.  Inputs are checked before anything is drawn."""
    trials, seed, dims = _checked_inputs(name, trials, seed, dims)
    exact, suite = CHECKS[name].exact, CHECKS[name].suite
    # a check that reads no grid still refuses a bad one
    grid = _as_grid(params_grid, suite.grid if suite else ())
    rec = exact(trials, seed, params_grid) if exact else CheckReport(name, seed=seed)
    if suite:
        if dims is not None and suite.pairs:
            dims = tuple((a, b) for a in dims for b in dims if a * b <= 16) or DEFAULT_PAIR_DIMS
        _run_suite(name, trials, seed, dims, grid, rec)
    return rec


def report_ok(report: CheckReport) -> bool:
    """Pass criterion: at least one comparison, and no failures, or at
    least one for a check expected to break."""
    if report.comparisons == 0:
        return False
    breaks = report.check in CHECKS and CHECKS[report.check].breaks
    return (report.failures > 0) == breaks

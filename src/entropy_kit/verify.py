"""Randomized, seeded verification of the entropy family's inequalities.

Every check draws its per-trial randomness from a SeedSequence built on
(seed, check id, trial index), so reports are reproducible byte for byte
regardless of execution order.  The random-state suites are rows of
``SUITES`` run by one loop, which draws the matrices of ``STATE_CHUNK``
trials first, builds all of their states with one stacked
``density_operators`` call and evaluates them at every grid point as
one table, each bit-identical to working one state and point at a time.
``run_check`` is the entry point for every suite.  A comparison
"lhs <= rhs" fails when the signed violation lhs - rhs exceeds
TOL.check_rel * (1 + magnitude); ``failures`` counts failed comparisons,
``skipped`` counts grid points outside a claim's proven region or
validity window.  A suite that made no comparison at all does not pass.

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
    schatten_norm,
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

#: trials whose states one ``density_operators`` call builds.  Measured on
#: the harness against one trial at a time: 8 gave +28 % trials/s and 16
#: +34 %, 32 gained little more, and 64 added about 2.9 MB of peak RSS, as
#: a whole chunk's states (not its trials' drawn matrices) stay alive
STATE_CHUNK = 16

DEFAULT_DIMS = (2, 3, 4, 5, 6)
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
    """Outcome of one verification suite, accumulated by ``compare``."""

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


def _chunked_trials(check: str, seed: int, trials: int, draw, derive=None):
    """Yield each chunk's (trial, info, states) as a list, in trial order.

    ``draw(i, rng)`` returns (info, matrices) for trial i from that
    trial's own generator.  Each chunk of ``STATE_CHUNK`` trials'
    matrices becomes states through one stacked call.  ``derive(info,
    states)``, if given, returns matrices that need the first states;
    they are built the same way and appended to the trial's states.
    """
    for start in range(0, trials, STATE_CHUNK):
        chunk = range(start, min(start + STATE_CHUNK, trials))
        infos, mats = zip(*[draw(i, _trial_rng(seed, check, i)) for i in chunk])
        states = _stacked(mats)
        del mats
        if derive is not None:
            more = _stacked([derive(info, st) for info, st in zip(infos, states)])
            states = [first + second for first, second in zip(states, more)]
            del more
        yield list(zip(chunk, infos, states))
        # hold at most one chunk of states while the next is drawn
        del infos, states


def check_scalar_lemma(trials: int = 1000, seed: int = 0) -> CheckReport:
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


def _ensemble_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    return (rng, d), [_random_matrix(rng, d)]


def _ensemble(i, info, states):
    """Quantum entropy never exceeds the classical entropy of any ensemble
    realizing the state; the Renyi line s = 0 is only claimed for q < 1."""
    rng, d = info
    (rho,) = states
    # an ensemble of m pure states needs m >= rank >= 1
    rank = int(np.sum(rho.eigenvalues > TOL.rank))
    m = int(rng.integers(rank, max(rank, 8) + 1))
    weights = ensemble_from_state(rho, m, rng).weights
    return (rho, weights), lambda e, k, q, s: [(
        e[0][k], e[1][k], {"trial": i, "d": d, "m": m, "q": q, "s": s}
    )]


def _mixing_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    omegas = [_random_matrix(rng, d) for _ in range(k)]
    mixed = sum(w * om for w, om in zip(weights, omegas))
    return (d, k, weights), omegas + [mixed]


def _mixing(i, info, states):
    """Mixing concavity: sum_i p_i E(omega_i) <= E(sum_i p_i omega_i)
    for 0 < q < 1 and s <= 1."""
    d, n, weights = info

    def at(e, k, q, s):
        # zip stops at the omegas' rows; the mixture's row is last
        lhs = sum(w * row[k] for w, row in zip(weights, e))
        return [(lhs, e[-1][k], {"trial": i, "d": d, "k": n, "q": q, "s": s})]

    return states, at


def _fannes_draw(dims, i, rng):
    d = int(_pick(rng, dims))
    rho = _random_matrix(rng, d)
    if rng.uniform() < 0.5:
        return d, [rho, _random_matrix(rng, d)]
    # interpolate toward a second state so small trace distances (the
    # low-region validity window) are exercised; the second state is
    # built only to be validated
    lam = float(rng.uniform(0.0, 0.3))
    other = random_density_matrix(d, d, rng)
    return d, [rho, (1.0 - lam) * rho + lam * other, other]


def _fannes(i, d, states):
    """Entropy differences of random state pairs stay below the unified
    continuity bound; low-region points whose 2*eps exceeds the
    monotonicity threshold are skipped."""
    rho, omega, *_ = states
    eps = min(trace_distance(rho, omega), 1.0)

    def at(e, k, q, s):
        try:
            bound = unified_fannes_bound(BoundSpec(q, s, d, eps))
        except OutOfValidity:
            return None
        diff = abs(e[0][k] - e[1][k])
        return [(diff, bound, {"trial": i, "d": d, "q": q, "s": s, "eps": eps})]

    return (rho, omega), at


def _audenaert(i, info, states):
    """Schatten-norm inequality ||rho_A||_q + ||rho_B||_q <= 1 + ||rho_AB||_q
    for q > 1."""
    da, db = info
    rho_ab, ra, rb = states
    # reads no table: schatten_norm also refuses q < 1
    return (), lambda e, k, q, s: [(
        schatten_norm(ra, q) + schatten_norm(rb, q),
        1.0 + schatten_norm(rho_ab, q),
        {"trial": i, "d_a": da, "d_b": db, "q": q},
    )]


def _subadditive(q: float, s: float) -> bool:
    return q > 1.0 and s >= 1.0 / q


def _subadd(i, info, states):
    """Subadditivity E(rho_AB) <= E(rho_A) + E(rho_B) for q > 1, s >= 1/q."""
    da, db = info
    return states, lambda e, k, q, s: [(
        e[0][k], e[1][k] + e[2][k], {"trial": i, "d_a": da, "d_b": db, "q": q, "s": s}
    )]


def _violation_draw(dims, i, rng):
    da, db = _pick(rng, dims)
    fa = _random_matrix(rng, da)
    fb = _random_matrix(rng, db)
    return (da, db), [fa, fb, np.kron(fa, fb)] + _bipartite_matrices(rng, da, db)


def _violation(i, info, states):
    """E(rho_AB) against E(rho_A) + E(rho_B) on a product state and on a
    correlated one, where subadditivity is expected to fail."""
    da, db = info
    # rows of states fa, fb, prod, corr, ca, cb
    cases = (("product", 2, 0, 1), ("correlated", 3, 4, 5))
    return states, lambda e, k, q, s: [
        (
            e[joint][k],
            e[a][k] + e[b][k],
            {"trial": i, "kind": kind, "d_a": da, "d_b": db, "q": q, "s": s},
        )
        for kind, joint, a, b in cases
    ]


def _purified_reductions(info, states):
    # the rank-1 purified state needs no DensityOperator (and no
    # eigensolve) of its own: only its two reductions are evaluated
    da, db = info
    n = da * db
    psi = purify(states[0])
    pure = np.outer(psi, psi.conj())
    return [
        partial_trace(pure, n, n, "B"),
        partial_trace(pure, da, db * n, "B"),
    ]


def _triangle(i, info, states):
    """Triangle inequality |E(rho_A) - E(rho_B)| <= E(rho_AB) for q > 1,
    s >= 1/q, via purification; also verifies that both reductions of the
    purified state carry the entropies they should."""
    da, db = info

    def at(e, k, q, s):
        e_ab, e_a, e_b, e_c, e_bc = (row[k] for row in e)
        base = {"trial": i, "d_a": da, "d_b": db, "q": q, "s": s}
        return [
            (abs(e_ab - e_c), 0.0, dict(base, kind="purified-complement")),
            (abs(e_a - e_bc), 0.0, dict(base, kind="purified-rest")),
            (abs(e_a - e_b), e_ab, dict(base, kind="triangle")),
        ]

    return states, at


def _pinching_draw(every, dims, i, rng):
    """A random state and its pinching by a random resolution, with
    rank-1 blocks on every ``every``-th trial so the fully projective
    case is always exercised."""
    d = int(_pick(rng, dims))
    rho = _random_matrix(rng, d)
    ranks = (1,) * d if i % every == 0 else None
    resolution = random_resolution(d, rng, ranks=ranks)
    return (d, resolution), [rho, pinch(rho, resolution)]


def _pinching(i, info, states):
    """Pinching pushes tr(rho^q) up for q < 1 and down for q > 1."""
    d, resolution = info

    def at(t, k, q, s):
        t_rho, t_pin = t[0][k], t[1][k]
        case = {"trial": i, "d": d, "q": q, "blocks": resolution.size}
        if q < 1.0:
            return [(t_rho, t_pin, dict(case, direction="raise"))]
        return [(t_pin, t_rho, dict(case, direction="lower"))]

    return states, at


def _projective(i, info, states):
    """Pinching never lowers the unified entropy: E(rho) <= E(pinched)."""
    d, resolution = info
    return states, lambda e, k, q, s: [(
        e[0][k], e[1][k], {"trial": i, "d": d, "q": q, "s": s, "blocks": resolution.size}
    )]


@dataclass(frozen=True)
class Suite:
    """One claim checked on random states: a row of ``SUITES``.

    ``draw(dims, i, rng)`` gives (info, matrices) for trial i and
    ``derive`` an optional second stage (see ``_chunked_trials``).
    ``trial(i, info, states)`` returns (holders, ``at``): the spectrum
    holders whose table rows the trial reads, and ``at(rows, k, q, s)``,
    the (lhs, rhs, case) comparisons "lhs <= rhs" at the k-th claimed
    point, or None to skip it.  ``rows`` holds one row per holder, in
    order, of entropies at the claimed points, or of power sums tr(rho^q)
    for ``q_only`` claims; those ignore s, so each distinct q of the grid
    is compared once.  Points outside ``claimed`` are skipped without a
    call.  ``pairs`` suites draw (d_A, d_B) pairs.
    """

    draw: Callable
    trial: Callable
    dims: tuple
    grid: tuple
    claimed: Callable = lambda q, s: True
    derive: Callable | None = None
    pairs: bool = False
    q_only: bool = False


SUITES = {
    "ensemble": Suite(
        _ensemble_draw, _ensemble, (2, 3, 4, 5), ENSEMBLE_GRID,
        claimed=lambda q, s: not (s == 0.0 and not q < 1.0),
    ),
    "mixing": Suite(
        _mixing_draw, _mixing, DEFAULT_DIMS, MIXING_GRID,
        claimed=lambda q, s: q < 1.0 and s <= 1.0,
    ),
    "fannes": Suite(
        _fannes_draw, _fannes, DEFAULT_DIMS, FANNES_GRID,
        claimed=lambda q, s: fannes_range(q, s) is not None,
    ),
    "audenaert": Suite(
        _bipartite_draw, _audenaert, DEFAULT_PAIR_DIMS, tuple((q, 0.0) for q in AUDENAERT_Q),
        pairs=True, q_only=True,
    ),
    "subadd": Suite(
        _bipartite_draw, _subadd, DEFAULT_PAIR_DIMS, SUBADD_GRID,
        claimed=_subadditive, pairs=True,
    ),
    "subadd-violation": Suite(
        _violation_draw, _violation, SQUARE_PAIR_DIMS, VIOLATION_GRID, pairs=True
    ),
    "triangle": Suite(
        _bipartite_draw, _triangle, SQUARE_PAIR_DIMS, SUBADD_GRID,
        claimed=_subadditive, derive=_purified_reductions, pairs=True,
    ),
    "pinching": Suite(
        functools.partial(_pinching_draw, 7), _pinching, PINCHING_DIMS,
        tuple((q, 0.0) for q in PINCHING_Q), q_only=True,
    ),
    "projective": Suite(
        functools.partial(_pinching_draw, 5), _projective, DEFAULT_DIMS, PROJECTIVE_GRID
    ),
}


def _run_suite(name, trials, seed, dims, grid, rec=None) -> CheckReport:
    """Run the ``SUITES`` row ``name`` over ``grid``, from ``_as_grid``;
    ``rec`` carries comparisons made before the random trials."""
    suite = SUITES[name]
    if suite.q_only:
        # s is ignored, so a q repeated with another s would repeat its comparisons
        grid = list({p.q: p for p in grid}.values())
    claimed = [p for p in grid if suite.claimed(p.q, p.s)]
    points = [(k, p.q, p.s) for k, p in enumerate(claimed)]
    unclaimed = len(grid) - len(points)
    if rec is None:
        rec = CheckReport(name, seed=seed)
    draw = functools.partial(suite.draw, dims or suite.dims)
    for chunk in _chunked_trials(name, seed, trials, draw, suite.derive):
        setups = [suite.trial(i, info, states) for i, info, states in chunk]
        # one table of the whole chunk, bit for bit the per-point values
        holders = [h for hs, _ in setups for h in hs]
        if suite.q_only:
            table = _power_sums(holders, [p.q for p in claimed]).tolist()
        else:
            table = _entropy_rows(holders, claimed)
        start = 0
        for hs, at in setups:
            rows = table[start : start + len(hs)]
            start += len(hs)
            rec.trials += 1
            rec.skipped += unclaimed
            for k, q, s in points:
                cases = at(rows, k, q, s)
                if cases is None:
                    rec.skipped += 1
                    continue
                for lhs, rhs, case in cases:
                    rec.compare(lhs, rhs, case)
    return rec


def search_subadditivity_violation(
    trials: int = 200, dims=None, params_grid=None, seed: int = 0
) -> CheckReport:
    """Hunt for E(rho_AB) > E(rho_A) + E(rho_B) where subadditivity fails.

    The default grid samples both failure regions, {q > 1, s < 0} and
    {0 < q < 1, s > 0}.  Two analytic instances on I/2 (x) I/2 are
    evaluated before any sampling, so at least one violation is present:
    (q=2, s=-1) violates by exactly 1 and (q=1/2, s=1) by 6 - 4 sqrt 2.
    Here ``failures`` counts violations found, and finding none is the
    failure mode.
    """
    grid = _as_grid(params_grid, VIOLATION_GRID)
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
    return _run_suite("subadd-violation", trials, seed, dims, grid, rec)


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


def run_check(
    name: str,
    trials: int = 1000,
    seed: int = 0,
    dims=None,
    params_grid=None,
) -> CheckReport:
    """Run one named suite; ``dims`` takes system sizes (pairs are formed
    for the bipartite checks, capped at composite dimension 16)."""
    if name not in ALL_CHECKS:
        raise DomainError(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
    if trials < 0:
        raise DomainError(f"trial count must be nonnegative, got {trials!r}")
    if dims is not None:
        dims = tuple(int(d) for d in dims)
    if name == "scalar-lemma":
        _as_grid(params_grid, ())  # reads no grid, but a bad one is still an error
        return check_scalar_lemma(trials, seed)
    if name == "qubit-measure":
        return qubit_measurement_decrease(diagonal_density((0.8, 0.2)), params_grid)
    if dims is not None and SUITES[name].pairs:
        dims = tuple((a, b) for a in dims for b in dims if a * b <= 16) or DEFAULT_PAIR_DIMS
    if name == "subadd-violation":
        return search_subadditivity_violation(trials, dims, params_grid, seed)
    return _run_suite(name, trials, seed, dims, _as_grid(params_grid, SUITES[name].grid))


def report_ok(report: CheckReport) -> bool:
    """Pass criterion: at least one comparison and no failures, except
    the violation search which must find at least one."""
    if report.comparisons == 0:
        return False
    if report.check == "subadd-violation":
        return report.failures >= 1
    return report.failures == 0

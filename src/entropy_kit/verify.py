"""Randomized, seeded verification of the entropy family's inequalities.

Every check draws its per-trial randomness from a SeedSequence built on
(seed, check id, trial index), so reports are reproducible byte for byte
regardless of execution order.  The random suites draw the matrices of
``STATE_CHUNK`` trials first and build all of their states with one
stacked ``density_operators`` call, which is bit-identical to building
them one by one.  A comparison "lhs <= rhs" fails when the signed
violation lhs - rhs exceeds TOL.check_rel * (1 + magnitude); ``failures``
counts failed comparisons, ``skipped`` counts grid points outside a
claim's proven region or validity window.  A suite that made no
comparison at all does not pass.

The subadditivity violation search inverts the reading: there the
inequality is expected to break, ``failures`` counts the violations
found, and an empty result is the anomaly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundSpec, _check_dimension, fannes_range, max_unified, unified_fannes_bound
from .entropies import UnifiedParams, unified_classical, unified_from_power_sum, unified_quantum
from .errors import DimMismatch, DomainError, InvalidIndex, NotDiagonal, OutOfValidity, PureState
from .linops import (
    DensityOperator,
    GeneralizedMeasurement,
    apply_generalized,
    density_operators,
    diagonal_density,
    ensemble_from_state,
    maximally_mixed,
    partial_trace_matrix,
    pinch_matrix,
    purify,
    random_density_matrix,
    random_resolution,
    schatten_norm,
    tensor,
    trace_distance,
    trace_power,
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

#: trials whose states one ``density_operators`` call builds; larger
#: chunks gain little speed and raise the peak memory of the triangle
#: suite, whose 81 x 81 purified states are held for a whole chunk
STATE_CHUNK = 16

DEFAULT_DIMS = (2, 3, 4, 5, 6)
DEFAULT_PAIR_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))

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
VIOLATION_GRID_HIGH = ((2.0, -1.0), (3.0, -0.5), (2.0, -0.001))
VIOLATION_GRID_LOW = ((0.3, 0.5), (0.5, 1.0), (0.7, 0.5))
PINCHING_DIMS = (3, 4, 5, 6)
PINCHING_Q = (0.3, 0.5, 1.5, 2.0, 2.5, 4.0)
PROJECTIVE_GRID = tuple(
    (q, s)
    for q in (0.3, 0.7, 1.5, 2.0, 3.0)
    for s in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
)


@dataclass
class CheckReport:
    """Outcome of one verification suite."""

    check: str
    trials: int
    skipped: int
    failures: int
    max_violation: float
    worst_case: dict | None
    seed: int
    params_grid: list = field(default_factory=list)
    #: comparisons made; not emitted, so JSON and CSV reports keep their bytes
    comparisons: int = 0

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


class _Recorder:
    """Accumulates lhs <= rhs comparisons and the worst signed violation."""

    def __init__(self, check: str, seed: int, params_grid=None):
        self.check = check
        self.seed = seed
        self.params_grid = [tuple(p) for p in params_grid] if params_grid else []
        self.trials = 0
        self.skipped = 0
        self.comparisons = 0
        self.failures = 0
        self.max_violation = None
        self.worst_case = None

    def compare(self, lhs: float, rhs: float, info: dict, strict: bool = False) -> bool:
        self.comparisons += 1
        violation = float(lhs) - float(rhs)
        if strict:
            failed = violation >= 0.0
        else:
            failed = violation > TOL.check_rel * (1.0 + max(abs(lhs), abs(rhs)))
        if failed:
            self.failures += 1
        if self.max_violation is None or violation > self.max_violation:
            self.max_violation = violation
            self.worst_case = dict(info, lhs=float(lhs), rhs=float(rhs))
        return failed

    def skip(self) -> None:
        self.skipped += 1

    def report(self) -> CheckReport:
        return CheckReport(
            check=self.check,
            trials=self.trials,
            skipped=self.skipped,
            failures=self.failures,
            max_violation=0.0 if self.max_violation is None else self.max_violation,
            worst_case=self.worst_case,
            seed=self.seed,
            params_grid=self.params_grid,
            comparisons=self.comparisons,
        )


def _trial_rng(seed: int, check: str, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, _CHECK_IDS[check], index))


def _as_grid(params_grid, default) -> list:
    grid = default if params_grid is None else params_grid
    return [(float(q), float(s)) for q, s in grid]


def _points(grid, claimed=lambda q, s: True) -> list:
    """(q, s, params) per grid point, with params None where the claim
    is not made, so each suite builds its UnifiedParams once per point."""
    return [(q, s, UnifiedParams(q, s) if claimed(q, s) else None) for q, s in grid]


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
        partial_trace_matrix(rho_ab, da, db, "A"),
        partial_trace_matrix(rho_ab, da, db, "B"),
    ]


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
    """Yield (trial, info, states) in trial order.

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
        yield from zip(chunk, infos, states)
        # hold at most one chunk of states while the next is drawn
        del infos, states


def check_ensemble_bound(
    trials: int = 1000,
    dims=(2, 3, 4, 5),
    m_range=(1, 8),
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Quantum entropy never exceeds the classical entropy of any ensemble
    realizing the state; the Renyi line s = 0 is only claimed for q < 1."""
    grid = _as_grid(params_grid, ENSEMBLE_GRID)
    rec = _Recorder("ensemble", seed, grid)
    points = _points(grid, lambda q, s: not (s == 0.0 and not q < 1.0))

    def draw(i, rng):
        d = int(_pick(rng, dims))
        return (rng, d), [_random_matrix(rng, d)]

    for i, (rng, d), (rho,) in _chunked_trials("ensemble", seed, trials, draw):
        rank = int(np.sum(rho.eigenvalues > TOL.rank))
        lo = max(rank, int(m_range[0]))
        hi = max(lo, int(m_range[1]))
        m = int(rng.integers(lo, hi + 1))
        ens = ensemble_from_state(rho, m, rng)
        rec.trials += 1
        for q, s, params in points:
            if params is None:
                rec.skip()
                continue
            rec.compare(
                unified_quantum(rho, params),
                unified_classical(ens.weights, params),
                {"trial": i, "d": d, "m": m, "q": q, "s": s},
            )
    return rec.report()


def check_mixing_bound(
    trials: int = 1000,
    dims=DEFAULT_DIMS,
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Mixing concavity: sum_i p_i E(omega_i) <= E(sum_i p_i omega_i)
    for 0 < q < 1 and s <= 1."""
    grid = _as_grid(params_grid, MIXING_GRID)
    rec = _Recorder("mixing", seed, grid)
    points = _points(grid, lambda q, s: q < 1.0 and s <= 1.0)

    def draw(i, rng):
        d = int(_pick(rng, dims))
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        omegas = [_random_matrix(rng, d) for _ in range(k)]
        mixed = sum(w * om for w, om in zip(weights, omegas))
        return (d, k, weights), omegas + [mixed]

    for i, (d, k, weights), states in _chunked_trials("mixing", seed, trials, draw):
        *omegas, mixed = states
        rec.trials += 1
        for q, s, params in points:
            if params is None:
                rec.skip()
                continue
            lhs = sum(w * unified_quantum(om, params) for w, om in zip(weights, omegas))
            rec.compare(
                lhs,
                unified_quantum(mixed, params),
                {"trial": i, "d": d, "k": k, "q": q, "s": s},
            )
    return rec.report()


def check_scalar_lemma(trials: int = 1000, seed: int = 0) -> CheckReport:
    """Scalar comparisons behind the continuity proofs.

    |x^s - y^s| <= s |x - y| on [0,1] for s >= 1 and on [1,inf) for
    0 < s <= 1; reversed on the swapped regimes; and |ln x - ln y| <=
    |x - y| on [1, inf).
    """
    rec = _Recorder("scalar-lemma", seed)
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
    return rec.report()


def check_fannes(
    trials: int = 1000,
    dims=DEFAULT_DIMS,
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Entropy differences of random state pairs stay below the unified
    continuity bound; low-region points whose 2*eps exceeds the
    monotonicity threshold are skipped."""
    grid = _as_grid(params_grid, FANNES_GRID)
    rec = _Recorder("fannes", seed, grid)
    points = _points(grid, lambda q, s: fannes_range(q, s) is not None)

    def draw(i, rng):
        d = int(_pick(rng, dims))
        rho = _random_matrix(rng, d)
        if rng.uniform() < 0.5:
            return d, [rho, _random_matrix(rng, d)]
        # interpolate toward a second state so small trace distances
        # (the low-region validity window) are exercised; the second
        # state is built only to be validated
        lam = float(rng.uniform(0.0, 0.3))
        other = random_density_matrix(d, d, rng)
        return d, [rho, (1.0 - lam) * rho + lam * other, other]

    for i, d, (rho, omega, *_) in _chunked_trials("fannes", seed, trials, draw):
        eps = min(trace_distance(rho, omega), 1.0)
        rec.trials += 1
        for q, s, params in points:
            if params is None:
                rec.skip()
                continue
            try:
                bound = unified_fannes_bound(BoundSpec(q, s, d, eps))
            except OutOfValidity:
                rec.skip()
                continue
            diff = abs(unified_quantum(rho, params) - unified_quantum(omega, params))
            rec.compare(
                diff, bound, {"trial": i, "d": d, "q": q, "s": s, "eps": eps}
            )
    return rec.report()


def check_audenaert(
    trials: int = 1000,
    dims=DEFAULT_PAIR_DIMS,
    q_grid=AUDENAERT_Q,
    seed: int = 0,
) -> CheckReport:
    """Schatten-norm inequality ||rho_A||_q + ||rho_B||_q <= 1 + ||rho_AB||_q
    for q > 1."""
    rec = _Recorder("audenaert", seed, [(q, 0.0) for q in q_grid])

    def draw(i, rng):
        da, db = _pick(rng, dims)
        return (da, db), _bipartite_matrices(rng, da, db)

    for i, (da, db), (rho_ab, ra, rb) in _chunked_trials("audenaert", seed, trials, draw):
        rec.trials += 1
        for q in q_grid:
            rec.compare(
                schatten_norm(ra, q) + schatten_norm(rb, q),
                1.0 + schatten_norm(rho_ab, q),
                {"trial": i, "d_a": da, "d_b": db, "q": float(q)},
            )
    return rec.report()


def _subadditive(q: float, s: float) -> bool:
    return q > 1.0 and s >= 1.0 / q


def check_subadditivity(
    trials: int = 1000,
    dims=DEFAULT_PAIR_DIMS,
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Subadditivity E(rho_AB) <= E(rho_A) + E(rho_B) for q > 1, s >= 1/q."""
    grid = _as_grid(params_grid, SUBADD_GRID)
    rec = _Recorder("subadd", seed, grid)
    points = _points(grid, _subadditive)

    def draw(i, rng):
        da, db = _pick(rng, dims)
        return (da, db), _bipartite_matrices(rng, da, db)

    for i, (da, db), (rho_ab, ra, rb) in _chunked_trials("subadd", seed, trials, draw):
        rec.trials += 1
        for q, s, params in points:
            if params is None:
                rec.skip()
                continue
            rec.compare(
                unified_quantum(rho_ab, params),
                unified_quantum(ra, params) + unified_quantum(rb, params),
                {"trial": i, "d_a": da, "d_b": db, "q": q, "s": s},
            )
    return rec.report()


def search_subadditivity_violation(
    region: str = "both",
    trials: int = 200,
    dims=((2, 2), (2, 3), (3, 3)),
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Hunt for E(rho_AB) > E(rho_A) + E(rho_B) where subadditivity fails.

    The regions are {q > 1, s < 0} ("high-q") and {0 < q < 1, s > 0}
    ("low-q").  Two analytic instances on I/2 (x) I/2 are evaluated
    before any sampling, so at least one violation is always present:
    (q=2, s=-1) violates by exactly 1 and (q=1/2, s=1) by 6 - 4 sqrt 2.
    Here ``failures`` counts violations found, and finding none is the
    failure mode.
    """
    if region == "high-q":
        default = VIOLATION_GRID_HIGH
    elif region == "low-q":
        default = VIOLATION_GRID_LOW
    elif region == "both":
        default = VIOLATION_GRID_HIGH + VIOLATION_GRID_LOW
    else:
        raise DomainError(f'region must be "high-q", "low-q" or "both", got {region!r}')
    grid = _as_grid(params_grid, default)
    rec = _Recorder("subadd-violation", seed, grid)
    points = _points(grid)

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

    def draw(i, rng):
        da, db = _pick(rng, dims)
        fa = _random_matrix(rng, da)
        fb = _random_matrix(rng, db)
        return (da, db), [fa, fb, np.kron(fa, fb)] + _bipartite_matrices(rng, da, db)

    chunked = _chunked_trials("subadd-violation", seed, trials, draw)
    for i, (da, db), (fa, fb, prod, corr, ca, cb) in chunked:
        rec.trials += 1
        for q, s, params in points:
            rec.compare(
                unified_quantum(prod, params),
                unified_quantum(fa, params) + unified_quantum(fb, params),
                {"trial": i, "kind": "product", "d_a": da, "d_b": db, "q": q, "s": s},
            )
            rec.compare(
                unified_quantum(corr, params),
                unified_quantum(ca, params) + unified_quantum(cb, params),
                {"trial": i, "kind": "correlated", "d_a": da, "d_b": db, "q": q, "s": s},
            )
    return rec.report()


def check_triangle(
    trials: int = 1000,
    dims=((2, 2), (2, 3), (3, 3)),
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Triangle inequality |E(rho_A) - E(rho_B)| <= E(rho_AB) for q > 1,
    s >= 1/q, via purification; also verifies that both reductions of the
    purified state carry the entropies they should."""
    grid = _as_grid(params_grid, SUBADD_GRID)
    rec = _Recorder("triangle", seed, grid)
    points = _points(grid, _subadditive)

    def draw(i, rng):
        da, db = _pick(rng, dims)
        return (da, db), _bipartite_matrices(rng, da, db)

    def derive(dims_ab, states):
        # the rank-1 purified state needs no DensityOperator (and no
        # eigensolve) of its own: only its two reductions are evaluated
        da, db = dims_ab
        n = da * db
        psi = purify(states[0])
        pure = np.outer(psi, psi.conj())
        return [
            partial_trace_matrix(pure, n, n, "B"),
            partial_trace_matrix(pure, da, db * n, "B"),
        ]

    chunked = _chunked_trials("triangle", seed, trials, draw, derive)
    for i, (da, db), (rho_ab, ra, rb, rho_c, rho_bc) in chunked:
        rec.trials += 1
        for q, s, params in points:
            if params is None:
                rec.skip()
                continue
            e_ab = unified_quantum(rho_ab, params)
            e_a = unified_quantum(ra, params)
            base = {"trial": i, "d_a": da, "d_b": db, "q": q, "s": s}
            rec.compare(
                abs(e_ab - unified_quantum(rho_c, params)),
                0.0,
                dict(base, kind="purified-complement"),
            )
            rec.compare(
                abs(e_a - unified_quantum(rho_bc, params)),
                0.0,
                dict(base, kind="purified-rest"),
            )
            rec.compare(
                abs(e_a - unified_quantum(rb, params)),
                e_ab,
                dict(base, kind="triangle"),
            )
    return rec.report()


def _pinching_draw(dims, every: int):
    """draw() of the pinching suites: a random state and its pinching by a
    random resolution, with rank-1 blocks on every ``every``-th trial."""

    def draw(i, rng):
        d = int(_pick(rng, dims))
        rho = _random_matrix(rng, d)
        ranks = (1,) * d if i % every == 0 else None
        resolution = random_resolution(d, rng, ranks=ranks)
        return (d, resolution), [rho, pinch_matrix(rho, resolution)]

    return draw


def check_pinching_traces(
    trials: int = 1000,
    dims=PINCHING_DIMS,
    q_grid=PINCHING_Q,
    seed: int = 0,
) -> CheckReport:
    """Pinching pushes tr(rho^q) up for q < 1 and down for q > 1."""
    rec = _Recorder("pinching", seed, [(q, 0.0) for q in q_grid])

    # every seventh trial pins the resolution to rank-1 blocks so the
    # fully projective case is always exercised
    draw = _pinching_draw(dims, 7)
    for i, (d, resolution), (rho, pinched) in _chunked_trials("pinching", seed, trials, draw):
        rec.trials += 1
        for q in q_grid:
            t_rho = trace_power(rho, q)
            t_pin = trace_power(pinched, q)
            info = {"trial": i, "d": d, "q": float(q), "blocks": resolution.size}
            if q < 1.0:
                rec.compare(t_rho, t_pin, dict(info, direction="raise"))
            else:
                rec.compare(t_pin, t_rho, dict(info, direction="lower"))
    return rec.report()


def check_projective_nondecrease(
    trials: int = 1000,
    dims=DEFAULT_DIMS,
    params_grid=None,
    seed: int = 0,
) -> CheckReport:
    """Pinching never lowers the unified entropy: E(rho) <= E(pinched)."""
    grid = _as_grid(params_grid, PROJECTIVE_GRID)
    rec = _Recorder("projective", seed, grid)
    points = _points(grid)
    draw = _pinching_draw(dims, 5)
    for i, (d, resolution), (rho, pinched) in _chunked_trials("projective", seed, trials, draw):
        rec.trials += 1
        for q, s, params in points:
            rec.compare(
                unified_quantum(rho, params),
                unified_quantum(pinched, params),
                {"trial": i, "d": d, "q": q, "s": s, "blocks": resolution.size},
            )
    return rec.report()


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
    rec = _Recorder("qubit-measure", 0, grid)
    after = apply_generalized(rho_diag, GeneralizedMeasurement(QUBIT_MEASUREMENT))
    rec.trials += 1
    for q, s in grid:
        params = UnifiedParams(q, s)
        rec.compare(
            unified_quantum(after, params),
            unified_quantum(rho_diag, params),
            {"q": q, "s": s},
            strict=True,
        )
    return rec.report()


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
        if not self.q > 0:
            raise InvalidIndex(f"entropic index q must be positive, got {self.q!r}")


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


def stability_example_states(
    ex: StabilityExample, max_dim: int = 4096
) -> tuple[DensityOperator, DensityOperator]:
    """Materialize the example pair as diagonal density operators.

    Only for moderate d (cross-checks against the closed form); large
    dimensions are refused rather than allocated.
    """
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
    pair_dims = None
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        pair_dims = tuple(
            (a, b) for a in dims for b in dims if a * b <= 16
        ) or DEFAULT_PAIR_DIMS
    if name == "ensemble":
        return check_ensemble_bound(
            trials, dims or (2, 3, 4, 5), params_grid=params_grid, seed=seed
        )
    if name == "mixing":
        return check_mixing_bound(trials, dims or DEFAULT_DIMS, params_grid, seed)
    if name == "scalar-lemma":
        return check_scalar_lemma(trials, seed)
    if name == "fannes":
        return check_fannes(trials, dims or DEFAULT_DIMS, params_grid, seed)
    if name == "audenaert":
        q_grid = AUDENAERT_Q if params_grid is None else [q for q, _ in params_grid]
        return check_audenaert(trials, pair_dims or DEFAULT_PAIR_DIMS, q_grid, seed)
    if name == "subadd":
        return check_subadditivity(trials, pair_dims or DEFAULT_PAIR_DIMS, params_grid, seed)
    if name == "subadd-violation":
        return search_subadditivity_violation(
            "both", trials, pair_dims or ((2, 2), (2, 3), (3, 3)), params_grid, seed
        )
    if name == "triangle":
        return check_triangle(
            trials, pair_dims or ((2, 2), (2, 3), (3, 3)), params_grid, seed
        )
    if name == "pinching":
        q_grid = PINCHING_Q if params_grid is None else [q for q, _ in params_grid]
        return check_pinching_traces(trials, dims or PINCHING_DIMS, q_grid, seed)
    if name == "projective":
        return check_projective_nondecrease(trials, dims or DEFAULT_DIMS, params_grid, seed)
    return qubit_measurement_decrease(diagonal_density((0.8, 0.2)), params_grid)


def report_ok(report: CheckReport) -> bool:
    """Pass criterion: at least one comparison and no failures, except
    the violation search which must find at least one."""
    if report.comparisons == 0:
        return False
    if report.check == "subadd-violation":
        return report.failures >= 1
    return report.failures == 0

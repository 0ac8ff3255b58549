"""Dense Hermitian operator core.

Validated state and operator types with their spectra and power sums,
composite-system operations (tensor, purification, and the partial
trace and pinching of plain matrices), generalized measurements, seeded
random sampling, and a small JSON matrix file format.

Composite indices are row-major throughout: a bipartite basis label
(i_A, i_B) maps to i_A * d_B + i_B, matching ``numpy.kron``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimMismatch,
    DomainError,
    EntropyKitError,
    IncompleteMeasurement,
    InvalidIndex,
    NonHermitian,
    NotPositive,
)
from .tolerances import TOL


def _integer(what: str, value) -> int:
    """``value`` as an int; a float only if it is whole, not truncated."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _dimension(d) -> int:
    """A system dimension as a positive int, under ``_integer``'s rule."""
    d = _integer("dimension", d)
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d!r}")
    return d


def _check_square(mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {mat.shape}")
    return mat


def _as_square_matrix(entries) -> np.ndarray:
    return _check_square(np.array(entries, dtype=np.complex128))


def _check_hermitian(mats: np.ndarray) -> None:
    """Raise unless every matrix of the (n, d, d) stack is finite and
    Hermitian to ``TOL.herm`` relative to its largest absolute entry.

    Per-matrix verdicts are read as Python floats: at small d a numpy
    comparison costs more than the reduction behind it.
    """
    scale = np.abs(mats).max(axis=(1, 2)).tolist()
    if not all(map(math.isfinite, scale)):
        raise DomainError("matrix entries must be finite")
    defect = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()
    for err, size in zip(defect, scale):
        if err > TOL.herm * size:
            raise NonHermitian(
                f"matrix deviates from Hermiticity by more than {TOL.herm:g} relative"
            )


def _check_hermitian_unit_trace(mats: np.ndarray) -> None:
    """The O(d^2) density checks of an (n, d, d) stack: finite, Hermitian
    (``_check_hermitian``) and of trace 1 within ``TOL.trace``."""
    _check_hermitian(mats)
    for tr in mats.trace(axis1=1, axis2=2).real.tolist():
        if abs(tr - 1.0) > TOL.trace:
            raise DomainError(f"trace is {tr!r}, expected 1 within {TOL.trace:g}")


def _density_spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (n, d, d) stack of density matrices with one ``eigh``.

    Returns the cleaned eigenvalues (n, d) and eigenvectors (n, d, d),
    both descending; see ``DensityOperator`` for the cleaning.  One call
    on a stack gives bit for bit the values of n calls on its matrices.
    """
    _check_hermitian_unit_trace(mats)
    vals, vecs = np.linalg.eigh(mats)
    low = min(vals[:, 0].tolist())
    if low < -TOL.psd:
        raise NotPositive(f"eigenvalue {low!r} below the -{TOL.psd:g} tolerance")
    # clip to [0, 1]; np.clip costs more per call at these sizes
    vals = np.maximum(vals[:, ::-1], 0.0)
    np.minimum(vals, 1.0, out=vals)
    vals[vals <= TOL.rank] = 0.0
    return _frozen(vals), _frozen(vecs[:, :, ::-1].copy())


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: most distinct q whose power sum one state keeps; later q are computed per call
POWER_SUM_MEMO_CAP = 64


class _SpectralMemo:
    """Power sums and the Shannon value of a frozen spectrum, memoized.

    Both are evaluated with the same expressions on a miss as on a fresh
    instance, so a memoized value is bit-equal to a direct evaluation.
    Each instance owns its memo; it holds at most ``POWER_SUM_MEMO_CAP``
    power sums and simply stops storing new q once full.
    """

    def _start_memo(self, values: np.ndarray) -> None:
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_power_sums", {})
        object.__setattr__(self, "_shannon", None)

    def power_sum(self, q: float) -> float:
        """sum_j x_j^q over the spectrum, q > 0 finite; 0^q = 0, so zeros never count."""
        sums = self._power_sums
        t = sums.get(q)
        if t is None:
            if not 0.0 < q < math.inf:
                raise InvalidIndex(f"power sum needs q positive and finite, got {q!r}")
            t = float(np.sum(self._values**q))
            if len(sums) < POWER_SUM_MEMO_CAP:
                sums[q] = t
        return t

    def shannon(self) -> float:
        """-sum_j x_j ln x_j over the spectrum, with 0 ln 0 = 0."""
        if self._shannon is None:
            nz = self._values[self._values > 0]
            object.__setattr__(self, "_shannon", float(-np.sum(nz * np.log(nz))) + 0.0)
        return self._shannon


def _power_sums(holders, qs) -> np.ndarray:
    """(len(holders), len(qs)) power sums at positive float q, bit for bit
    each holder's ``power_sum``: spectra of one length are stacked into a
    C-contiguous (n, d) array and raised to each distinct q as a Python
    float.  Zero padding, an array of exponents or a strided sum would
    change bits (numpy's pairwise blocking, the ``**`` fast paths).
    """
    distinct = list(dict.fromkeys(qs))
    table = np.empty((len(holders), len(distinct)))
    groups: dict[int, list[int]] = {}
    for i, holder in enumerate(holders):
        groups.setdefault(holder._values.size, []).append(i)
    for idx in groups.values():
        stack = np.stack([holders[i]._values for i in idx])
        for j, q in enumerate(distinct):
            table[idx, j] = (stack**q).sum(axis=1)
    col = {q: j for j, q in enumerate(distinct)}
    return table[:, [col[q] for q in qs]]


def _rng(seed) -> np.random.Generator:
    """Accept an int seed, a seed sequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A square complex matrix equal to its conjugate transpose.

    The Hermiticity defect is measured relative to the largest absolute
    entry and must not exceed ``TOL.herm``.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = _as_square_matrix(self.entries)
        _check_hermitian(mat[None])
        object.__setattr__(self, "entries", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator(_SpectralMemo):
    """Unit-trace positive semidefinite operator.

    Eigenvalues in [-TOL.psd, 0) are clipped to 0 (anything lower raises
    NotPositive) and values at or below TOL.rank are snapped to exact 0,
    so fractional powers cannot amplify the O(1e-16) spectral noise of
    rank-deficient states.  The cleaned spectrum is capped at 1, cached
    in descending order with its eigenvectors, and never renormalized.

    Power sums tr(rho^q) (``power_sum``) and the von Neumann value
    (``shannon``) are memoized per q on the instance.  The spectrum is
    immutable, so a memoized value never goes stale, and the memo is
    bounded: past ``POWER_SUM_MEMO_CAP`` distinct q, new values are
    computed on every call instead of stored.
    """

    op: HermitianOperator

    def __post_init__(self):
        op = self.op
        if not isinstance(op, HermitianOperator):
            op = _checked_hermitian(_frozen(_as_square_matrix(op)))
        vals, vecs = _density_spectra(op.entries[None])
        self._adopt(op, vals[0], vecs[0])

    def _adopt(self, op: HermitianOperator, vals: np.ndarray, vecs: np.ndarray) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "_eigenvectors", vecs)
        self._start_memo(vals)

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.entries

    @property
    def eigenvalues(self) -> np.ndarray:
        """Clipped eigenvalues, descending."""
        return self._values

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    @classmethod
    def from_matrix(cls, entries) -> "DensityOperator":
        return cls(entries)


def _checked_hermitian(mat: np.ndarray) -> HermitianOperator:
    """Wrap a frozen square matrix whose checks are run by the caller."""
    op = object.__new__(HermitianOperator)
    object.__setattr__(op, "entries", mat)
    return op


def density_operators(mats) -> list[DensityOperator]:
    """Validated states of square matrices, returned in input order.

    Matrices of one shape are stacked and validated with one ``eigh``,
    so each state is bit for bit ``DensityOperator.from_matrix`` of its
    matrix, and a bad matrix raises what building it alone raises.  A
    state holds read-only views into its stack's buffers, which live as
    long as any state of that stack does.
    """
    mats = [_check_square(np.asarray(m, dtype=np.complex128)) for m in mats]
    groups: dict[tuple, list[int]] = {}
    for i, mat in enumerate(mats):
        groups.setdefault(mat.shape, []).append(i)
    out = [None] * len(mats)
    for idx in groups.values():
        stack = _frozen(np.stack([mats[i] for i in idx]))
        vals, vecs = _density_spectra(stack)
        for j, i in enumerate(idx):
            state = object.__new__(DensityOperator)
            state._adopt(_checked_hermitian(stack[j]), vals[j], vecs[j])
            out[i] = state
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution(_SpectralMemo):
    """Nonnegative reals summing to 1 within ``TOL.trace``.

    Slightly-off or non-finite inputs are rejected rather than
    renormalized.  Power sums and the Shannon value are memoized as on
    ``DensityOperator``.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("expected a nonempty 1-d probability vector")
        if np.any(p < 0):
            raise DomainError("probabilities must be nonnegative")
        total = float(p.sum())
        # written so that a NaN or infinite entry (total nan or inf) fails too
        if not abs(total - 1.0) <= TOL.trace:
            raise DomainError(
                f"probabilities sum to {total!r}, expected 1 within {TOL.trace:g}"
            )
        object.__setattr__(self, "probs", _frozen(p))
        self._start_memo(self.probs)

    @property
    def size(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """Weights p_i with unit vectors |psi_i>; ``states`` holds the
    read-only rows of one (m, d) array.

    The average sum_i p_i |psi_i><psi_i| gets the Hermiticity and trace
    checks of a ``DensityOperator`` at construction, but no eigensolve:
    with every p_i >= 0 it is positive semidefinite up to rounding, which
    leaves its lowest eigenvalue near -m d 2^-53, far above -``TOL.psd``.
    ``average()`` builds the state, with the full check, on first use.
    """

    weights: ProbabilityDistribution
    states: tuple

    def __post_init__(self):
        if not isinstance(self.weights, ProbabilityDistribution):
            object.__setattr__(
                self, "weights", ProbabilityDistribution(self.weights)
            )
        try:
            v = _frozen(np.array(self.states, dtype=np.complex128))
        except ValueError:  # numpy refuses ragged members
            raise DimMismatch("ensemble state vectors must share one dimension") from None
        if len(v) != self.weights.size:
            raise DimMismatch("one state vector per weight required")
        if v.ndim != 2:
            raise DimMismatch("ensemble state vectors must share one dimension")
        # written so that a NaN entry (norm nan) fails too
        if not np.all(np.abs(np.einsum("ij,ij->i", v, v.conj()).real - 1.0) <= TOL.orthonormal):
            raise DomainError("ensemble state vectors must be normalized")
        object.__setattr__(self, "states", tuple(v))
        avg = _frozen((v.T * self.weights.probs) @ v.conj())
        _check_hermitian_unit_trace(avg[None])
        object.__setattr__(self, "_average_matrix", avg)
        object.__setattr__(self, "_average", None)

    @property
    def size(self) -> int:
        return self.weights.size

    def average(self) -> DensityOperator:
        """The average state, built on the first call and memoized."""
        if self._average is None:
            object.__setattr__(
                self, "_average", DensityOperator.from_matrix(self._average_matrix)
            )
        return self._average


@dataclass(frozen=True, eq=False)
class OrthogonalResolution:
    """Hermitian projectors N_j with N_j N_k = 0 for j != k and sum N_j = I."""

    projectors: tuple

    def __post_init__(self):
        projs = tuple(
            p if isinstance(p, HermitianOperator) else HermitianOperator(p)
            for p in self.projectors
        )
        if not projs:
            raise DomainError("resolution needs at least one projector")
        d = projs[0].dim
        for p in projs:
            if p.dim != d:
                raise DimMismatch("projectors must share one dimension")
            if np.abs(p.entries @ p.entries - p.entries).max() > TOL.orthonormal:
                raise DomainError("resolution element is not idempotent within tolerance")
        for j, p in enumerate(projs):
            for k in range(j + 1, len(projs)):
                if np.abs(p.entries @ projs[k].entries).max() > TOL.orthonormal:
                    raise DomainError("resolution elements are not mutually orthogonal")
        total = sum(p.entries for p in projs)
        if np.abs(total - np.eye(d)).max() > TOL.orthonormal:
            raise IncompleteMeasurement("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @property
    def size(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """Kraus operators M_j with sum M_j^dagger M_j = I within tolerance."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(_as_square_matrix(m) for m in self.operators)
        if not ops:
            raise DomainError("measurement needs at least one operator")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape[0] != d:
                raise DimMismatch("measurement operators must share one dimension")
        total = sum(m.conj().T @ m for m in ops)
        # written so that a NaN entry (defect nan) fails too
        if not np.abs(total - np.eye(d)).max() <= TOL.orthonormal:
            raise IncompleteMeasurement(
                "operators do not satisfy the completeness relation within tolerance"
            )
        object.__setattr__(self, "operators", tuple(_frozen(m) for m in ops))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _matrix_of(a) -> np.ndarray:
    if isinstance(a, DensityOperator):
        return a.mat
    if isinstance(a, HermitianOperator):
        return a.entries
    raise DomainError(f"expected a Hermitian or density operator, got {type(a).__name__}")


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of (a - b)."""
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions {a.dim} and {b.dim} differ")
    diff = np.linalg.eigvalsh(a.mat - b.mat)
    return float(0.5 * np.abs(diff).sum())


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product state on the composite system (row-major labels)."""
    return DensityOperator.from_matrix(np.kron(a.mat, b.mat))


def partial_trace(mat: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced matrix of factor "A" (``keep="A"``) or "B" of a
    (dim_a*dim_b)-square matrix; the other factor is traced out.

    Unvalidated beyond shapes: build a ``DensityOperator`` of the result
    where its spectrum is needed.
    """
    dim_a, dim_b = _integer("dimension", dim_a), _integer("dimension", dim_b)
    n = dim_a * dim_b
    if dim_a < 1 or dim_b < 1 or mat.shape != (n, n):
        raise DimMismatch(
            f"matrix of shape {mat.shape} does not match the bipartition {dim_a} x {dim_b}"
        )
    blocks = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abac->bc", blocks)
    raise DomainError(f'keep must be "A" or "B", got {keep!r}')


def purify(rho: DensityOperator) -> np.ndarray:
    """Unit vector |Psi> = sum_j sqrt(lambda_j) |phi_j> (x) |j> in C^(d*d).

    Tracing out the second (ancilla) factor reproduces rho.
    """
    roots = np.sqrt(rho.eigenvalues)
    return (rho.eigenvectors * roots).reshape(-1)


def pinch(mat: np.ndarray, resolution: OrthogonalResolution) -> np.ndarray:
    """Pinched matrix sum_j N_j mat N_j, unvalidated beyond shapes."""
    d = resolution.dim
    if mat.shape != (d, d):
        raise DimMismatch(f"matrix of shape {mat.shape} does not match resolution dimension {d}")
    out = np.zeros_like(mat)
    for proj in resolution.projectors:
        out += proj.entries @ mat @ proj.entries
    return out


def apply_generalized(rho: DensityOperator, meas: GeneralizedMeasurement) -> DensityOperator:
    """Non-selective update sum_j M_j rho M_j^dagger."""
    if rho.dim != meas.dim:
        raise DimMismatch(
            f"state dimension {rho.dim} does not match measurement {meas.dim}"
        )
    out = np.zeros_like(rho.mat)
    for m in meas.operators:
        out += m @ rho.mat @ m.conj().T
    return DensityOperator.from_matrix(out)


def diagonal_density(probs) -> DensityOperator:
    """Diagonal state with the given spectrum (validated as probabilities)."""
    p = ProbabilityDistribution(probs)
    return DensityOperator.from_matrix(np.diag(p.probs.astype(np.complex128)))


def maximally_mixed(d: int) -> DensityOperator:
    d = _dimension(d)
    return DensityOperator.from_matrix(np.eye(d) / d)


def random_density_matrix(d: int, rank: int, seed) -> np.ndarray:
    """Ginibre matrix G G^dagger / tr(G G^dagger) with G of shape (d, rank)."""
    d, rank = _dimension(d), _integer("rank", rank)
    if not 1 <= rank <= d:
        raise InvalidIndex(f"rank {rank!r} outside [1, {d}]")
    rng = _rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    a = g @ g.conj().T
    return a / a.trace().real


def random_density(d: int, rank: int, seed) -> DensityOperator:
    """Ginibre state G G^dagger / tr(G G^dagger) with G of shape (d, rank)."""
    return DensityOperator.from_matrix(random_density_matrix(d, rank, seed))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-normalized R diagonal."""
    d = _dimension(d)
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    dia = r.diagonal()
    return q * (dia / np.abs(dia))


def ensemble_from_state(rho: DensityOperator, m: int, seed) -> PureStateEnsemble:
    """Random pure-state ensemble of size m averaging to rho.

    Unnormalized members sqrt(p_i)|psi_i> = sum_j u_ij sqrt(lambda_j)|phi_j>
    are built from the first r = rank(rho) columns u of the Haar unitary
    ``random_unitary(m, seed)``, so p_i = sum_j |u_ij|^2 lambda_j.
    Members with weight below ``TOL.ensemble_weight`` are discarded.
    """
    m = _integer("ensemble size", m)
    lam = rho.eigenvalues
    r = int(np.sum(lam > TOL.rank))
    if m < r:
        raise InvalidIndex(f"ensemble size {m} below the state rank {r}")
    u = random_unitary(m, seed)[:, :r]
    roots = np.sqrt(lam[:r])
    raw = (u * roots) @ rho.eigenvectors[:, :r].T
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    kept = weights >= TOL.ensemble_weight
    weights = weights[kept]
    states = raw[kept] / np.sqrt(weights)[:, None]
    ens = PureStateEnsemble(ProbabilityDistribution(weights), states)
    if np.abs(ens._average_matrix - rho.mat).max() > TOL.reconstruction:
        raise EntropyKitError("ensemble average failed to reproduce the state")
    return ens


def random_resolution(d: int, seed, ranks=None) -> OrthogonalResolution:
    """Random orthogonal resolution from Haar-unitary column blocks.

    Block ranks default to a uniformly drawn composition of d with at
    least two parts, so rank-1 and higher-rank blocks both occur.

    The unitary U is checked once instead of the constructor's O(k^2)
    projector products: |U^H U - I|_max <= TOL.orthonormal / (2d) bounds
    the idempotence, mutual orthogonality and completeness defects of the
    block projectors U_j U_j^H by TOL.orthonormal (each is a product of
    near-unit rows of U with a block of U^H U - I, summed over at most d
    terms).  Their Hermiticity is checked on their stack.
    """
    d = _dimension(d)
    rng = _rng(seed)
    if ranks is None:
        if d < 2:
            raise DomainError("random block ranks need dimension >= 2")
        # bits of an integer in [1, 2^(d-1)) mark the cut positions
        cuts = int(rng.integers(1, 2 ** (d - 1)))
        ranks = []
        size = 1
        for pos in range(d - 1):
            if cuts >> pos & 1:
                ranks.append(size)
                size = 1
            else:
                size += 1
        ranks.append(size)
    ranks = [_integer("block rank", r) for r in ranks]
    if sum(ranks) != d or any(r < 1 for r in ranks):
        raise DomainError(f"block ranks {ranks} do not partition dimension {d}")
    u = random_unitary(d, rng)
    # written so that a NaN entry (defect nan) fails too
    if not np.abs(u.conj().T @ u - np.eye(d)).max() <= TOL.orthonormal / (2 * d):
        raise DomainError("sampled unitary is not unitary within tolerance")
    projs = []
    start = 0
    for r in ranks:
        block = u[:, start : start + r]
        projs.append(block @ block.conj().T)
        start += r
    stack = _frozen(np.stack(projs))
    _check_hermitian(stack)
    resolution = object.__new__(OrthogonalResolution)
    object.__setattr__(resolution, "projectors", tuple(map(_checked_hermitian, stack)))
    return resolution


def write_matrix(path, a) -> None:
    """Write a Hermitian or density operator as JSON {"d", "re", "im"}."""
    mat = _matrix_of(a)
    record = {"d": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}
    Path(path).write_text(json.dumps(record))


def read_matrix(path) -> HermitianOperator:
    """Read a JSON matrix file; shape and Hermiticity are validated on load."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read matrix file {str(path)!r}: {exc}") from None
    try:
        data = json.loads(text)
        d = int(data["d"])
        re = np.array(data["re"], dtype=np.float64)
        im = np.array(data["im"], dtype=np.float64)
    except json.JSONDecodeError as exc:
        raise DomainError(f"matrix file is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed matrix record: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise DimMismatch(f"matrix entries do not have shape ({d}, {d})")
    return HermitianOperator(re + 1j * im)


def read_density(path) -> DensityOperator:
    return DensityOperator(read_matrix(path))

"""Dense Hermitian operator core.

Validated state and operator types with their spectra and power sums,
composite-system operations (tensor, purification, and the partial
trace and pinching of plain matrices), generalized measurements, seeded
random sampling, and a small JSON matrix file format.

Composite indices are row-major throughout: a bipartite basis label
(i_A, i_B) maps to i_A * d_B + i_B, matching ``numpy.kron``.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
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


def _shown(value) -> str:
    """``repr(value)``, or a stand-in where Python refuses to print an int that long."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _integer(what: str, value) -> int:
    """``value`` as an int; a float only if it is whole, not truncated, and
    never a bool."""
    if type(value) is int:
        return value
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        return int(value)
    raise DomainError(f"{what} must be an integer, got {_shown(value)}")


def _real(x):
    """``x`` if it is a real number, else NaN, which every rule's comparison refuses."""
    return x if isinstance(x, numbers.Real) else math.nan


def _float_value(x):
    """An index as the index rule compares it: a real number as its float
    value, inf where it has none (an int past the float range), else NaN."""
    if type(x) is float:
        return x
    try:
        return float(_real(x))
    except OverflowError:
        return math.inf


_EXACT_INT = 2**53  # every int up to here has an exact float value: no float round trip


def _dimension(d, least: int = 1) -> int:
    """A system dimension as an int of at least ``least``, under ``_integer``'s
    rule and with an exact float value, as bounds evaluate d in floating point."""
    if type(d) is int and least <= d <= _EXACT_INT:
        return d
    d = _integer("dimension", d)
    try:
        exact = float(d) == d
    except OverflowError:
        exact = False
    if not exact:
        raise DomainError(f"dimension must be an integer with an exact float value, got {_shown(d)}")
    if d < least:
        raise DomainError(f"dimension must be at least {least}, got {_shown(d)}")
    return d


#: largest dimension of a matrix that linops builds from a size, not from
#: given entries: a complex 4096 x 4096 matrix takes 256 MiB
MAX_MATRIX_DIM = 4096


def _matrix_dimension(d) -> int:
    """``_dimension`` of a matrix to be built, at most ``MAX_MATRIX_DIM``."""
    d = _dimension(d)
    if d > MAX_MATRIX_DIM:
        raise DomainError(f"matrix dimension must be at most {MAX_MATRIX_DIM}, got {_shown(d)}")
    return d


def _array(entries, dtype=np.complex128, copy=True) -> np.ndarray:
    """``np.array`` (``np.asarray`` if not ``copy``) of outside entries, refusing
    ragged rows, non-numbers and ints past the float range with a DomainError."""
    try:
        return (np.array if copy else np.asarray)(entries, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"entries must form an array of numbers: {exc}") from None


def _as_square_matrix(entries, copy=True) -> np.ndarray:
    mat = _array(entries, copy=copy)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {mat.shape}")
    return mat


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
        try:
            t = sums.get(q)
        except TypeError:  # an unhashable q, which the index rule refuses
            t = None
        if t is None:
            # the index rule of ``entropies._check_q``, with its own message
            if not 0.0 < _float_value(q) < math.inf:
                raise InvalidIndex(f"power sum needs q positive and finite, got {_shown(q)}")
            # the np.add.reduce that np.sum runs, without its dispatch wrapper
            t = float((self._values**q).sum())
            if len(sums) < POWER_SUM_MEMO_CAP:
                sums[q] = t
        return t

    def shannon(self) -> float:
        """-sum_j x_j ln x_j over the spectrum, with 0 ln 0 = 0."""
        if self._shannon is None:
            nz = self._values[self._values > 0]
            object.__setattr__(self, "_shannon", float(-np.sum(nz * np.log(nz))) + 0.0)
        return self._shannon


def _groups(keys) -> list[list[int]]:
    """The indices of equal keys, one list per key in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _grouped(items: list, key, build) -> list:
    """``build(group)`` of each group of ``items`` with one ``key(item)``,
    giving one result per item of the group; returned in input order."""
    if len(items) == 1:
        return build(items)
    out = [None] * len(items)
    for idx in _groups(map(key, items)):
        for i, made in zip(idx, build([items[i] for i in idx])):
            out[i] = made
    return out


_shape = operator.attrgetter("shape")


def _stack(arrays: list) -> np.ndarray:
    """One (n, ...) array of same-shaped arrays: a view of a lone array,
    else a copy by ``np.array``, which copies as ``np.stack`` does at a
    fraction of its call cost.  Stored stacks copy with ``np.array``."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


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


def _items(what: str, items) -> list:
    """``list(items)``, or a DomainError if ``items`` is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {_shown(items)}") from None


def _stack_rows(arrays: list, build=lambda stack: (stack,)) -> list[tuple]:
    """(stack, j) of each array, in input order: the arrays of each shape,
    in first-seen order, are copied into one C-contiguous array by
    ``np.array``, ``build`` of it gives the tuple ``stack``, and the array
    is its row j.  By default ``stack`` is that array alone."""

    def rows(group: list) -> list[tuple]:
        stack = build(np.array(group))
        return [(stack, j) for j in range(len(group))]

    return _grouped(arrays, _shape, rows)


def _density_stacks(mats) -> list[tuple]:
    """The states of square matrices as rows (stack, j) of ``_stack_rows``,
    in input order.  ``stack`` is (cleaned eigenvalues, matrices,
    eigenvectors) of all matrices of one shape, validated with one ``eigh``
    (``_density_spectra``), so a bad matrix raises what building it alone
    raises.  ``_density_at`` makes a row's ``DensityOperator``; the
    eigenvalue stacks are what ``entropies._entropy_table`` reads."""
    mats = [_as_square_matrix(m, copy=False) for m in _items("matrices", mats)]
    return _stack_rows(mats, _density_stack)


def _density_stack(mats: np.ndarray) -> tuple:
    vals, vecs = _density_spectra(_frozen(mats))
    return vals, mats, vecs


def _density_at(row: tuple) -> DensityOperator:
    """The state of a ``_density_stacks`` row, bit for bit
    ``DensityOperator.from_matrix`` of its matrix.  It holds read-only
    views into its stack's buffers, which live as long as it does."""
    (vals, mats, vecs), j = row
    state = object.__new__(DensityOperator)
    state._adopt(_checked_hermitian(mats[j]), vals[j], vecs[j])
    return state


def density_operators(mats) -> list[DensityOperator]:
    """Validated states of square matrices, returned in input order: the
    ``DensityOperator`` of each ``_density_stacks`` row, so matrices of one
    shape are validated with one ``eigh``."""
    return list(map(_density_at, _density_stacks(mats)))


def _spectrum(values: np.ndarray) -> _SpectralMemo:
    """An unchecked holder of a cleaned, frozen spectrum, such as a row of
    a value stack."""
    holder = _SpectralMemo()
    holder._start_memo(values)
    return holder


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution(_SpectralMemo):
    """Nonnegative reals summing to 1 within ``TOL.trace``.

    Slightly-off or non-finite inputs are rejected rather than
    renormalized.  Power sums and the Shannon value are memoized as on
    ``DensityOperator``.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _array(self.probs, np.float64)
        if p.ndim != 1:
            raise DomainError("expected a nonempty 1-d probability vector")
        _check_probabilities(p[None])
        self._adopt(_frozen(p))

    def _adopt(self, p: np.ndarray) -> None:
        object.__setattr__(self, "probs", p)
        self._start_memo(p)

    @property
    def size(self) -> int:
        return self.probs.size


def _check_probabilities(p: np.ndarray) -> None:
    """Raise unless every row of the (n, m) stack, m >= 1, is nonnegative
    and sums to 1 within ``TOL.trace``."""
    if p.shape[1] == 0:
        raise DomainError("expected a nonempty 1-d probability vector")
    if np.any(p < 0):
        raise DomainError("probabilities must be nonnegative")
    for total in p.sum(axis=1).tolist():
        # written so that a NaN or infinite entry (total nan or inf) fails too
        if not abs(total - 1.0) <= TOL.trace:
            raise DomainError(
                f"probabilities sum to {total!r}, expected 1 within {TOL.trace:g}"
            )


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
        weights = self.weights
        if not isinstance(weights, ProbabilityDistribution):
            weights = ProbabilityDistribution(weights)
        try:
            v = _frozen(_array(self.states))
        except DomainError:
            try:  # numpy refuses ragged members for their shape, whatever their entries
                np.array(self.states)
            except ValueError:
                raise DimMismatch("ensemble state vectors must share one dimension") from None
            raise
        if v.ndim == 0 or len(v) != weights.size:
            raise DimMismatch("one state vector per weight required")
        if v.ndim != 2:
            raise DimMismatch("ensemble state vectors must share one dimension")
        self._adopt(weights, v, _member_averages(weights.probs[None], v[None])[0])

    def _adopt(self, weights: ProbabilityDistribution, v: np.ndarray, avg: np.ndarray) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", tuple(v))
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


def _member_averages(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The read-only averages sum_i p_i |psi_i><psi_i| of (n, m) weights
    and (n, m, d) members, after the member norm and the average's
    Hermiticity and trace checks."""
    # written so that a NaN entry (norm nan) fails too
    if not np.all(np.abs(np.einsum("kij,kij->ki", v, v.conj()).real - 1.0) <= TOL.orthonormal):
        raise DomainError("ensemble state vectors must be normalized")
    avg = _frozen((v.swapaxes(1, 2) * p[:, None, :]) @ v.conj())
    _check_hermitian_unit_trace(avg)
    return avg


def _ensemble_stack(items: list) -> list[PureStateEnsemble]:
    """The ensembles of (weights, members, state matrix) items with members
    of one shape: bit for bit ``PureStateEnsemble(weights, members)``,
    whose average must reproduce the state matrix."""
    p = _frozen(np.array([w for w, _, _ in items]))
    v = _frozen(np.array([m for _, m, _ in items]))
    _check_probabilities(p)
    avg = _member_averages(p, v)
    target = _stack([mat for _, _, mat in items])
    if (np.abs(avg - target).max(axis=(1, 2)) > TOL.reconstruction).any():
        raise EntropyKitError("ensemble average failed to reproduce the state")
    out = []
    for j in range(len(items)):
        weights = object.__new__(ProbabilityDistribution)
        weights._adopt(p[j])
        ens = object.__new__(PureStateEnsemble)
        ens._adopt(weights, v[j], avg[j])
        out.append(ens)
    return out


@dataclass(frozen=True, eq=False)
class OrthogonalResolution:
    """Hermitian projectors N_j with N_j N_k = 0 for j != k and sum N_j = I."""

    projectors: tuple

    def __post_init__(self):
        projs = tuple(
            p if isinstance(p, HermitianOperator) else HermitianOperator(p)
            for p in _items("projectors", self.projectors)
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
        ops = tuple(_as_square_matrix(m) for m in _items("measurement operators", self.operators))
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


def _check_array(mat) -> None:
    if not isinstance(mat, np.ndarray):
        raise DomainError(f"expected a numpy array, got {type(mat).__name__}")


def _expect(value, cls) -> None:
    """Raise a DomainError unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"expected {cls.__name__}, got {type(value).__name__}")


# Each composite operation has one stacked core over (n, ...) stacks of
# matrices (``_trace_distances``, ``_tensors``, ``_partial_traces``,
# ``_purifications``, ``_pinches``), bit for bit its per-matrix formula on
# every item; each public function checks its arguments and is a one-item
# call of its core.


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norms of the (n, d, d) differences a - b, capped at 1,
    which the rounded eigenvalues of two orthogonal states can exceed."""
    vals = np.linalg.eigvalsh(a - b)
    return np.minimum(0.5 * np.abs(vals).sum(axis=1), 1.0)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of (a - b), at most 1."""
    if not (isinstance(a, DensityOperator) and isinstance(b, DensityOperator)):
        raise DomainError(
            f"expected two density operators, got {type(a).__name__} and {type(b).__name__}"
        )
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions {a.dim} and {b.dim} differ")
    return float(_trace_distances(a.mat[None], b.mat[None])[0])


def _tensors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker products of (n, d_a, d_a) and (n, d_b, d_b) stacks,
    each formed as ``np.kron`` forms it."""
    n, da, db = len(a), a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, da * db, da * db)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product state on the composite system (row-major labels)."""
    _expect(a, DensityOperator)
    _expect(b, DensityOperator)
    _matrix_dimension(a.dim * b.dim)
    return DensityOperator.from_matrix(_tensors(a.mat[None], b.mat[None])[0])


def _partial_traces(mats: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """The reductions to factor ``keep`` of an (n, dim_a*dim_b, dim_a*dim_b) stack."""
    blocks = mats.reshape(len(mats), dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("nabcb->nac", blocks)
    if keep == "B":
        return np.einsum("nabac->nbc", blocks)
    raise DomainError(f'keep must be "A" or "B", got {_shown(keep)}')


def partial_trace(mat: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced matrix of factor "A" (``keep="A"``) or "B" of a
    (dim_a*dim_b)-square matrix; the other factor is traced out.

    Unvalidated beyond shapes: build a ``DensityOperator`` of the result
    where its spectrum is needed.
    """
    _check_array(mat)
    dim_a, dim_b = _integer("dimension", dim_a), _integer("dimension", dim_b)
    n = dim_a * dim_b
    if dim_a < 1 or dim_b < 1 or mat.shape != (n, n):
        raise DimMismatch(
            f"matrix of shape {mat.shape} does not match the bipartition"
            f" {_shown(dim_a)} x {_shown(dim_b)}"
        )
    return _partial_traces(mat[None], dim_a, dim_b, keep)[0]


def _purifications(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The (n, d*d) purifications of the states of (n, d) cleaned
    eigenvalues and (n, d, d) eigenvectors."""
    return (vecs * np.sqrt(vals)[:, None, :]).reshape(len(vals), -1)


def purify(rho: DensityOperator) -> np.ndarray:
    """Unit vector |Psi> = sum_j sqrt(lambda_j) |phi_j> (x) |j> in C^(d*d).

    Tracing out the second (ancilla) factor reproduces rho.
    """
    _expect(rho, DensityOperator)
    return _purifications(rho.eigenvalues[None], rho.eigenvectors[None])[0]


def _pinches(mats: np.ndarray, projectors) -> np.ndarray:
    """sum_j P_j rho P_j of each complex (n, d, d) stack item, for an
    iterable of (n, d, d) stacks P_j, which may make each stack on demand."""
    out = np.zeros_like(mats)
    for proj in projectors:
        out += proj @ mats @ proj
    return out


def pinch(mat: np.ndarray, resolution: OrthogonalResolution) -> np.ndarray:
    """Pinched matrix sum_j N_j mat N_j, complex, unvalidated beyond shapes."""
    _check_array(mat)
    _expect(resolution, OrthogonalResolution)
    d = resolution.dim
    if mat.shape != (d, d):
        raise DimMismatch(f"matrix of shape {mat.shape} does not match resolution dimension {d}")
    projectors = [proj.entries[None] for proj in resolution.projectors]
    return _pinches(_array(mat, copy=False)[None], projectors)[0]


def apply_generalized(rho: DensityOperator, meas: GeneralizedMeasurement) -> DensityOperator:
    """Non-selective update sum_j M_j rho M_j^dagger."""
    _expect(rho, DensityOperator)
    _expect(meas, GeneralizedMeasurement)
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
    _matrix_dimension(p.probs.size)
    return DensityOperator.from_matrix(np.diag(p.probs.astype(np.complex128)))


def maximally_mixed(d: int) -> DensityOperator:
    d = _matrix_dimension(d)
    return DensityOperator.from_matrix(np.eye(d) / d)


# Sampling runs in two steps.  A draw (``_ginibre_draw``, ``_haar_draw``,
# ``_resolution_draw``, ``_ensemble_draw``) checks its arguments and takes
# every number from the generator, in the order the one-item sampler takes
# them; a builder (``_density_matrices``, ``_unitaries``, ``_resolutions``,
# ``_ensembles``) turns a list of draws into matrices with one stacked call
# per shape, each bit for bit what the item gives alone.  Each public
# sampler is one draw and a build of one item.  A complex Gaussian matrix
# is drawn as its real and imaginary parts in one (2, rows, cols) call, the
# stream of two ``standard_normal((rows, cols))`` calls.  ``_ensembles``
# factors the first w columns of an m x m Gaussian, which with numpy 2.4.6
# (OpenBLAS 0.3.31) gives the full QR's first w bit for bit for m <= 96 and
# within rounding past it.  The ``ensemble`` suite's m > 8 all have w = m.


def _complex(draws: list) -> np.ndarray:
    """The (n, rows, cols) complex stack of same-shaped Gaussian draws."""
    x = _stack(draws)
    return x[:, 0] + 1j * x[:, 1]


def _ginibre_draw(d: int, rank: int, seed) -> np.ndarray:
    """The Gaussian G of ``random_density_matrix(d, rank, seed)``."""
    d, rank = _matrix_dimension(d), _integer("rank", rank)
    if not 1 <= rank <= d:
        raise InvalidIndex(f"rank {_shown(rank)} outside [1, {d}]")
    return _rng(seed).standard_normal((2, d, rank))


def _ginibre_stack(draws: list) -> np.ndarray:
    g = _complex(draws)
    a = g @ g.conj().swapaxes(1, 2)
    return a / a.trace(axis1=1, axis2=2).real[:, None, None]


def _density_matrices(draws: list) -> list:
    """G G^dagger / tr(G G^dagger) of each ``_ginibre_draw``."""
    return _grouped(draws, _shape, _ginibre_stack)


def random_density_matrix(d: int, rank: int, seed) -> np.ndarray:
    """Ginibre matrix G G^dagger / tr(G G^dagger) with G of shape (d, rank)."""
    return _density_matrices([_ginibre_draw(d, rank, seed)])[0]


def random_density(d: int, rank: int, seed) -> DensityOperator:
    """Ginibre state G G^dagger / tr(G G^dagger) with G of shape (d, rank)."""
    return DensityOperator.from_matrix(random_density_matrix(d, rank, seed))


def _haar_draw(d: int, seed) -> np.ndarray:
    """The Gaussian of ``random_unitary(d, seed)``."""
    d = _matrix_dimension(d)
    return _rng(seed).standard_normal((2, d, d))


def _haar_stack(draws: list) -> np.ndarray:
    q, r = np.linalg.qr(_complex(draws))
    dia = r.diagonal(axis1=1, axis2=2)
    return q * (dia / np.abs(dia))[:, None, :]


def _unitaries(draws: list) -> list:
    """The Haar unitary of each ``_haar_draw``: its QR factor Q with each
    column's phase fixed by R's diagonal (Mezzadri 2007); of a draw sliced
    to w columns, the unitary's first w (bit for bit as said above)."""
    return _grouped(draws, _shape, _haar_stack)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-normalized R diagonal."""
    return _unitaries([_haar_draw(d, seed)])[0]


def _ensemble_draw(rho: DensityOperator, m: int, seed) -> tuple:
    """(rank of rho, Haar draw) of ``ensemble_from_state(rho, m, seed)``."""
    m = _integer("ensemble size", m)
    r = int(np.sum(rho.eigenvalues > TOL.rank))
    if m < r:
        raise InvalidIndex(f"ensemble size {m} below the state rank {r}")
    return r, _haar_draw(m, seed)


def _member_stack(items: list) -> list:
    """(weights, members, state matrix) of same-shaped (rho, rank, unitary)
    items."""
    r = items[0][1]
    u = _stack([u[:, :r] for _, _, u in items])
    roots = np.sqrt(_stack([rho.eigenvalues[:r] for rho, _, _ in items]))
    vecs = _stack([rho.eigenvectors[:, :r] for rho, _, _ in items])
    raw = (u * roots[:, None, :]) @ vecs.swapaxes(1, 2)
    weights = np.einsum("kij,kij->ki", raw, raw.conj()).real
    kept = weights >= TOL.ensemble_weight
    # the floor keeps a dropped zero-weight row from dividing by 0; kept rows are unchanged
    members = raw / np.sqrt(np.maximum(weights, TOL.ensemble_weight))[:, :, None]
    return [
        (w, v, rho.mat) if k.all() else (w[k], v[k], rho.mat)
        for w, v, k, (rho, _, _) in zip(weights, members, kept, items)
    ]


def _ensembles(rhos: list, draws: list) -> list[PureStateEnsemble]:
    """The ensemble of each state and ``_ensemble_draw``: members, their
    validation and the check that they reproduce the state, stacked by shape;
    each m's one QR stack is factored on the widest rank w drawn at that m."""
    widths = {g.shape[1]: r for r, g in sorted(draws, key=operator.itemgetter(0))}
    us = _unitaries([g[:, :, : widths[g.shape[1]]] for _, g in draws])
    items = [(rho, r, u) for rho, (r, _), u in zip(rhos, draws, us)]
    members = _grouped(items, lambda it: (it[2].shape, it[1], it[0].dim), _member_stack)
    return _grouped(members, lambda it: it[1].shape, _ensemble_stack)


def ensemble_from_state(rho: DensityOperator, m: int, seed) -> PureStateEnsemble:
    """Random pure-state ensemble of size m averaging to rho.

    Unnormalized members sqrt(p_i)|psi_i> = sum_j u_ij sqrt(lambda_j)|phi_j>
    are built from the first r = rank(rho) columns u of the Haar unitary
    ``random_unitary(m, seed)``, so p_i = sum_j |u_ij|^2 lambda_j.
    Members with weight below ``TOL.ensemble_weight`` are discarded.
    Only those r columns are factored: bit for bit the full unitary's for
    m <= 96, within rounding (2.3e-16 seen) past it.
    """
    _expect(rho, DensityOperator)
    return _ensembles([rho], [_ensemble_draw(rho, m, seed)])[0]


#: largest dimension whose block ranks ``random_resolution`` draws: the
#: cut positions are the bits of one int64 draw below 2^(d-1)
MAX_RANK_DRAW_DIM = 64


def _resolution_draw(d: int, seed, ranks=None) -> tuple:
    """(block ranks, Haar draw) of ``random_resolution(d, seed, ranks)``."""
    d = _dimension(d)
    rng = _rng(seed)
    if ranks is None:
        if not 2 <= d <= MAX_RANK_DRAW_DIM:
            raise DomainError(f"random block ranks need a dimension in [2, {MAX_RANK_DRAW_DIM}], got {d!r}")
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
        raise DomainError(f"block ranks {_shown(ranks)} do not partition dimension {d}")
    return ranks, _haar_draw(d, rng)


def _projector_stack(blocks: list) -> list[HermitianOperator]:
    b = _stack(blocks)
    projs = _frozen(b @ b.conj().swapaxes(1, 2))
    _check_hermitian(projs)
    return list(map(_checked_hermitian, projs))


def _resolutions(draws: list) -> list[OrthogonalResolution]:
    """The resolution of each ``_resolution_draw``: one stacked unitarity
    check per dimension and one stacked product U_j U_j^H per block shape."""
    us = _unitaries([g for _, g in draws])
    for idx in _groups(len(u) for u in us):
        u = _stack([us[i] for i in idx])
        d = u.shape[1]
        defect = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(d)).max(axis=(1, 2))
        # written so that a NaN entry (defect nan) fails too
        if not (defect <= TOL.orthonormal / (2 * d)).all():
            raise DomainError("sampled unitary is not unitary within tolerance")
    blocks = [
        u[:, end - r : end]
        for (ranks, _), u in zip(draws, us)
        for r, end in zip(ranks, itertools.accumulate(ranks))
    ]
    projs = iter(_grouped(blocks, _shape, _projector_stack))
    out = []
    for ranks, _ in draws:
        resolution = object.__new__(OrthogonalResolution)
        object.__setattr__(resolution, "projectors", tuple(itertools.islice(projs, len(ranks))))
        out.append(resolution)
    return out


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
    return _resolutions([_resolution_draw(d, seed, ranks)])[0]


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
        d = _integer("dimension", data["d"])
        re = np.array(data["re"], dtype=np.float64)
        im = np.array(data["im"], dtype=np.float64)
    except json.JSONDecodeError as exc:
        raise DomainError(f"matrix file is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
        raise DomainError(f"malformed matrix record: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise DimMismatch(f"matrix entries do not have shape ({d}, {d})")
    return HermitianOperator(re + 1j * im)


def read_density(path) -> DensityOperator:
    return DensityOperator(read_matrix(path))

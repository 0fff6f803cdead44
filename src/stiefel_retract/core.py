"""Validated dense-matrix types and the elementary kernels every other module
consumes.

Matrices are float64 numpy arrays. Maps and frames are column-major, as the
column sweep reads them; triangles are row-major (``UpperTriangularPositive``
and ``gram_schmidt._sweep``'s R, whose back substitution's bits depend on it),
and so is the blocked sweep's working copy. All types are immutable after
validation: the wrapped arrays are marked read-only, so instances are safe to
share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    MatrixFormatError,
    NonFiniteError,
    NotOrthonormalError,
    RankDeficientError,
)

DEFAULT_TOL_RANK = 1e-10
DEFAULT_TOL_ORTHO = 1e-10

#: Condition-estimate bound up to which the orthonormality and reconstruction
#: tolerances are guaranteed; beyond it results carry diagnostics instead.
GUARANTEE_CONDITION = 1e6

#: Most float entries one numpy array can hold (its byte size must fit an
#: ``intp``). Counts that would build a larger array raise before any is built.
MAX_ENTRIES = np.iinfo(np.intp).max // 8


def as_real_array(raw, order: str = "K") -> np.ndarray:
    """A new float array of ``raw``'s booleans, integers or floats, the one
    reading of array input. Raises ``MatrixFormatError`` for complex (which a
    cast would cut to its real part), ragged, text or object input."""
    try:
        a = np.array(raw, order=order)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"entries must be real numbers: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise MatrixFormatError(f"entries must be real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def as_integer(value, name: str) -> int:
    """``value`` as an int, for counts and seeds; ``DomainError`` for any non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def as_real_scalar(value, name: str) -> float:
    """``value`` as a float, read as :func:`as_real_array` reads arrays, so
    text raises ``MatrixFormatError``; ``DomainError`` for anything but a
    single number."""
    a = as_real_array(value)
    if a.ndim != 0:
        raise DomainError(f"{name} must be a single number, got {value!r}")
    return float(a)


def as_matrix(raw) -> np.ndarray:
    """Coerce ``raw`` to a read-only column-major float matrix.

    Raises ``MatrixFormatError`` for input :func:`as_real_array` rejects,
    ``DimensionError`` for non-2d input or empty axes and ``NonFiniteError``
    if any entry is NaN or infinite.
    """
    a = as_real_array(raw, order="F")
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got {a.ndim} dimensions")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix axes must be positive, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains NaN or infinite entries")
    a.setflags(write=False)
    return a


def max_abs(a: np.ndarray) -> float:
    """Largest entry in absolute value (0 for an empty array)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def orthonormality_defect(a: np.ndarray):
    """Max-abs deviation of ``a.T @ a`` from the identity: a float for one
    matrix, and for a stack ``(n, m, d)`` the array of the n defects.

    Both come from one batched product. Entries past about 1e154 overflow
    the Gram product, and the defect is then ``inf``, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.swapaxes(-1, -2) @ a
    d = a.shape[-1]
    gram = gram.reshape(-1, d * d)
    gram[:, :: d + 1] -= 1.0
    defect = np.abs(gram).max(axis=1, initial=0.0)
    # Overflowing products of both signs sum to NaN, which no ``<=`` gate
    # would catch; it means the same as an overflow.
    defect[np.isnan(defect)] = math.inf
    return float(defect[0]) if a.ndim == 2 else defect


@dataclass(frozen=True)
class InjectiveMap:
    """An m x d matrix with linearly independent columns.

    ``condition_estimate`` is the ratio of the largest to the smallest
    column-space singular value; it is diagnostic only.
    """

    matrix: np.ndarray
    condition_estimate: float

    @classmethod
    def lazy(cls, matrix: np.ndarray, estimate) -> "InjectiveMap":
        """A map whose ``condition_estimate`` is ``estimate()``, kept from its first read."""
        point = object.__new__(cls)
        point.__dict__.update(matrix=matrix, _estimate=estimate)
        return point

    def __getattr__(self, name):
        # Reached for a lazy map's estimate until its first read.
        if name != "condition_estimate" or "_estimate" not in self.__dict__:
            raise AttributeError(name)
        self.__dict__[name] = value = self._estimate()
        return value

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass(frozen=True)
class StiefelFrame:
    """An m x d matrix with orthonormal columns (a Stiefel-manifold point)."""

    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass(frozen=True)
class Rotation:
    """An m x m special-orthogonal matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=None)
def _strict_lower(dim: int) -> np.ndarray:
    """Read-only mask of the strict lower triangle of a dim x dim matrix."""
    mask = np.tri(dim, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class UpperTriangularPositive:
    """A d x d upper-triangular matrix with strictly positive diagonal.

    ``matrix`` is the read-only, row-major dense triangle, checked on
    construction: ``DomainError`` for a nonzero entry (NaN included) below
    the diagonal or a diagonal entry that is not positive.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_real_array(self.matrix, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise DimensionError(f"expected a nonempty square matrix, got shape {a.shape}")
        if a[_strict_lower(a.shape[0])].any():
            raise DomainError("strict lower triangle is not zero")
        if not np.isfinite(a).all():
            raise NonFiniteError("triangle contains NaN or infinite entries")
        if not (a.diagonal() > 0.0).all():
            raise DomainError("diagonal entries must be strictly positive")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @classmethod
    def from_dense(cls, dense) -> "UpperTriangularPositive":
        """The triangle of a dense matrix, checked as the constructor does."""
        return cls(matrix=dense)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def to_dense(self) -> np.ndarray:
        """A writable copy of ``matrix``."""
        return self.matrix.copy()


def rank_ratio(largest: float, smallest: float, index: int = 0) -> float:
    """The rank rule, for :func:`condition_estimates` and
    ``sampling.conditioned_injective``: ``largest / smallest`` if ``smallest``
    exceeds ``DEFAULT_TOL_RANK * largest``, else ``RankDeficientError``
    carrying ``index``, the matrix's position in its stack."""
    if smallest <= DEFAULT_TOL_RANK * largest:
        raise RankDeficientError(
            f"columns are not independent at tol_rank={DEFAULT_TOL_RANK:g}: "
            f"singular-value ratio {smallest / largest if largest else 0.0:.3e}",
            index=index,
        )
    return largest / smallest


def condition_estimates(a: np.ndarray) -> list[float]:
    """Largest-to-smallest singular-value ratio of each finite matrix of a
    stack ``(n, m, d)``, from one SVD call.

    Each row passes :func:`rank_ratio`, in order, so the first matrix of the
    stack that fails the rank rule raises, with its position as the error's
    ``index``.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    conditions = []
    for k, row in enumerate(sv.tolist()):
        if not (math.isfinite(row[0]) and math.isfinite(row[-1])):
            # The SVD overflowed on huge finite entries. One exact power of
            # two brings max|a| into [0.5, 1) and leaves the ratio unchanged.
            block = a[k]
            scaled = np.ldexp(block, -math.frexp(max_abs(block))[1])
            row = np.linalg.svd(scaled, compute_uv=False).tolist()
        conditions.append(rank_ratio(row[0], row[-1], k))
    return conditions


def validate_injective(raw) -> InjectiveMap:
    """Validate an m x d matrix as an injective linear map.

    Raises ``DimensionError`` if d > m, ``RankDeficientError`` if the columns
    fail the rank rule of :func:`condition_estimates`, and ``NonFiniteError``
    for NaN/Inf entries.
    """
    a = as_matrix(raw)
    m, d = a.shape
    if d > m:
        raise DimensionError(f"need d <= m for an injective map, got {m}x{d}")
    return InjectiveMap(matrix=a, condition_estimate=condition_estimates(a[None])[0])


def validate_frame(raw) -> StiefelFrame:
    """Validate an m x d matrix as an orthonormal frame.

    Raises ``NotOrthonormalError`` carrying the max-abs deviation of
    ``raw.T @ raw`` from the identity when it exceeds ``DEFAULT_TOL_ORTHO``.
    """
    a = as_matrix(raw)
    m, d = a.shape
    if d > m:
        raise DimensionError(f"need d <= m for a frame, got {m}x{d}")
    defect = orthonormality_defect(a)
    if defect > DEFAULT_TOL_ORTHO:
        raise NotOrthonormalError(
            f"columns deviate from orthonormality by {defect:.3e} "
            f"(tol_ortho={DEFAULT_TOL_ORTHO:g})",
            deviation=defect,
        )
    return StiefelFrame(matrix=a)


def validate_rotation(raw) -> Rotation:
    """Validate a square matrix as special-orthogonal: orthonormal within
    ``DEFAULT_TOL_ORTHO``, after which the determinant's sign alone decides."""
    a = validate_frame(raw).matrix
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"rotation must be square, got shape {a.shape}")
    det = float(np.linalg.det(a))
    if not det > 0.0:
        raise DomainError(f"determinant must be positive, got {det!r}")
    return Rotation(matrix=a)


def include_frame(frame: StiefelFrame) -> InjectiveMap:
    """View an orthonormal frame as an injective map.

    The underlying matrix is unchanged (shared, read-only) and the condition
    estimate is exactly 1.
    """
    return InjectiveMap(matrix=frame.matrix, condition_estimate=1.0)


def tri_solve_inverse(u: UpperTriangularPositive) -> UpperTriangularPositive:
    """Invert an upper-triangular positive-diagonal matrix by back
    substitution.

    ``u.matrix`` is read in place. The result's diagonal entries are the
    reciprocals of the input's, hence positive, and the product with the
    input is the identity within roundoff.
    """
    a = u.matrix
    x = np.eye(a.shape[0])
    # An entry past the float range becomes inf or nan here, and checking the
    # result raises ``NonFiniteError`` for it: the strict lower triangle only
    # meets finite entries of ``a``, so it stays zero. Each row is updated in
    # place, over its full width: restricting the product to the nonzero
    # columns changes how BLAS blocks it, and with that the last bits.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(a.shape[0] - 1, -1, -1):
            row = x[i]
            row -= a[i, i + 1 :].dot(x[i + 1 :])
            row /= a[i, i]
    return UpperTriangularPositive.from_dense(x)

"""Validated dense-matrix types and the elementary kernels every other module
consumes.

Matrices are float64 numpy arrays kept in column-major (Fortran) order, since
every algorithm here works column by column. All types are immutable after
validation: the wrapped arrays are marked read-only, so instances are safe to
share across threads.
"""

from __future__ import annotations

import math
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
DEFAULT_TOL_DET = 1e-10

#: Condition-estimate bound up to which the orthonormality and reconstruction
#: tolerances are guaranteed; beyond it results carry diagnostics instead.
GUARANTEE_CONDITION = 1e6


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
    """Max-abs deviation of ``a.T @ a`` from the identity.

    For a stack ``(n, m, d)`` the result is the array of the n defects, from
    one batched product. Entries past about 1e154 overflow the Gram product,
    and the defect is then ``inf``, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.swapaxes(-1, -2) @ a
    d = a.shape[-1]
    # Overflowing products of both signs sum to NaN, which no ``<=`` gate
    # would catch; it means the same as an overflow. A single matrix takes
    # the leaner scalar path: most callers check one frame per call.
    if a.ndim == 2:
        gram.flat[:: d + 1] -= 1.0
        defect = max_abs(gram)
        return math.inf if math.isnan(defect) else defect
    gram.reshape(-1, d * d)[:, :: d + 1] -= 1.0
    defect = np.abs(gram).max(axis=(-2, -1), initial=0.0)
    defect[np.isnan(defect)] = math.inf
    return defect


@dataclass(frozen=True)
class InjectiveMap:
    """An m x d matrix with linearly independent columns.

    ``condition_estimate`` is the ratio of the largest to the smallest
    column-space singular value; it is diagnostic only.
    """

    matrix: np.ndarray
    condition_estimate: float

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
def _triangle_layout(dim: int):
    """Masks for the packed upper triangle of a dim x dim matrix.

    Returns ``(upper, lower, diag_positions)``: boolean masks of the upper
    triangle (diagonal included) and of the strict lower triangle, and the
    positions of the diagonal entries within the packed triangle. Boolean
    indexing runs in row-major order, which is the packed order.
    """
    upper = np.triu(np.ones((dim, dim), dtype=bool))
    lower = ~upper
    diag = np.flatnonzero(np.eye(dim, dtype=bool)[upper])
    for arr in (upper, lower, diag):
        arr.setflags(write=False)
    return upper, lower, diag


@dataclass(frozen=True)
class UpperTriangularPositive:
    """A d x d upper-triangular matrix with strictly positive diagonal.

    Only the upper triangle is stored, row-major within the triangle; the
    strict lower triangle is zero by construction and never materialized
    except through :meth:`to_dense`.
    """

    dim: int
    packed: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("dim must be a positive integer")
        expected = self.dim * (self.dim + 1) // 2
        packed = as_real_array(self.packed)
        if packed.shape != (expected,):
            raise DimensionError(
                f"packed triangle for dim {self.dim} needs {expected} entries, "
                f"got shape {packed.shape}"
            )
        if not np.isfinite(packed).all():
            raise NonFiniteError("triangle contains NaN or infinite entries")
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        if not (self.diagonal() > 0.0).all():
            raise DomainError("diagonal entries must be strictly positive")

    @classmethod
    def from_dense(cls, dense) -> "UpperTriangularPositive":
        """Pack a dense upper-triangular matrix.

        Rejects matrices with any nonzero entry, NaN included, in the strict
        lower triangle.
        """
        a = as_real_array(dense)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        upper, lower, _ = _triangle_layout(a.shape[0])
        if a[lower].any():
            raise DomainError("strict lower triangle is not zero")
        return cls(dim=a.shape[0], packed=a[upper])

    def diagonal(self) -> np.ndarray:
        _, _, diag = _triangle_layout(self.dim)
        return self.packed[diag]

    def to_dense(self) -> np.ndarray:
        upper, _, _ = _triangle_layout(self.dim)
        a = np.zeros((self.dim, self.dim))
        a[upper] = self.packed
        return a


def condition_estimates(a: np.ndarray) -> list[float]:
    """Largest-to-smallest singular-value ratio of a finite matrix, or of
    each matrix of a stack ``(n, m, d)``, from one SVD call.

    This is the rank rule: a matrix counts as injective when its smallest
    singular value exceeds ``DEFAULT_TOL_RANK`` times its largest. Otherwise
    ``RankDeficientError`` is raised, for the first such matrix of a stack.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    conditions = []
    for k, row in enumerate(sv.tolist() if sv.ndim > 1 else [sv.tolist()]):
        if not (math.isfinite(row[0]) and math.isfinite(row[-1])):
            # The SVD overflowed on huge finite entries. One exact power of
            # two brings max|a| into [0.5, 1) and leaves the ratio unchanged.
            block = a.reshape(-1, *a.shape[-2:])[k]
            scaled = np.ldexp(block, -math.frexp(max_abs(block))[1])
            row = np.linalg.svd(scaled, compute_uv=False).tolist()
        largest, smallest = row[0], row[-1]
        if smallest <= DEFAULT_TOL_RANK * largest:
            raise RankDeficientError(
                f"columns are not independent at tol_rank={DEFAULT_TOL_RANK:g}: "
                f"singular-value ratio {smallest / largest if largest else 0.0:.3e}"
            )
        conditions.append(largest / smallest)
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
    return InjectiveMap(matrix=a, condition_estimate=condition_estimates(a)[0])


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
    """Validate a square matrix as special-orthogonal (orthogonal, det +1)
    within ``DEFAULT_TOL_ORTHO`` and ``DEFAULT_TOL_DET``."""
    a = validate_frame(raw).matrix
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"rotation must be square, got shape {a.shape}")
    det = float(np.linalg.det(a))
    if abs(det - 1.0) > DEFAULT_TOL_DET:
        raise DomainError(
            f"determinant must be +1 within {DEFAULT_TOL_DET:g}, got {det!r}"
        )
    return Rotation(matrix=a)


def include_frame(frame: StiefelFrame) -> InjectiveMap:
    """View an orthonormal frame as an injective map.

    The underlying matrix is unchanged (shared, read-only) and the condition
    estimate is exactly 1.
    """
    return InjectiveMap(matrix=frame.matrix, condition_estimate=1.0)


def tri_solve_inverse(u) -> UpperTriangularPositive:
    """Invert an upper-triangular positive-diagonal matrix by back
    substitution.

    ``u`` is an :class:`UpperTriangularPositive`, or the dense square array
    that one was packed from, which saves unpacking it again; only the upper
    triangle of a dense array is read. The result's diagonal entries are the
    reciprocals of the input's, hence positive, and the product with the
    input is the identity within roundoff.
    """
    a = u if isinstance(u, np.ndarray) else u.to_dense()
    x = np.eye(a.shape[0])
    # An entry past the float range becomes inf or nan here, and packing the
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

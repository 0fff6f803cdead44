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


def as_matrix(raw) -> np.ndarray:
    """Coerce ``raw`` to a read-only column-major float matrix.

    Raises ``DimensionError`` for non-2d input or empty axes and
    ``NonFiniteError`` if any entry is NaN or infinite.
    """
    a = np.array(raw, dtype=float, order="F")
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


def orthonormality_defect(a: np.ndarray) -> float:
    """Max-abs deviation of ``a.T @ a`` from the identity.

    Entries past about 1e154 overflow the Gram product, and the defect is
    then ``inf``, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    gram.flat[:: a.shape[1] + 1] -= 1.0
    defect = max_abs(gram)
    # Overflowing products of both signs sum to NaN, which no ``<=`` gate
    # would catch; it means the same as an overflow.
    return math.inf if math.isnan(defect) else defect


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
        packed = np.array(self.packed, dtype=float)
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
        a = np.asarray(dense, dtype=float)
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


def validate_injective(raw, tol_rank: float = DEFAULT_TOL_RANK) -> InjectiveMap:
    """Validate an m x d matrix as an injective linear map.

    The columns count as linearly independent when the smallest singular
    value exceeds ``tol_rank`` times the largest.

    Raises ``DimensionError`` if d > m, ``RankDeficientError`` if the
    singular-value ratio is at or below ``tol_rank``, and ``NonFiniteError``
    for NaN/Inf entries.
    """
    if not 0.0 < tol_rank < 1.0:
        raise DomainError(f"tol_rank must lie in (0, 1), got {tol_rank}")
    a = as_matrix(raw)
    m, d = a.shape
    if d > m:
        raise DimensionError(f"need d <= m for an injective map, got {m}x{d}")
    sv = np.linalg.svd(a, compute_uv=False)
    if not (math.isfinite(sv[0]) and math.isfinite(sv[-1])):
        # The SVD overflowed on huge finite entries. One exact power of two
        # brings max|a| into [0.5, 1) and leaves the ratio unchanged.
        sv = np.linalg.svd(np.ldexp(a, -math.frexp(max_abs(a))[1]), compute_uv=False)
    largest, smallest = float(sv[0]), float(sv[-1])
    if smallest <= tol_rank * largest:
        raise RankDeficientError(
            f"columns are not independent at tol_rank={tol_rank:g}: "
            f"singular-value ratio {smallest / largest if largest else 0.0:.3e}"
        )
    return InjectiveMap(matrix=a, condition_estimate=largest / smallest)


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

"""Gram-Schmidt orthonormalization onto the Stiefel manifold.

The central map sends an injective m x d matrix to the orthonormal frame
produced by Gram-Schmidt on its columns. Alongside the frame we extract the
unique upper-triangular coefficient matrix with positive diagonal that turns
the input columns into the frame (input @ coefficients = frame), which for
square inputs is the inverse of the R factor of the positive-diagonal QR
decomposition.

There is one kernel: a classical Gram-Schmidt sweep that projects each column
twice against the frame built so far ("twice is enough": Giraud, Langou and
Rozloznik, Numer. Math. 101, 2005), which leaves the frame orthonormal to
working precision for every numerically nonsingular input; a single
projection would lose orthogonality roughly like eps * condition^2.

Inputs of 2^16 entries or more are swept in blocks of 16 columns by
reorthogonalized block classical Gram-Schmidt, BCGS2 (Barlow and
Smoktunowicz, Numer. Math. 123, 2013; Carson, Lund, Rozloznik and Thomas,
Linear Algebra Appl. 638, 2022). Each block after the first takes two
passes. The first projects the block once against the finished frame with
matrix-matrix products and runs the column sweep inside it. The second
projects the result once more, with coefficients t, and normalizes it by
Cholesky QR of I - t^T t, its Gram matrix by the Pythagorean identity; when
|t|^2 is below eps that factor is the identity to working precision and is
skipped. The two passes' triangles are multiplied together into R. The
cited analysis takes a stable local QR in both passes. The first pass's
column sweep is one for numerically nonsingular blocks; the second pass's
Cholesky QR relies on its input lying within about eps * condition of
orthonormal, an argument made here, not in those papers, and checked by the
tests. The block products cut their inner dimension into pieces of at most
256 rows, summed in order, because OpenBLAS returned different bits at one
and two threads for longer ones. Smaller inputs are one block of their
whole width, which is the column sweep itself, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL_ORTHO,
    DEFAULT_TOL_RANK,
    InjectiveMap,
    StiefelFrame,
    UpperTriangularPositive,
    as_matrix,
    orthonormality_defect,
    tri_solve_inverse,
    validate_frame,
    validate_injective,
)
from .errors import DimensionError, NonFiniteError, NumericalRankLossError


@dataclass(frozen=True)
class GramSchmidtResult:
    """Frame, coefficient matrix and triangular factor bundled together.

    ``coefficient_matrix`` column i holds the expansion coefficients of frame
    column i in the input columns. ``triangular_factor`` is R, the triangle
    accumulated by the sweep (alpha = frame @ R within roundoff, M = R^-1);
    its diagonal holds the per-column norms seen just before normalization,
    the reciprocals of M's diagonal.
    """

    frame: StiefelFrame
    coefficient_matrix: UpperTriangularPositive
    triangular_factor: UpperTriangularPositive


#: Inputs with at least this many entries are swept in blocks of
#: ``BLOCK_WIDTH`` columns; smaller inputs are one block of their whole width.
BLOCKED_ENTRIES = 2**16
BLOCK_WIDTH = 16
#: Longest inner dimension of one block product.
PIECE_ROWS = 256
_EPS = float(np.finfo(float).eps)


def _pieced_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` with the inner dimension cut into pieces of at most
    ``PIECE_ROWS``, summed in order, so that its bits do not depend on the
    BLAS thread count at the shapes tried (see the module docstring).
    """
    out = x[:, :PIECE_ROWS] @ y[:PIECE_ROWS]
    for k in range(PIECE_ROWS, x.shape[1], PIECE_ROWS):
        out += x[:, k : k + PIECE_ROWS] @ y[k : k + PIECE_ROWS]
    return out


def _column_pass(src, dst, r, norms, start):
    """Classical Gram-Schmidt on the columns of ``src``, projecting each
    column twice against the columns of ``dst`` built so far.

    Column j is projected in place, normalized into ``dst[:, j]``, and its
    coefficients are written to column j of the triangle ``r``. A residual
    norm below ``DEFAULT_TOL_RANK * norms[j]`` raises
    ``NumericalRankLossError`` naming column ``start + j`` of the input.
    """
    for j in range(src.shape[1]):
        w = src[:, j]
        if j:
            basis = dst[:, :j]
            h = w.dot(basis)
            w -= basis.dot(h)
            h2 = w.dot(basis)
            w -= basis.dot(h2)
            np.add(h, h2, r[:j, j])
        nrm = math.sqrt(w.dot(w))
        if nrm < DEFAULT_TOL_RANK * norms[j]:
            raise NumericalRankLossError(
                f"column {start + j} collapsed during the sweep: residual norm "
                f"is {nrm / norms[j]:.3e} of the column norm, below "
                f"tol_rank={DEFAULT_TOL_RANK:g}"
            )
        r[j, j] = nrm
        np.divide(w, nrm, dst[:, j])


def _sweep(a: np.ndarray):
    """Classical Gram-Schmidt on the columns of ``a``, projecting each column
    twice against the frame built so far.

    Returns ``(q, r)`` with ``a = q @ r``, q column-major and r upper
    triangular and row-major. Columns are first scaled by exact powers of
    two, so no norm overflows or underflows, and the scaling is folded back
    into r exactly. ``a`` itself is never written: the scaled copy is the
    working array, and each column's projections are subtracted from it in
    place.

    Inputs of ``BLOCKED_ENTRIES`` entries or more are taken in blocks of
    columns by BCGS2, as the module docstring describes, on a column-major
    scaled copy; an input taken as one block runs the column sweep alone, on
    a copy in the input's own layout, to whose bits it is pinned.
    """
    blocked = a.size >= BLOCKED_ENTRIES
    _, exps = np.frexp(np.abs(a).max(axis=0))
    a = np.ldexp(a, -exps, order="F" if blocked else "K")
    m, d = a.shape
    input_norms = np.sqrt(np.add.reduce(a * a, axis=0)).tolist()
    q = np.empty((m, d), order="F")
    r = np.zeros((d, d), order="F")
    width = BLOCK_WIDTH if blocked else d
    _column_pass(a[:, :width], q[:, :width], r[:width, :width], input_norms[:width], 0)
    for start in range(width, d, width):
        stop = min(start + width, d)
        basis = q[:, :start]
        # First pass: project the block once against the frame, then run the
        # column sweep inside it, into `y`. Each correction basis @ h comes
        # out row-major; a column-major copy of it is subtracted from the
        # column-major block in half the time.
        block = a[:, start:stop]
        s = _pieced_product(basis.T, block)
        block -= np.asfortranarray(_pieced_product(basis, s))
        y = np.empty_like(block)
        r_first = np.zeros((stop - start, stop - start))
        _column_pass(block, y, r_first, input_norms[start:stop], start)
        # Second pass: project `y` once more, then normalize it by Cholesky
        # QR. `y` was orthonormal to working precision, so now y^T y = I - t^T t
        # within O(eps) (the Pythagorean identity), and |t| is about eps times
        # the condition, below 1e-5 for any input the rank rule accepts. When
        # |t|^2 is below eps, the Cholesky factor is I to working precision.
        t = _pieced_product(basis.T, y)
        y -= np.asfortranarray(_pieced_product(basis, t))
        r[:start, start:stop] = s + t @ r_first
        if np.vdot(t, t) <= _EPS:
            q[:, start:stop] = y
            r[start:stop, start:stop] = r_first
        else:
            r_second = np.linalg.cholesky(np.eye(stop - start) - t.T @ t).T
            np.matmul(y, np.linalg.inv(r_second), q[:, start:stop])
            r[start:stop, start:stop] = r_second @ r_first
    # Adding +0.0 stores a zero coefficient of h + h2 as +0.0, never -0.0.
    r += 0.0
    # r is filled column by column, but the back substitution reads it by
    # rows, and its bits depend on that layout, so the scaled copy is C-order.
    # Column j of r is below sqrt(m) * 2^exps[j], so only a column above
    # 2^960 can overflow; callers that read R reject its inf, retract reads q.
    if max(exps.tolist()) <= 960:
        return q, np.ldexp(r, exps, order="C")
    with np.errstate(over="ignore"):
        return q, np.ldexp(r, exps, order="C")


def _factor(alpha: InjectiveMap):
    """Run the sweep and check the frame once.

    Returns ``(frame, r)`` with ``alpha = frame @ r`` within roundoff and r
    the dense triangle, checked only by the callers that return it.
    """
    q, r = _sweep(alpha.matrix)
    defect = orthonormality_defect(q)
    if not defect <= DEFAULT_TOL_ORTHO:
        raise NumericalRankLossError(
            f"orthonormalization lost orthogonality: defect {defect:.3e} "
            f"exceeds tol_ortho={DEFAULT_TOL_ORTHO:g} "
            f"(condition estimate {alpha.condition_estimate:.3e})"
        )
    q.setflags(write=False)
    return StiefelFrame(matrix=q), r


def _checked_factor(dense_r: np.ndarray) -> UpperTriangularPositive:
    try:
        return UpperTriangularPositive.from_dense(dense_r)
    except NonFiniteError as exc:
        raise NumericalRankLossError("triangular factor R lies outside the float range") from exc


def orthonormalize(alpha: InjectiveMap) -> GramSchmidtResult:
    """Orthonormalize the columns of ``alpha`` and extract the coefficient
    matrix.

    The frame satisfies the inductive rule: the first column is the first
    input column normalized, and each later column is the input column minus
    its projections onto the previous frame columns, normalized. The
    coefficient matrix is computed as the back-substitution inverse of the
    triangular factor accumulated by the sweep, which is better conditioned
    than accumulating the inductive coefficient updates directly.

    Raises ``NumericalRankLossError`` when a column norm collapses below
    1e-10 times its input norm, when the produced frame misses the
    1e-10 orthogonality tolerance, or when an entry of R or of the
    coefficient matrix lies outside the float range.
    """
    frame, dense_r = _factor(alpha)
    r = _checked_factor(dense_r)
    try:
        coeff = tri_solve_inverse(r)
    except NonFiniteError as exc:
        raise NumericalRankLossError(
            f"coefficient matrix lies outside the float range: smallest "
            f"diagonal entry of R is {float(np.min(r.diagonal())):.3e}"
        ) from exc
    return GramSchmidtResult(frame=frame, coefficient_matrix=coeff, triangular_factor=r)


def retract(alpha: InjectiveMap) -> StiefelFrame:
    """The Gram-Schmidt retraction: the orthonormal frame of ``alpha``.

    Skips the coefficient matrix, so it also works where a coefficient would
    lie outside the float range.
    """
    return _factor(alpha)[0]


def coefficient_matrix(alpha: InjectiveMap) -> UpperTriangularPositive:
    """The unique positive-diagonal upper-triangular matrix carrying
    ``alpha`` onto its frame (alpha @ result = frame)."""
    return orthonormalize(alpha).coefficient_matrix


def qr_decompose(alpha: InjectiveMap) -> tuple[StiefelFrame, UpperTriangularPositive]:
    """Positive-diagonal QR decomposition of a square injective map.

    Q is the Gram-Schmidt frame (orthogonal, determinant +-1) and R is the
    inverse of the coefficient matrix, i.e. the triangular factor accumulated
    by the sweep, so Q @ R = alpha within roundoff and the positive diagonal
    makes the factorization unique.
    """
    m, d = alpha.matrix.shape
    if m != d:
        raise DimensionError("qr requires a square matrix")
    frame, r = _factor(alpha)
    return frame, _checked_factor(r)


def householder_qr_oracle(a) -> tuple[StiefelFrame, UpperTriangularPositive]:
    """Householder-reflector QR with the diagonal of R flipped positive.

    Backed by LAPACK through numpy, so it shares no code with the sweep
    above; by uniqueness of the positive-diagonal factorization it must
    reproduce :func:`qr_decompose` and is used to cross-validate it.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    validate_injective(arr)
    q, r = np.linalg.qr(arr)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = np.triu(r * signs[:, None])
    return validate_frame(q), UpperTriangularPositive.from_dense(r)

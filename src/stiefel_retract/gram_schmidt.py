"""Gram-Schmidt orthonormalization onto the Stiefel manifold.

The central map sends an injective m x d matrix to the orthonormal frame
produced by Gram-Schmidt on its columns. Alongside the frame we extract the
unique upper-triangular coefficient matrix with positive diagonal that turns
the input columns into the frame (input @ coefficients = frame), which for
square inputs is the inverse of the R factor of the positive-diagonal QR
decomposition.

There is one kernel, in two forms by size. Inputs below 2^16 entries run a
classical Gram-Schmidt sweep that projects each column twice against the
frame built so far ("twice is enough": Giraud, Langou and Rozloznik, Numer.
Math. 101, 2005), which leaves the frame orthonormal to working precision
for every numerically nonsingular input; a single projection would lose
orthogonality roughly like eps * condition^2.

Inputs of 2^16 entries or more are swept in blocks of 16 columns by
reorthogonalized block classical Gram-Schmidt, BCGS2 (Barlow and
Smoktunowicz, Numer. Math. 123, 2013; Carson, Lund, Rozloznik and Thomas,
Linear Algebra Appl. 638, 2022). Each block takes two passes. The first
projects the block once against the finished frame with matrix-matrix
products, with coefficients S, and factors the result as P = Y R1 by
Cholesky QR, R1 the Cholesky factor of P^T P. A guard hands it to the column
sweep inside the block, which gives the collapse verdict, when that
factorization fails, when kappa_F(R1) = |R1|_F |R1^-1|_F exceeds 1e3 (eps *
kappa_F^2 is about 2e-10) or when a diagonal entry of R1 is below 1e-10 of
its input column's norm. The second pass, one path for every block,
projects Y once more, with coefficients T, and factors that as Q_b R2 by
Cholesky QR; R gets S + T R1 above the block and R2 R1 on it. After a
Cholesky first pass the two are CholeskyQR2, orthonormal to O(eps) below a
block condition of about eps^-1/2 (Yamamoto, Nakatsukasa, Yanagisawa and
Fukaya, ETNA 44, 2015), the stable in-block factorization that the BCGS2
analysis takes. One step is argued here, not in those papers, and checked
by the tests: the second projection may sit between the two passes, since
either first pass leaves Y within about 2e-10 of orthonormal, so the second
factors a matrix of condition 1 to working precision; should its guard
still trip, the sweep raises NumericalRankLossError. The block products,
the Gram matrices included, cut their inner dimension into pieces of at
most 256 rows, summed in order, because OpenBLAS returned different bits
at one and two threads for longer ones.
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
#: ``BLOCK_WIDTH`` columns; smaller inputs run the column sweep.
BLOCKED_ENTRIES = 2**16
BLOCK_WIDTH = 16
#: Longest inner dimension of one block product.
PIECE_ROWS = 256
#: A block whose first Cholesky factor R1 has kappa_F(R1) = |R1|_F |R1^-1|_F
#: above this takes the column pass instead; eps * BLOCK_KAPPA_MAX^2 is
#: about 2e-10.
BLOCK_KAPPA_MAX = 1e3


def _pieced_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` with the inner dimension cut into pieces of at most
    ``PIECE_ROWS``, summed in order, so that its bits do not depend on the
    BLAS thread count at the shapes tried (see the module docstring).
    """
    out = x[:, :PIECE_ROWS] @ y[:PIECE_ROWS]
    for k in range(PIECE_ROWS, x.shape[1], PIECE_ROWS):
        out += x[:, k : k + PIECE_ROWS] @ y[k : k + PIECE_ROWS]
    return out


def _project_out(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Subtract from ``x``, in place, its projection onto the columns of
    ``basis``, and return the coefficients ``basis^T x``."""
    h = _pieced_product(basis.T, x)
    if basis.shape[1]:
        x -= _pieced_product(basis, h)
    return h


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


def _guarded_cholesky(p: np.ndarray, floor: np.ndarray):
    """``(R, R^-1)`` for the upper Cholesky factor R of ``p^T p``, or None
    when the factorization fails, kappa_F(R) exceeds ``BLOCK_KAPPA_MAX`` or
    a diagonal entry of R lies below its entry of ``floor``."""
    try:
        # numpy hands p.T @ p on one buffer to syrk, slower here than gemm
        # on a copy (81 against 48 us at 2000x16, one OpenBLAS 0.3.31 thread).
        r = np.linalg.cholesky(_pieced_product(p.T, p.copy()), upper=True)
    except np.linalg.LinAlgError:
        return None
    r_inv = np.linalg.inv(r)
    # Written so that a NaN condition also fails the guard.
    if not np.linalg.norm(r) * np.linalg.norm(r_inv) <= BLOCK_KAPPA_MAX:
        return None
    if (r.diagonal() < floor).any():
        return None
    return r, r_inv


def _blocked_sweep(a, q, r, input_norms):
    """The blocked form of ``_sweep``: each block of ``BLOCK_WIDTH``
    columns of the row-major working copy ``a`` is orthonormalized against
    the finished frame in ``q`` by two passes, the first of them the column
    pass when the guard trips, as the module docstring describes."""
    d = a.shape[1]
    for start in range(0, d, BLOCK_WIDTH):
        stop = min(start + BLOCK_WIDTH, d)
        block = slice(start, stop)
        basis = q[:, :start]
        # Pass 1: project the block once against the frame, into p.
        p = a[:, block]
        s = _project_out(basis, p)
        floor = DEFAULT_TOL_RANK * input_norms[block]
        first = _guarded_cholesky(p, floor)
        if first is not None:
            r1, r1_inv = first
            y = p @ r1_inv
        else:
            # The column sweep inside the projected block, on a column-major
            # copy so that its columns are contiguous; it also gives the
            # collapse verdict.
            y = np.empty((a.shape[0], stop - start), order="F")
            r1 = np.zeros((stop - start, stop - start))
            norms = input_norms[block].tolist()
            _column_pass(np.asfortranarray(p), y, r1, norms, start)
        # Pass 2, the same for every block: project y once more, Cholesky QR.
        t = _project_out(basis, y)
        second = _guarded_cholesky(y, 0.0)
        if second is None:
            raise NumericalRankLossError(f"second pass of the block from column {start} failed")
        r2, r2_inv = second
        np.matmul(y, r2_inv, q[:, block])
        r[:start, block] = s + t @ r1
        r[block, block] = r2 @ r1


def _sweep(a: np.ndarray):
    """Gram-Schmidt on the columns of ``a``: the column sweep, projecting
    each column twice against the frame built so far, or the blocked sweep.

    Returns ``(q, r)`` with ``a = q @ r``, q column-major and r upper
    triangular and row-major. Columns are first scaled by exact powers of
    two, so no norm overflows or underflows, and the scaling is folded back
    into r exactly. ``a`` itself is never written: the scaled copy is the
    working array, and each column's projections are subtracted from it in
    place.

    Inputs of ``BLOCKED_ENTRIES`` entries or more are taken in blocks of
    ``BLOCK_WIDTH`` columns on a row-major scaled copy, each by a first
    pass, Cholesky QR or the column pass, and a Cholesky QR second pass, as
    the module docstring describes. Smaller inputs run the column sweep
    alone, on a copy in the input's own layout, to whose bits they are pinned.
    """
    m, d = a.shape
    q = np.empty((m, d), order="F")
    r = np.zeros((d, d), order="F")
    if a.size >= BLOCKED_ENTRIES:
        # The same exponents and scaled copy as below, without m x d
        # temporaries; the norms may differ in the last bits, and they feed
        # only the collapse floor.
        _, exps = np.frexp(np.maximum(a.max(axis=0), -a.min(axis=0)))
        a = np.ldexp(a, -exps, order="C")
        _blocked_sweep(a, q, r, np.sqrt(np.einsum("ij,ij->j", a, a)))
    else:
        _, exps = np.frexp(np.abs(a).max(axis=0))
        a = np.ldexp(a, -exps, order="K")
        _column_pass(a, q, r, np.sqrt(np.add.reduce(a * a, axis=0)).tolist(), 0)
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

    Returns ``(frame, r, defect)``: ``alpha = frame @ r`` within roundoff,
    r dense, checked only by callers that return it, and the frame's defect.
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
    return StiefelFrame(matrix=q), r, defect


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
    frame, dense_r, _ = _factor(alpha)
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
    frame, r, _ = _factor(alpha)
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

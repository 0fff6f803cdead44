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


def _sweep(a: np.ndarray):
    """Classical Gram-Schmidt on the columns of ``a``, projecting each column
    twice against the frame built so far.

    Returns ``(q, r)`` with ``a = q @ r``, q column-major and r upper
    triangular and row-major. Columns are first scaled by exact powers of
    two, so no norm overflows or underflows, and the scaling is folded back
    into r exactly. ``a`` itself is never written: the scaled copy is the
    working array, and each column's projections are subtracted from it in
    place.
    """
    _, exps = np.frexp(np.max(np.abs(a), axis=0))
    a = np.ldexp(a, -exps)
    m, d = a.shape
    input_norms = np.linalg.norm(a, axis=0)
    floors = (DEFAULT_TOL_RANK * input_norms).tolist()
    q = np.zeros((m, d), order="F")
    r = np.zeros((d, d), order="F")
    for i in range(d):
        w = a[:, i]
        if i:
            basis = q[:, :i]
            h = w.dot(basis)
            w -= basis.dot(h)
            h2 = w.dot(basis)
            w -= basis.dot(h2)
            col = r[:i, i]
            np.add(h, h2, out=col)
            # Adding +0.0 stores a zero coefficient as +0.0, never -0.0.
            col += 0.0
        nrm = math.sqrt(w.dot(w))
        if nrm < floors[i]:
            raise NumericalRankLossError(
                f"column {i} collapsed during the sweep: residual norm is "
                f"{nrm / input_norms[i]:.3e} of the column norm, below "
                f"tol_rank={DEFAULT_TOL_RANK:g}"
            )
        r[i, i] = nrm
        np.divide(w, nrm, out=q[:, i])
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
    the dense triangle, packed only by the callers that return it.
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


def _packed_factor(dense_r: np.ndarray) -> UpperTriangularPositive:
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
    r = _packed_factor(dense_r)
    # The back substitution reads the dense R that was just packed.
    try:
        coeff = tri_solve_inverse(dense_r)
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
    return frame, _packed_factor(r)


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

"""Gram-Schmidt orthonormalization onto the Stiefel manifold.

The central map sends an injective m x d matrix to the orthonormal frame
produced by Gram-Schmidt on its columns. Alongside the frame we extract the
unique upper-triangular coefficient matrix with positive diagonal that turns
the input columns into the frame (input @ coefficients = frame), which for
square inputs is the inverse of the R factor of the positive-diagonal QR
decomposition.

There is one kernel: a classical Gram-Schmidt sweep that projects each column
against the frame built so far. The default runs that projection twice per
column ("twice is enough": Giraud, Langou and Rozloznik, Numer. Math. 101,
2005), which leaves the frame orthonormal to working precision for every
numerically nonsingular input; a single projection loses orthogonality
roughly like eps * condition^2. Both compute the same map in exact
arithmetic.
"""

from __future__ import annotations

import enum
import math
import os
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
    singular_values,
    tri_solve_inverse,
    validate_frame,
)
from .errors import (
    DimensionError,
    DomainError,
    NumericalRankLossError,
    RankDeficientError,
)


class Variant(enum.Enum):
    """Which sweep to run.

    ``MODIFIED`` (the default) projects each column twice against the frame
    built so far; ``CLASSICAL`` projects once.
    """

    CLASSICAL = "classical"
    MODIFIED = "modified"


_PASSES = {Variant.CLASSICAL: 1, Variant.MODIFIED: 2}

#: Orthogonality tolerance for frames produced by the classical sweep, which
#: loses orthogonality roughly like eps * condition^2.
CLASSICAL_TOL_ORTHO = 1e-6

FAULT_ENV = "STIEFEL_RETRACT_FAULT"
_FAULT_MGS_SIGN = "mgs-sign"


@dataclass(frozen=True)
class GramSchmidtResult:
    """Frame, coefficient matrix and sweep diagnostics bundled together.

    ``coefficient_matrix`` column i holds the expansion coefficients of frame
    column i in the input columns; its diagonal entries are the reciprocals
    of ``intermediate_norms``, the per-column norms seen just before
    normalization.
    """

    frame: StiefelFrame
    coefficient_matrix: UpperTriangularPositive
    intermediate_norms: np.ndarray
    variant_used: Variant


def _sweep(a: np.ndarray, passes: int, tol_rank: float):
    """Classical Gram-Schmidt on the columns of ``a``, projecting each column
    ``passes`` times against the frame built so far.

    Returns ``(q, r)`` with ``a = q @ r`` and r upper triangular. Columns are
    first scaled by exact powers of two, so no norm overflows or underflows,
    and the scaling is folded back into r exactly.
    """
    _, exps = np.frexp(np.max(np.abs(a), axis=0))
    a = np.ldexp(a, -exps)
    m, d = a.shape
    input_norms = np.linalg.norm(a, axis=0)
    q = np.zeros((m, d), order="F")
    r = np.zeros((d, d))
    # Test hook: adding the projections lets the self-test prove it detects
    # a broken kernel.
    project = np.add if os.environ.get(FAULT_ENV) == _FAULT_MGS_SIGN else np.subtract
    for i in range(d):
        w = a[:, i]
        basis = q[:, :i]
        for _ in range(passes if i else 0):
            h = w @ basis
            w = project(w, basis @ h)
            r[:i, i] += h
        nrm = math.sqrt(w @ w)
        if nrm < tol_rank * input_norms[i]:
            raise NumericalRankLossError(
                f"column {i} collapsed during the sweep: residual norm is "
                f"{nrm / input_norms[i]:.3e} of the column norm, below "
                f"tol_rank={tol_rank:g}"
            )
        r[i, i] = nrm
        q[:, i] = w / nrm
    return q, np.ldexp(r, exps)


def _factor(alpha: InjectiveMap, variant: Variant, tol_rank: float, tol_ortho: float):
    """Run the sweep for ``variant`` and check the frame once.

    Returns ``(frame, r)`` with ``alpha = frame @ r`` within roundoff.
    """
    if variant not in _PASSES:
        raise DomainError(f"unknown variant {variant!r}")
    q, r = _sweep(alpha.matrix, _PASSES[variant], tol_rank)
    defect = orthonormality_defect(q)
    if not defect <= tol_ortho:
        raise NumericalRankLossError(
            f"orthonormalization lost orthogonality: defect {defect:.3e} "
            f"exceeds tol_ortho={tol_ortho:g} "
            f"(condition estimate {alpha.condition_estimate:.3e})"
        )
    q.setflags(write=False)
    return StiefelFrame(matrix=q), UpperTriangularPositive.from_dense(r)


def orthonormalize(
    alpha: InjectiveMap,
    variant: Variant = Variant.MODIFIED,
    tol_rank: float = DEFAULT_TOL_RANK,
    tol_ortho: float | None = None,
) -> GramSchmidtResult:
    """Orthonormalize the columns of ``alpha`` and extract the coefficient
    matrix.

    The frame satisfies the inductive rule: the first column is the first
    input column normalized, and each later column is the input column minus
    its projections onto the previous frame columns, normalized. The default
    ``Variant.MODIFIED`` projects twice per column, ``Variant.CLASSICAL``
    once. The coefficient matrix is computed as the back-substitution
    inverse of the triangular factor accumulated by the sweep, which is
    better conditioned than accumulating the inductive coefficient updates
    directly.

    Raises ``NumericalRankLossError`` when a column norm collapses below
    ``tol_rank`` times its input norm, or when the produced frame misses the
    orthogonality tolerance (classical sweeps default to a relaxed 1e-6).
    """
    if tol_ortho is None:
        tol_ortho = CLASSICAL_TOL_ORTHO if variant is Variant.CLASSICAL else DEFAULT_TOL_ORTHO
    frame, r = _factor(alpha, variant, tol_rank, tol_ortho)
    return GramSchmidtResult(
        frame=frame,
        coefficient_matrix=tri_solve_inverse(r),
        intermediate_norms=r.diagonal(),
        variant_used=variant,
    )


def _inductive_coefficients(a: np.ndarray) -> np.ndarray:
    """Dense upper-triangular coefficients built by the inductive update.

    Column i is accumulated from the expansion of the projections in the
    previous columns' coefficients, then scaled by the residual norm. Used
    only as an independent cross-check of the triangular-solve route.
    """
    d = a.shape[1]
    lam = np.zeros((d, d))
    for i in range(d):
        lam_t = np.zeros(d)
        lam_t[i] = 1.0
        if i:
            prev = a @ lam[:, :i]
            proj = prev.T @ a[:, i]
            lam_t[:i] = -(lam[:i, :i] @ proj)
        residual = a @ lam_t
        lam[:, i] = lam_t / np.linalg.norm(residual)
    return lam


def retract(alpha: InjectiveMap, tol_rank: float = DEFAULT_TOL_RANK) -> StiefelFrame:
    """The Gram-Schmidt retraction: the orthonormal frame of ``alpha``."""
    return orthonormalize(alpha, Variant.MODIFIED, tol_rank).frame


def coefficient_matrix(
    alpha: InjectiveMap, tol_rank: float = DEFAULT_TOL_RANK
) -> UpperTriangularPositive:
    """The unique positive-diagonal upper-triangular matrix carrying
    ``alpha`` onto its frame (alpha @ result = frame)."""
    return orthonormalize(alpha, Variant.MODIFIED, tol_rank).coefficient_matrix


def qr_decompose(
    alpha: InjectiveMap, tol_rank: float = DEFAULT_TOL_RANK
) -> tuple[StiefelFrame, UpperTriangularPositive]:
    """Positive-diagonal QR decomposition of a square injective map.

    Q is the Gram-Schmidt frame (orthogonal, determinant +-1) and R is the
    inverse of the coefficient matrix, i.e. the triangular factor accumulated
    by the sweep, so Q @ R = alpha within roundoff and the positive diagonal
    makes the factorization unique.
    """
    m, d = alpha.matrix.shape
    if m != d:
        raise DimensionError("qr requires a square matrix")
    return _factor(alpha, Variant.MODIFIED, tol_rank, DEFAULT_TOL_ORTHO)


def householder_qr_oracle(
    a, tol_rank: float = DEFAULT_TOL_RANK
) -> tuple[StiefelFrame, UpperTriangularPositive]:
    """Householder-reflector QR with the diagonal of R flipped positive.

    Backed by LAPACK through numpy, so it shares no code with the sweep
    above; by uniqueness of the positive-diagonal factorization it must
    reproduce :func:`qr_decompose` and is used to cross-validate it.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    sv = singular_values(arr)
    if float(sv[-1]) <= tol_rank * float(sv[0]):
        raise RankDeficientError(
            f"matrix is numerically singular: singular-value ratio "
            f"{float(sv[-1]) / float(sv[0]) if sv[0] else 0.0:.3e}"
        )
    q, r = np.linalg.qr(arr)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = np.triu(r * signs[:, None])
    return validate_frame(q), UpperTriangularPositive.from_dense(r)

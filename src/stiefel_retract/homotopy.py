"""Straight-line homotopy from an injective map to its orthonormal frame.

For a map alpha with coefficient matrix M, the interpolant at time t is
(1 - t) * I + t * M, which keeps a strictly positive diagonal for every t in
[0, 1], so the deformed map alpha @ interpolant stays injective along the
whole path. At t = 0 the path starts at alpha (returned bit-identically) and
at t = 1 it lands on the Gram-Schmidt frame.

Since alpha @ M = Q, the point at time t is (1 - t) * alpha + t * Q, and with
R = M^-1 it equals Q @ ((1 - t) * R + t * I): a thin QR factorization whose
d x d triangle has diagonal (1 - t) * r_ii + t > 0. The point's singular
values are that triangle's, so every point is certified with a d x d SVD
rather than an m x d one. ``homotopy_step`` (and ``check_equivariance``)
form the point from the input and the sweep's frame and R, so t = 1 is the
frame bit for bit and no interpolant is multiplied out. ``trace_path``
forms its samples from one product alpha @ M, which is also its t = 1 point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL_ORTHO,
    DEFAULT_TOL_RANK,
    GUARANTEE_CONDITION,
    InjectiveMap,
    UpperTriangularPositive,
    _triangle_layout,
    as_matrix,
    include_frame,
    orthonormality_defect,
    tri_solve_inverse,
    validate_injective,
)
from .errors import (
    DomainError,
    InternalRankLossError,
    NonFiniteError,
    RankDeficientError,
    ZeroVectorError,
)
from .gram_schmidt import GramSchmidtResult, coefficient_matrix, orthonormalize
from .matio import matrix_to_object


@dataclass(frozen=True)
class PathSample:
    t: float
    point: InjectiveMap
    min_interpolant_diag: float
    ortho_defect: float


@dataclass(frozen=True)
class HomotopyPath:
    """Samples of the homotopy, each carrying rank and orthogonality
    diagnostics so downstream tools need not recompute them."""

    source: InjectiveMap
    samples: tuple[PathSample, ...]


def _check_unit_interval(t: float) -> float:
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t!r}")
    return t


def _interpolate(coeff: UpperTriangularPositive, t: float) -> UpperTriangularPositive:
    packed = t * coeff.packed
    _, _, diag = _triangle_layout(coeff.dim)
    packed[diag] += 1.0 - t
    return UpperTriangularPositive(dim=coeff.dim, packed=packed)


def interpolant(
    alpha: InjectiveMap, t: float, tol_rank: float = DEFAULT_TOL_RANK
) -> UpperTriangularPositive:
    """The triangular interpolant (1 - t) * I + t * coefficient_matrix(alpha).

    Its diagonal entries (1 - t) + t * lambda_ii stay strictly positive for
    every t in [0, 1]. Raises ``DomainError`` for t outside the interval.
    """
    t = _check_unit_interval(t)
    return _interpolate(coefficient_matrix(alpha, tol_rank), t)


def _certify(moved, r: np.ndarray, t: float, tol_rank: float) -> InjectiveMap:
    """Validate ``moved`` = Q @ ((1 - t) * r + t * I) as a homotopy point.

    Its rank certificate and condition estimate come from the d x d triangle;
    a failure raises ``InternalRankLossError`` naming t.
    """
    try:
        matrix = as_matrix(moved)
        certificate = validate_injective(
            (1.0 - t) * r + t * np.eye(r.shape[0]), tol_rank
        )
    except (RankDeficientError, NonFiniteError) as exc:
        raise InternalRankLossError(
            f"homotopy point at t={t:g} failed revalidation: {exc}"
        ) from exc
    return InjectiveMap(matrix=matrix, condition_estimate=certificate.condition_estimate)


def _step(
    alpha: InjectiveMap, res: GramSchmidtResult, t: float, tol_rank: float
) -> InjectiveMap:
    """The point (1 - t) * alpha + t * Q from ``alpha``'s orthonormalization."""
    if t == 0.0:
        # Returning the input object keeps the t = 0 endpoint exact instead
        # of tolerance-based.
        return alpha
    if t == 1.0:
        # The certificate would be the SVD of the identity, which cannot fail.
        return include_frame(res.frame)
    moved = (1.0 - t) * alpha.matrix + t * res.frame.matrix
    return _certify(moved, res.triangular_factor.to_dense(), t, tol_rank)


def homotopy_step(
    alpha: InjectiveMap, t: float, tol_rank: float = DEFAULT_TOL_RANK
) -> InjectiveMap:
    """Deform ``alpha`` along the straight-line homotopy to time ``t``.

    t = 0 returns ``alpha`` itself and t = 1 the Gram-Schmidt frame, bit for
    bit, with condition estimate exactly 1. Other points are
    (1 - t) * alpha + t * frame, certified through the d x d triangle
    (1 - t) * R + t * I; failure raises ``InternalRankLossError`` (not
    expected for condition estimates within the guaranteed regime).
    """
    t = _check_unit_interval(t)
    if t == 0.0:
        return alpha
    return _step(alpha, orthonormalize(alpha, tol_rank), t, tol_rank)


def sphere_interpolant(v, t: float, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
    """Closed form of the homotopy for a single column: scale ``v`` by
    t * (1 - |v|) / |v| + 1.

    At t = 1 this is the normalization map onto the unit sphere. Raises
    ``ZeroVectorError`` when the norm is at or below ``tol_rank``.
    """
    t = _check_unit_interval(t)
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.size == 0:
        raise DomainError("vector must be nonempty")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteError("vector contains NaN or infinite entries")
    nrm = float(np.linalg.norm(vec))
    if nrm <= tol_rank:
        raise ZeroVectorError(f"vector norm {nrm:.3e} is at or below tol_rank")
    return (t * ((1.0 - nrm) / nrm) + 1.0) * vec


def trace_path(
    alpha: InjectiveMap, n: int, tol_rank: float = DEFAULT_TOL_RANK
) -> HomotopyPath:
    """Sample the homotopy at n uniform times t_k = k / (n - 1).

    The coefficient matrix M, the endpoint alpha @ M and R = M^-1 are
    computed once. Each sample is the straight-line point
    (1 - t) * alpha + t * (alpha @ M), which equals Q @ ((1 - t) * R + t * I);
    its rank is certified, and its condition estimate taken, from that d x d
    triangle. Each sample records the minimum interpolant diagonal and the
    orthogonality defect of the point. For sources within the guaranteed
    condition regime the defect at t = 1 must meet the 1e-10 orthogonality
    tolerance; beyond that regime it is reported as a diagnostic only.
    """
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    coeff = coefficient_matrix(alpha, tol_rank)
    diag = coeff.diagonal()
    end = alpha.matrix @ coeff.to_dense()
    try:
        r = tri_solve_inverse(coeff).to_dense()
    except NonFiniteError as exc:
        raise InternalRankLossError(
            f"triangular factor R = M^-1 failed revalidation: {exc}"
        ) from exc
    samples = []
    for k in range(n):
        t = k / (n - 1)
        if k == 0:
            # Returning the input object keeps the t = 0 endpoint exact.
            point = alpha
        else:
            # The t = 1 sample is alpha @ M itself, bit for bit.
            moved = end if k == n - 1 else (1.0 - t) * alpha.matrix + t * end
            point = _certify(moved, r, t, tol_rank)
        samples.append(
            PathSample(
                t=t,
                point=point,
                min_interpolant_diag=float(np.min((1.0 - t) + t * diag)),
                ortho_defect=orthonormality_defect(point.matrix),
            )
        )
    if (
        alpha.condition_estimate <= GUARANTEE_CONDITION
        and samples[-1].ortho_defect > DEFAULT_TOL_ORTHO
    ):
        raise InternalRankLossError(
            f"endpoint orthogonality defect {samples[-1].ortho_defect:.3e} "
            f"exceeds tol_ortho={DEFAULT_TOL_ORTHO:g} despite condition estimate "
            f"{alpha.condition_estimate:.3e}"
        )
    return HomotopyPath(source=alpha, samples=tuple(samples))


def path_to_csv(path: HomotopyPath) -> str:
    """CSV rows: t, the point entries in row-major order, min diagonal and
    orthogonality defect, under a self-describing header."""
    m, d = path.source.shape
    header = (
        ["t"]
        + [f"entry_{i}_{j}" for i in range(m) for j in range(d)]
        + ["min_diag", "ortho_defect"]
    )
    lines = [",".join(header)]
    for s in path.samples:
        values = [
            float(s.t),
            *s.point.matrix.reshape(-1, order="C").tolist(),
            float(s.min_interpolant_diag),
            float(s.ortho_defect),
        ]
        lines.append(",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


def path_to_json_obj(path: HomotopyPath) -> list[dict]:
    """JSON-ready array equivalent to the CSV: one object per sample with the
    point in the shared matrix format."""
    return [
        {
            "t": float(s.t),
            "point": matrix_to_object(s.point.matrix),
            "min_diag": float(s.min_interpolant_diag),
            "ortho_defect": float(s.ortho_defect),
        }
        for s in path.samples
    ]

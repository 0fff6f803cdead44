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
frame bit for bit and no interpolant is multiplied out; ``homotopy_step``
forms no M at all. ``trace_path`` forms its samples from one product
alpha @ M, which is also its t = 1 point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL_ORTHO,
    DEFAULT_TOL_RANK,
    GUARANTEE_CONDITION,
    InjectiveMap,
    StiefelFrame,
    UpperTriangularPositive,
    as_matrix,
    include_frame,
    max_abs,
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
from .gram_schmidt import _factor, coefficient_matrix
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
    return UpperTriangularPositive.from_dense(
        (1.0 - t) * np.eye(coeff.dim) + t * coeff.to_dense()
    )


def interpolant(alpha: InjectiveMap, t: float) -> UpperTriangularPositive:
    """The triangular interpolant (1 - t) * I + t * coefficient_matrix(alpha).

    Its diagonal entries (1 - t) + t * lambda_ii stay strictly positive for
    every t in [0, 1]. Raises ``DomainError`` for t outside the interval.
    """
    t = _check_unit_interval(t)
    return _interpolate(coefficient_matrix(alpha), t)


def _certify(moved, r: np.ndarray, t: float) -> InjectiveMap:
    """Validate ``moved`` = Q @ ((1 - t) * r + t * I) as a homotopy point.

    Its rank certificate and condition estimate come from the d x d triangle;
    a failure raises ``InternalRankLossError`` naming t.
    """
    try:
        matrix = as_matrix(moved)
        certificate = validate_injective((1.0 - t) * r + t * np.eye(r.shape[0]))
    except (RankDeficientError, NonFiniteError) as exc:
        raise InternalRankLossError(
            f"homotopy point at t={t:g} failed revalidation: {exc}"
        ) from exc
    return InjectiveMap(matrix=matrix, condition_estimate=certificate.condition_estimate)


def _step(
    alpha: InjectiveMap, frame: StiefelFrame, r: np.ndarray, t: float
) -> InjectiveMap:
    """The point (1 - t) * alpha + t * Q from ``alpha``'s frame Q and dense
    triangular factor R."""
    if t == 0.0:
        # Returning the input object keeps the t = 0 endpoint exact instead
        # of tolerance-based.
        return alpha
    if t == 1.0:
        # The certificate would be the SVD of the identity, which cannot fail.
        return include_frame(frame)
    moved = (1.0 - t) * alpha.matrix + t * frame.matrix
    return _certify(moved, r, t)


def homotopy_step(alpha: InjectiveMap, t: float) -> InjectiveMap:
    """Deform ``alpha`` along the straight-line homotopy to time ``t``.

    t = 0 returns ``alpha`` itself and t = 1 the Gram-Schmidt frame, bit for
    bit, with condition estimate exactly 1. Other points are
    (1 - t) * alpha + t * frame, certified through the d x d triangle
    (1 - t) * R + t * I; failure raises ``InternalRankLossError`` (not
    expected for condition estimates within the guaranteed regime). Only Q
    and R are computed, so the domain is :func:`retract`'s: columns whose
    coefficients would lie outside the float range are fine.
    """
    t = _check_unit_interval(t)
    if t == 0.0:
        return alpha
    return _step(alpha, *_factor(alpha), t)


def sphere_interpolant(v, t: float) -> np.ndarray:
    """Closed form of the homotopy for a single column: scale ``v`` by
    (1 - t) + t / |v|.

    At t = 1 this is the normalization map onto the unit sphere. Raises
    ``ZeroVectorError`` when the norm is at or below ``DEFAULT_TOL_RANK``.
    The norm is taken after one exact power-of-two scaling, so every finite
    ``v`` is accepted without overflow.
    """
    t = _check_unit_interval(t)
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.size == 0:
        raise DomainError("vector must be nonempty")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteError("vector contains NaN or infinite entries")
    # |v| = s * 2^e with s in [0.5, sqrt(size)). The factor
    # (1 - t) + t / |v| is formed with t / |v| = 2^-e * (t / s), so nothing
    # cancels near t = 1 at any scale, and (1 - t) + t == 1 keeps unit
    # vectors fixed.
    _, e = math.frexp(max_abs(vec))
    s = float(np.linalg.norm(np.ldexp(vec, -e)))
    with np.errstate(over="ignore"):
        nrm = float(np.ldexp(s, e))
    if nrm <= DEFAULT_TOL_RANK:
        raise ZeroVectorError(f"vector norm {nrm:.3e} is at or below tol_rank")
    return ((1.0 - t) + math.ldexp(t / s, -e)) * vec


def trace_path(alpha: InjectiveMap, n: int) -> HomotopyPath:
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
    coeff = coefficient_matrix(alpha)
    diag = coeff.diagonal()
    dense = coeff.to_dense()
    end = alpha.matrix @ dense
    try:
        r = tri_solve_inverse(dense).to_dense()
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
            point = _certify(moved, r, t)
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

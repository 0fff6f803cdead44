"""Straight-line homotopy from an injective map to its orthonormal frame.

For a map alpha with coefficient matrix M, the interpolant at time t is
(1 - t) * I + t * M, which keeps a strictly positive diagonal for every t in
[0, 1], so the deformed map alpha @ interpolant stays injective along the
whole path. At t = 0 the path starts at alpha (returned bit-identically) and
at t = 1 it lands on the Gram-Schmidt frame.

Since alpha @ M = Q, the point at time t is (1 - t) * alpha + t * Q, and with
R = M^-1 it equals Q @ ((1 - t) * R + t * I): a thin QR factorization whose
d x d triangle has diagonal (1 - t) * r_ii + t > 0. The point's singular
values are that triangle's, so points are certified with d x d SVDs rather
than m x d ones. One step rule, ``_step``, forms every point from an
endpoint, R and a sequence of times; the points in between are one stack,
certified by one batched SVD of their triangles. ``homotopy_step``,
``trace_path`` and ``check_equivariance`` all pass the sweep's frame and R,
so every t = 1 point is the frame bit for bit; none of them forms M, whose
diagonal is 1 / diag(R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InjectiveMap,
    UpperTriangularPositive,
    as_integer,
    as_real_array,
    as_real_scalar,
    condition_estimates,
    include_frame,
    max_abs,
    orthonormality_defect,
    validate_injective,
)
from .errors import (
    DomainError,
    InternalRankLossError,
    NonFiniteError,
    NumericalRankLossError,
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
    value = as_real_scalar(t, "t")
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t!r}")
    return value


def _interpolate(coeff: UpperTriangularPositive, t: float) -> UpperTriangularPositive:
    return UpperTriangularPositive.from_dense(
        (1.0 - t) * np.eye(len(coeff.matrix)) + t * coeff.matrix
    )


def interpolant(alpha: InjectiveMap, t: float) -> UpperTriangularPositive:
    """The triangular interpolant (1 - t) * I + t * coefficient_matrix(alpha).

    Its diagonal entries (1 - t) + t * lambda_ii stay strictly positive for
    every t in [0, 1]. Raises ``DomainError`` for t outside the interval.
    """
    t = _check_unit_interval(t)
    return _interpolate(coefficient_matrix(alpha), t)


def _certificates(inner, triangles: np.ndarray) -> list[float]:
    """Condition estimates of the homotopy points at the times ``inner``, from
    one call of the rank rule on the stack of their triangles.

    The points need no check of their own: each is (1 - t) * alpha + t * Q
    with alpha validated and Q a frame, so it is finite. A failure raises
    ``InternalRankLossError`` naming the smallest failing t (``inner`` is
    ascending), with the error that its triangle gives on its own.
    """
    try:
        if not np.isfinite(triangles).all():
            raise NonFiniteError("a homotopy triangle is not finite")
        return condition_estimates(triangles)
    except (RankDeficientError, NonFiniteError):
        # Revalidating t by t finds the first failure.
        for t, triangle in zip(inner, triangles):
            try:
                validate_injective(triangle)
            except (RankDeficientError, NonFiniteError) as exc:
                raise InternalRankLossError(
                    f"homotopy point at t={t:g} failed revalidation: {exc}"
                ) from exc
        raise


def _step(alpha: InjectiveMap, end: InjectiveMap, r: np.ndarray, ts):
    """The homotopy points (1 - t) * alpha + t * end for the times ``ts``,
    ascending without repeats in [0, 1], where ``end`` is alpha's frame Q and
    ``r`` the dense R of alpha = Q @ R.

    Returns the points in the order of ``ts``, and the stack of the d x d
    triangles (1 - t) * R + t * I of the times strictly inside (0, 1). Both
    endpoints are returned as they are. The points in between are read-only
    views into one stack, however many there are. Each equals
    Q @ ((1 - t) * R + t * I), so its triangle certifies it (rank and
    condition estimate), and one batched SVD of the triangles certifies them
    all. A failure raises ``InternalRankLossError`` naming the smallest
    failing t.
    """
    inner = [t for t in ts if 0.0 < t < 1.0]
    m, d = alpha.shape
    # Each point is an F-contiguous (m, d) view into one stack. Filling
    # the points t by t keeps the temporaries point-sized.
    stack = np.empty((len(inner), d, m)).transpose(0, 2, 1)
    triangles = np.empty((len(inner), d, d))
    eye = np.eye(d)
    for point, triangle, t in zip(stack, triangles, inner):
        np.multiply(1.0 - t, alpha.matrix, out=point)
        point += t * end.matrix
        np.multiply(1.0 - t, r, out=triangle)
        triangle += t * eye
    conditions = _certificates(inner, triangles) if inner else []
    stack.setflags(write=False)
    points = [
        InjectiveMap(matrix=point, condition_estimate=condition)
        for point, condition in zip(stack, conditions)
    ]
    return [alpha] * (ts[0] == 0.0) + points + [end] * (ts[-1] == 1.0), triangles


def homotopy_step(alpha: InjectiveMap, t: float) -> InjectiveMap:
    """Deform ``alpha`` along the straight-line homotopy to time ``t``.

    t = 0 returns ``alpha`` itself and t = 1 the Gram-Schmidt frame, bit for
    bit, with condition estimate exactly 1. Other points are
    (1 - t) * alpha + t * frame, certified through the d x d triangle
    (1 - t) * R + t * I; failure raises ``InternalRankLossError`` (not
    expected for condition estimates within the guaranteed regime), as does
    an R outside the float range. Only Q and R are computed, so columns whose
    coefficients would lie outside the float range are fine.
    """
    t = _check_unit_interval(t)
    if t == 0.0:
        return alpha
    frame, r = _factor(alpha)
    return _step(alpha, include_frame(frame), r, (t,))[0][0]


def sphere_interpolant(v, t: float) -> np.ndarray:
    """Closed form of the homotopy for a single column: scale ``v`` by
    (1 - t) + t / |v|.

    At t = 1 this is the normalization map onto the unit sphere. Every
    nonzero finite ``v`` is accepted, at any scale and without overflow;
    ``ZeroVectorError`` is raised for the zero vector.
    """
    t = _check_unit_interval(t)
    vec = as_real_array(v).reshape(-1)
    if vec.size == 0:
        raise DomainError("vector must be nonempty")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteError("vector contains NaN or infinite entries")
    if not vec.any():
        raise ZeroVectorError("vector is zero")
    # With the exact w = v * 2^-k, max|w| in [1, 2), the point is
    # w * ((1 - t) * 2^k + t / |w|): nothing cancels near t = 1 or overflows
    # at any scale, and (1 - t) + t == 1 keeps unit vectors fixed.
    k = math.frexp(max_abs(vec))[1] - 1
    w = np.ldexp(vec, -k)
    return (math.ldexp(1.0 - t, k) + t / float(np.linalg.norm(w))) * w


def trace_path(alpha: InjectiveMap, n: int) -> HomotopyPath:
    """Sample the homotopy at n uniform times t_k = k / (n - 1).

    The sweep runs once, and one call of the step forms every sample
    (1 - t) * alpha + t * Q from its frame Q and triangle R, certifying the
    interior ones together through their triangles (1 - t) * R + t * I. The
    endpoint is the frame of :func:`retract` bit for bit. Each sample records
    the least interpolant diagonal entry, (1 - t) + t / max(diag(R)), and an
    orthogonality defect: of the point at t = 0 and t = 1, and of its triangle
    in between (the point's, in exact arithmetic). ``NumericalRankLossError``
    is raised where the sweep fails, R overflows or 1 / max(diag(R)) does.
    """
    n = as_integer(n, "n")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    frame, r = _factor(alpha)
    # M's least diagonal entry, bit for bit: M_ii = 1 / r_ii and rounding is monotone.
    low = 1.0 / float(r.diagonal().max())
    if not (low < math.inf and np.isfinite(r).all()):
        raise NumericalRankLossError(
            "R or the diagonal of M = R^-1 lies outside the float range"
        )
    ts = [k / (n - 1) for k in range(n)]
    points, triangles = _step(alpha, include_frame(frame), r, ts)
    defects = [
        orthonormality_defect(alpha.matrix),
        *orthonormality_defect(triangles).tolist(),
        orthonormality_defect(frame.matrix),
    ]
    samples = [
        PathSample(t=t, point=p, min_interpolant_diag=(1.0 - t) + t * low, ortho_defect=e)
        for t, p, e in zip(ts, points, defects)
    ]
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

"""Straight-line homotopy from an injective map to its orthonormal frame.

For a map alpha with coefficient matrix M, the interpolant at time t is
(1 - t) * I + t * M, which keeps a strictly positive diagonal for every t in
[0, 1], so the deformed map alpha @ interpolant stays injective along the
whole path. At t = 0 the path starts at alpha (returned bit-identically) and
at t = 1 it lands on the Gram-Schmidt frame.

Since alpha @ M = Q, the point at time t is (1 - t) * alpha + t * Q, and with
R = M^-1 it equals Q @ ((1 - t) * R + t * I): a thin QR factorization whose
d x d triangle has diagonal (1 - t) * r_ii + t > 0. The point's singular
values are that triangle's, so points are certified from d x d triangles
rather than m x d points. One step rule, ``_step``, forms every point from
an endpoint, R and a sequence of times; the points in between are one stack,
certified by one eigenvalue bound on R, sigma_min >= t + (1 - t) *
lambda_min((R + R^T) / 2), and one batched SVD of the triangles it misses.
``homotopy_step``, ``trace_path`` and ``check_equivariance`` all pass the
sweep's frame and R, so every t = 1 point is the frame bit for bit; none of
them forms M, whose diagonal is 1 / diag(R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    MAX_ENTRIES,
    InjectiveMap,
    UpperTriangularPositive,
    as_integer,
    as_real_array,
    as_real_scalar,
    condition_estimates,
    include_frame,
    max_abs,
    orthonormality_defect,
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
from .matio import format_matrix_csv, matrix_to_object


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


def interpolant(alpha: InjectiveMap, t: float) -> UpperTriangularPositive:
    """The triangular interpolant (1 - t) * I + t * coefficient_matrix(alpha).

    Its diagonal entries (1 - t) + t * lambda_ii stay strictly positive for
    every t in [0, 1]. Raises ``DomainError`` for t outside the interval.
    """
    t = _check_unit_interval(t)
    coeff = coefficient_matrix(alpha).matrix
    return UpperTriangularPositive.from_dense((1.0 - t) * np.eye(len(coeff)) + t * coeff)


def _sigma_bounds(r: np.ndarray, times: np.ndarray):
    """Bounds on the least and largest singular values of the triangles
    T = (1 - t) * R + t * I of ``times``, from one eigensolve:
    sigma_min(T) >= t + (1 - t) * nu, nu = lambda_min((R + R^T) / 2) (Horn
    and Johnson, Topics in Matrix Analysis, ch. 1), and
    sigma_max(T) <= high = (1 - t) |R|_F + t.

    The lower bound loses 8 d eps * high. By Weyl's inequality that covers
    the rounding of (R + R^T) / 2 (eps |R|_F) and of T
    (3 eps (1 - t) |R|_F + eps t), the eigensolver's backward error
    (LAPACK's p(d) eps |R|_2, p modest) and the SVD's, so the bound stays
    below the sigma_min that ``condition_estimates`` computes. A norm past
    the float range (max|R| above about 1e154) makes the lower bound -inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nu = np.linalg.eigvalsh(0.5 * r + 0.5 * r.T)[0]
        high = (1.0 - times) * np.linalg.norm(r) + times
        low = times + (1.0 - times) * nu - 8 * len(r) * np.finfo(float).eps * high
    return low, high


def _condition_at(r: np.ndarray, t: float) -> float:
    """The condition estimate of (1 - t) * R + t * I, with the stack's bits."""
    return condition_estimates(((1.0 - t) * r + t * np.eye(len(r)))[None])[0]


def _step(alpha: InjectiveMap, end: InjectiveMap, r: np.ndarray, ts):
    """The homotopy points (1 - t) * alpha + t * end for the times ``ts``,
    ascending without repeats in [0, 1], where ``end`` is alpha's frame Q and
    ``r`` the dense R of alpha = Q @ R.

    Returns the points in the order of ``ts``, and the stack of the d x d
    triangles (1 - t) * R + t * I of the times strictly inside (0, 1). Both
    endpoints are returned as they are. The points in between are read-only
    views into one stack, however many there are. Each is
    (1 - t) * alpha + t * Q, finite since alpha is validated and Q a frame,
    and equals Q @ ((1 - t) * R + t * I), so its triangle certifies it (rank
    and condition estimate). The triangles are finite exactly when R is, so
    R is checked once. Of two or more triangles, those whose
    :func:`_sigma_bounds` lie within eight decades are certified by them,
    and each such point computes its estimate from R and t when it is first
    read; the others, and a lone time, go through one batched SVD. A failure
    raises ``InternalRankLossError`` naming the smallest failing t (the
    first, for a non-finite R), with the error that its triangle gives on
    its own.
    """
    ts = np.asarray(ts)
    times = ts[(0.0 < ts) & (ts < 1.0)]
    m, d = alpha.shape
    # Each point is an F-contiguous (m, d) view into one stack. The stack
    # comes before any per-time Python object, so a count that does not fit
    # fails at once. Filling the points t by t keeps the temporaries
    # point-sized.
    stack = np.empty((len(times), d, m)).transpose(0, 2, 1)
    inner = times.tolist()
    for point, t in zip(stack, inner):
        np.multiply(1.0 - t, alpha.matrix, out=point)
        point += t * end.matrix
    column = times.reshape(-1, 1, 1)
    triangles = (1.0 - column) * r + column * np.eye(d)
    late = range(len(inner))
    try:
        if inner and not np.isfinite(r).all():
            raise NonFiniteError("matrix contains NaN or infinite entries")
        if len(inner) > 1:
            # Two decades above the rank rule: what passes, the SVD would pass.
            low, high = _sigma_bounds(r, times)
            late = [k for k, ok in enumerate((low > 1e-8 * high).tolist()) if not ok]
        checked = triangles if len(late) == len(inner) else triangles[late]
        known = dict(zip(late, condition_estimates(checked) if late else ()))
    except (RankDeficientError, NonFiniteError) as exc:
        t = inner[late[getattr(exc, "index", 0)]]
        raise InternalRankLossError(
            f"homotopy point at t={t:g} failed revalidation: {exc}"
        ) from exc
    stack.setflags(write=False)
    points = [
        InjectiveMap(matrix=point, condition_estimate=known[k])
        if k in known
        else InjectiveMap.lazy(point, partial(_condition_at, r, t))
        for k, (point, t) in enumerate(zip(stack, inner))
    ]
    return [alpha] * bool(ts[0] == 0.0) + points + [end] * bool(ts[-1] == 1.0), triangles


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
    is raised where the sweep fails, R overflows or 1 / max(diag(R)) does,
    and ``DomainError`` before anything is built when n samples would hold
    more than ``MAX_ENTRIES`` entries.
    """
    n = as_integer(n, "n")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    if n * alpha.matrix.size > MAX_ENTRIES:
        raise DomainError(f"{n} samples of {alpha.matrix.size} entries hold more than {MAX_ENTRIES}")
    frame, r = _factor(alpha)
    # M's least diagonal entry, bit for bit: M_ii = 1 / r_ii and rounding is monotone.
    low = 1.0 / float(r.diagonal().max())
    if not (low < math.inf and np.isfinite(r).all()):
        raise NumericalRankLossError(
            "R or the diagonal of M = R^-1 lies outside the float range"
        )
    # k / (n - 1) bit for bit, as one array: a count that does not fit in
    # memory fails here or at the step's stack, before any per-sample object.
    times = np.arange(n) / (n - 1)
    points, triangles = _step(alpha, include_frame(frame), r, times)
    ts = times.tolist()
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
    table = np.array(
        [
            np.hstack((s.t, s.point.matrix.reshape(-1), s.min_interpolant_diag, s.ortho_defect))
            for s in path.samples
        ]
    )
    return ",".join(header) + "\n" + format_matrix_csv(table)


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

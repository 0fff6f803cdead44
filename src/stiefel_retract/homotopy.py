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
certified by one batched Cholesky of their shifted Gram matrices and one
batched SVD of the triangles that it misses. ``homotopy_step``,
``trace_path`` and ``check_equivariance`` all pass the sweep's frame and R,
so every t = 1 point is the frame bit for bit; none of them forms M, whose
diagonal is 1 / diag(R).
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
    gram,
    gram_defects,
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


def _certified(grams: np.ndarray) -> np.ndarray:
    """Which Gram matrices G = T^T T of a stack certify their triangles T:
    those whose shifted G - s I, s = (1e-16 + 3 (d + 1) eps) tr G, Cholesky
    factors without a NaN or inf (OpenBLAS passes a NaN pivot), in one
    batched call or, if it raises, one call each.

    Such a T has sigma_min^2 = lambda_min(G) > 1e-16 tr G >= 1e-16
    sigma_max^2, two decades above the rank rule. By Weyl's inequality, to
    first order in eps tr G: the computed Gram, in whichever triangle
    Cholesky reads, is within d eps tr G of G in 2-norm (gamma_d |T^T| |T|);
    subtracting s rounds the diagonal by eps tr G; and a Cholesky that
    completes factors its input up to (d + 1) eps tr G (Demmel 1989; Rump,
    BIT 46, 2006: gamma_(d+1) |L| |L^T|, of trace at most tr G / (1 -
    gamma_(d+1))). The last (d + 1) eps tr G of s covers the rounding of
    tr G and s, and underflow: the callers' times give tr G >= d t^2 >=
    d / MAX_ENTRIES^2. An overflowing tr G (max|R| above about 1e154) makes
    s infinite and the factor not finite.
    """
    n, d = len(grams), grams.shape[-1]
    shifted = grams.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        s = (1e-16 + 3 * (d + 1) * np.finfo(float).eps) * np.trace(grams, axis1=1, axis2=2)
        shifted.reshape(n, d * d)[:, :: d + 1] -= s[:, None]
    try:
        return np.isfinite(np.linalg.cholesky(shifted)).all(axis=(1, 2))
    except np.linalg.LinAlgError:
        return np.array([n > 1 and _certified(g[None])[0] for g in grams], dtype=bool)


def _condition_at(r: np.ndarray, t: float) -> float:
    """The condition estimate of (1 - t) * R + t * I, with the stack's bits."""
    return condition_estimates(((1.0 - t) * r + t * np.eye(len(r)))[None])[0]


def _step(alpha: InjectiveMap, end: InjectiveMap, r: np.ndarray, ts):
    """The homotopy points (1 - t) * alpha + t * end for the times ``ts``,
    ascending without repeats in [0, 1], where ``end`` is alpha's frame Q and
    ``r`` the dense R of alpha = Q @ R.

    Returns the points in the order of ``ts``, the stack of the d x d
    triangles (1 - t) * R + t * I of the times strictly inside (0, 1), and
    for two or more times the stack of their Gram matrices T^T T, else None.
    Both endpoints are returned as they are, the points in between as
    read-only views into one stack. Such a point (1 - t) * alpha + t * Q is
    finite and equals Q @ ((1 - t) * R + t * I), so its triangle certifies
    it (rank and condition estimate). The triangles are finite exactly when
    R is, so when there are any, a non-finite R raises
    ``NumericalRankLossError`` at once. Those that :func:`_certified` passes
    are certified, and each such point computes its estimate from R and t
    when it is first read; the others, and a lone time, go through one
    batched SVD. A failure raises ``InternalRankLossError`` naming the
    smallest failing t, with the error that its triangle gives on its own.
    """
    ts = np.asarray(ts)
    times = ts[(0.0 < ts) & (ts < 1.0)]
    if times.size and not np.isfinite(r).all():
        raise NumericalRankLossError("triangular factor R lies outside the float range")
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
    late, grams = range(len(inner)), None
    if len(ts) > 1:
        grams = gram(triangles)
        if inner:
            late = np.flatnonzero(~_certified(grams)).tolist()
    try:
        checked = triangles if len(late) == len(inner) else triangles[late]
        known = dict(zip(late, condition_estimates(checked) if late else ()))
    except RankDeficientError as exc:
        t = inner[late[exc.index]]
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
    return [alpha] * bool(ts[0] == 0.0) + points + [end] * bool(ts[-1] == 1.0), triangles, grams


def homotopy_step(alpha: InjectiveMap, t: float) -> InjectiveMap:
    """Deform ``alpha`` along the straight-line homotopy to time ``t``.

    t = 0 returns ``alpha`` itself and t = 1 the Gram-Schmidt frame, bit for
    bit, with condition estimate exactly 1. Other points are
    (1 - t) * alpha + t * frame, certified by one SVD (no Gram) of the d x d
    triangle (1 - t) * R + t * I; failure raises ``InternalRankLossError``
    (not expected for condition estimates within the guaranteed regime), and
    an R outside the float range ``NumericalRankLossError``. Only Q and R are
    computed, so columns whose coefficients may lie outside it are fine.
    """
    t = _check_unit_interval(t)
    if t == 0.0:
        return alpha
    frame, r, _ = _factor(alpha)
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
    in between (the point's, in exact arithmetic), from the step's Gram stack.
    ``NumericalRankLossError`` is raised where the sweep fails, diag(R) or
    1 / max(diag(R)) leaves the float range or, for n > 2, R does; and
    ``DomainError`` before anything is built when n samples would hold more
    than ``MAX_ENTRIES`` entries. Inside, the path can be far worse
    conditioned than alpha: with R = (I - aN)^-1, N the upper shift, at
    condition 9e5 its estimates reach about 270 times alpha's (2.5e8 at
    d = 10). Past the 1e6 guarantee an accepted input can fail the rank rule
    inside, which raises ``InternalRankLossError`` (d = 3, a = 1000:
    condition 1.0e9, and 1.5e11 at t = 1/3).
    """
    n = as_integer(n, "n")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    if n * alpha.matrix.size > MAX_ENTRIES:
        raise DomainError(f"{n} samples of {alpha.matrix.size} entries hold more than {MAX_ENTRIES}")
    frame, r, end_defect = _factor(alpha)
    # M's least diagonal entry, bit for bit: M_ii = 1 / r_ii and rounding is monotone.
    low = 1.0 / float(r.diagonal().max())
    if not 0.0 < low < math.inf:
        raise NumericalRankLossError("diagonal of R or of M = R^-1 lies outside the float range")
    # k / (n - 1) bit for bit, as one array: a count that does not fit in
    # memory fails here or at the step's stack, before any per-sample object.
    times = np.arange(n) / (n - 1)
    points, _, grams = _step(alpha, include_frame(frame), r, times)
    defects = [
        orthonormality_defect(alpha.matrix),
        *gram_defects(grams).tolist(),
        end_defect,
    ]
    samples = [
        PathSample(t=t, point=p, min_interpolant_diag=(1.0 - t) + t * low, ortho_defect=e)
        for t, p, e in zip(times.tolist(), points, defects)
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

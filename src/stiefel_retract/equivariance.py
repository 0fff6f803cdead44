"""Left rotation action on injective maps and numerical equivariance checks.

Rotating the input commutes with the retraction (frames rotate along) while
the coefficient matrix and the triangular interpolant are invariant, so the
whole homotopy is equivariant. ``check_equivariance`` measures all three
defects on a concrete input/rotation pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL_ORTHO,
    DEFAULT_TOL_RANK,
    InjectiveMap,
    Rotation,
    StiefelFrame,
    max_abs,
    validate_frame,
    validate_injective,
    validate_rotation,
)
from .errors import DimensionError, DomainError
from .gram_schmidt import orthonormalize
from .homotopy import _step

DEFAULT_T_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class EquivarianceReport:
    frame_defect: float
    coefficient_defect: float
    homotopy_defects: tuple[tuple[float, float], ...]
    passed: bool


def random_rotation(m: int, seed: int) -> Rotation:
    """Haar-distributed rotation, deterministic given the seed.

    Mezzadri's recipe (Notices AMS 54, 2007): LAPACK's Householder QR of a
    seeded m x m Gaussian, with each column of Q multiplied by the sign of
    R's matching diagonal entry, so that R's diagonal is positive and Q is
    Haar on O(m); the last column is then negated if the determinant comes
    out -1. The rotation does not depend on this library's Gram-Schmidt
    sweep, which it is used to check.
    """
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    gauss = np.random.default_rng(seed).standard_normal((m, m))
    q, r = np.linalg.qr(gauss)
    q *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return validate_rotation(q)


def act(
    o: Rotation, alpha: InjectiveMap, tol_rank: float = DEFAULT_TOL_RANK
) -> InjectiveMap:
    """Left-multiply by the rotation and revalidate (full rank is preserved
    since rotations are invertible)."""
    if o.dim != alpha.matrix.shape[0]:
        raise DimensionError(
            f"rotation is {o.dim}x{o.dim} but map has {alpha.matrix.shape[0]} rows"
        )
    return validate_injective(o.matrix @ alpha.matrix, tol_rank)


def act_on_frame(
    o: Rotation, frame: StiefelFrame, tol_ortho: float = DEFAULT_TOL_ORTHO
) -> StiefelFrame:
    """Left-multiply a frame by a rotation; the result is again a frame."""
    if o.dim != frame.matrix.shape[0]:
        raise DimensionError(
            f"rotation is {o.dim}x{o.dim} but frame has {frame.matrix.shape[0]} rows"
        )
    return validate_frame(o.matrix @ frame.matrix, tol_ortho)


def check_equivariance(
    alpha: InjectiveMap,
    o: Rotation,
    t_samples=DEFAULT_T_SAMPLES,
    tolerance: float = 1e-9,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> EquivarianceReport:
    """Measure how far rotation and retraction are from commuting.

    frame defect: retract(o @ alpha) vs o @ retract(alpha);
    coefficient defect: the coefficient matrices of both (invariant);
    homotopy defects: the same comparison at each requested time.
    ``passed`` is true when every defect is at most ``tolerance``.
    """
    ts = [float(t) for t in t_samples]
    if not ts:
        raise DomainError("t_samples must be nonempty")
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"t_samples must lie in [0, 1], got {t!r}")
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    rotated = act(o, alpha, tol_rank)
    base = orthonormalize(alpha, tol_rank)
    moved = orthonormalize(rotated, tol_rank)
    frame_defect = max_abs(moved.frame.matrix - o.matrix @ base.frame.matrix)
    coefficient_defect = max_abs(
        moved.coefficient_matrix.packed - base.coefficient_matrix.packed
    )
    homotopy_defects = []
    for t in ts:
        left = _step(rotated, moved, t, tol_rank)
        right = _step(alpha, base, t, tol_rank)
        homotopy_defects.append(
            (t, max_abs(left.matrix - o.matrix @ right.matrix))
        )
    defects = [frame_defect, coefficient_defect] + [d for _, d in homotopy_defects]
    return EquivarianceReport(
        frame_defect=frame_defect,
        coefficient_defect=coefficient_defect,
        homotopy_defects=tuple(homotopy_defects),
        passed=all(d <= tolerance for d in defects),
    )


def report_to_json_obj(report: EquivarianceReport) -> dict:
    return {
        "frame_defect": report.frame_defect,
        "coefficient_defect": report.coefficient_defect,
        "homotopy_defects": [[t, d] for t, d in report.homotopy_defects],
        "passed": report.passed,
    }

"""Left rotation action on injective maps and numerical equivariance checks.

Rotating the input commutes with the retraction (frames rotate along) while
the coefficient matrix and the triangular interpolant are invariant, so the
whole homotopy is equivariant. ``check_equivariance`` measures all three
defects on a concrete input/rotation pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MAX_ENTRIES,
    InjectiveMap,
    Rotation,
    as_integer,
    as_matrix,
    as_real_scalar,
    include_frame,
    max_abs,
    validate_frame,
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
    seeded m x m Gaussian, each column of Q times the sign of R's matching
    diagonal entry, so that Q is Haar on O(m). One determinant then sets the
    sign, negating the last column if it is -1, and only the frame gate
    checks the result. The rotation does not depend on this library's
    Gram-Schmidt sweep, which it is used to check.
    """
    m, seed = as_integer(m, "m"), as_integer(seed, "seed")
    if m < 1 or seed < 0:
        raise DomainError(f"need a positive m and a nonnegative seed, got {m} and {seed}")
    if m * m > MAX_ENTRIES:
        raise DomainError(f"a {m}x{m} rotation has more than {MAX_ENTRIES} entries")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    q *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return Rotation(matrix=validate_frame(q).matrix)


def act(o: Rotation, alpha: InjectiveMap) -> InjectiveMap:
    """Left-multiply by the rotation. Rotations keep singular values, so the
    product keeps ``alpha``'s rank verdict and ``condition_estimate``."""
    if o.dim != alpha.matrix.shape[0]:
        raise DimensionError(
            f"rotation is {o.dim}x{o.dim} but map has {alpha.matrix.shape[0]} rows"
        )
    return replace(alpha, matrix=as_matrix(o.matrix @ alpha.matrix))


def check_equivariance(
    alpha: InjectiveMap, o: Rotation, tolerance: float = 1e-9
) -> EquivarianceReport:
    """Measure how far rotation and retraction are from commuting.

    frame defect: retract(o @ alpha) vs o @ retract(alpha);
    coefficient defect: the coefficient matrices of both (invariant);
    homotopy defects: the same comparison at each time of ``DEFAULT_T_SAMPLES``.
    The defects are absolute. ``passed`` judges each against the size of
    what it compares: the frame defect against ``tolerance``, the
    coefficient defect against ``tolerance * max(1, max|M|)`` with M the
    coefficient matrix of ``alpha``, and the defect at time t against
    ``tolerance * max(1, (1 - t) max|alpha| + t)``, which bounds the entries
    of the point (1 - t) alpha + t Q.
    """
    tolerance = as_real_scalar(tolerance, "tolerance")
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    ts = DEFAULT_T_SAMPLES
    # Factoring alpha first rejects an R past the float range before o @ alpha overflows.
    base = orthonormalize(alpha)
    rotated = act(o, alpha)
    moved = orthonormalize(rotated)
    frame_defect = max_abs(moved.frame.matrix - o.matrix @ base.frame.matrix)
    coefficient_defect = max_abs(
        moved.coefficient_matrix.matrix - base.coefficient_matrix.matrix
    )
    left = _step(rotated, include_frame(moved.frame), moved.triangular_factor.matrix, ts)[0]
    right = _step(alpha, include_frame(base.frame), base.triangular_factor.matrix, ts)[0]
    homotopy_defects = [
        (t, max_abs(p.matrix - o.matrix @ q.matrix)) for t, p, q in zip(ts, left, right)
    ]
    coeff_scale = max(1.0, max_abs(base.coefficient_matrix.matrix))
    input_scale = max_abs(alpha.matrix)
    passed = (
        frame_defect <= tolerance
        and coefficient_defect <= tolerance * coeff_scale
        and all(
            d <= tolerance * max(1.0, (1.0 - t) * input_scale + t)
            for t, d in homotopy_defects
        )
    )
    return EquivarianceReport(
        frame_defect=frame_defect,
        coefficient_defect=coefficient_defect,
        homotopy_defects=tuple(homotopy_defects),
        passed=passed,
    )


def report_to_json_obj(report: EquivarianceReport) -> dict:
    return {
        "frame_defect": report.frame_defect,
        "coefficient_defect": report.coefficient_defect,
        "homotopy_defects": [[t, d] for t, d in report.homotopy_defects],
        "passed": report.passed,
    }

"""Straight-line homotopy from an injective map to its orthonormal frame.

For a map alpha with coefficient matrix M, the interpolant at time t is
(1 - t) * I + t * M, which keeps a strictly positive diagonal for every t in
[0, 1], so the deformed map alpha @ interpolant stays injective along the
whole path. At t = 0 the path starts at alpha (returned bit-identically) and
at t = 1 it lands on the Gram-Schmidt frame.

Since alpha @ M = Q, the point at time t is (1 - t) * alpha + t * Q, and with
R = M^-1 it equals Q @ ((1 - t) * R + t * I): a thin QR factorization whose
d x d triangle has diagonal (1 - t) * r_ii + t > 0. The point's singular
values are that triangle's, so ``trace_path`` certifies the rank of every
sample with a d x d SVD rather than an m x d one.
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
from .gram_schmidt import coefficient_matrix
from .matio import matrix_from_object, matrix_to_object, MatrixFormatError


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


def _step(
    alpha: InjectiveMap,
    coeff: UpperTriangularPositive,
    t: float,
    tol_rank: float,
) -> InjectiveMap:
    if t == 0.0:
        # Returning the input object keeps the t = 0 endpoint exact instead
        # of tolerance-based.
        return alpha
    moved = alpha.matrix @ _interpolate(coeff, t).to_dense()
    try:
        return validate_injective(moved, tol_rank)
    except (RankDeficientError, NonFiniteError) as exc:
        raise InternalRankLossError(
            f"homotopy point at t={t:g} failed revalidation: {exc}"
        ) from exc


def homotopy_step(
    alpha: InjectiveMap, t: float, tol_rank: float = DEFAULT_TOL_RANK
) -> InjectiveMap:
    """Deform ``alpha`` along the straight-line homotopy to time ``t``.

    t = 0 returns ``alpha`` itself; t = 1 lands on the frame within the
    orthogonality tolerance. The result is revalidated; failure raises
    ``InternalRankLossError`` (not expected for condition estimates within
    the guaranteed regime).
    """
    t = _check_unit_interval(t)
    if t == 0.0:
        return alpha
    return _step(alpha, coefficient_matrix(alpha, tol_rank), t, tol_rank)


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
    eye = np.eye(alpha.shape[1])
    samples = []
    for k in range(n):
        t = k / (n - 1)
        if k == 0:
            # Returning the input object keeps the t = 0 endpoint exact.
            point = alpha
        else:
            # The t = 1 sample is alpha @ M itself, bit for bit.
            moved = end if k == n - 1 else (1.0 - t) * alpha.matrix + t * end
            try:
                matrix = as_matrix(moved)
                certificate = validate_injective((1.0 - t) * r + t * eye, tol_rank)
            except (RankDeficientError, NonFiniteError) as exc:
                raise InternalRankLossError(
                    f"homotopy point at t={t:g} failed revalidation: {exc}"
                ) from exc
            point = InjectiveMap(
                matrix=matrix, condition_estimate=certificate.condition_estimate
            )
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


def parse_path_csv(text: str) -> list[dict]:
    """Parse :func:`path_to_csv` output back into sample dicts with keys
    t, point (matrix), min_diag, ortho_defect."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise MatrixFormatError("path CSV needs a header and at least one row")
    header = lines[0].split(",")
    if header[0] != "t" or header[-2:] != ["min_diag", "ortho_defect"]:
        raise MatrixFormatError("unrecognized path CSV header")
    entry_names = header[1:-2]
    rows = cols = 0
    for name in entry_names:
        try:
            _, i, j = name.split("_")
            rows = max(rows, int(i) + 1)
            cols = max(cols, int(j) + 1)
        except ValueError as exc:
            raise MatrixFormatError(f"bad header field {name!r}") from exc
    if rows * cols != len(entry_names):
        raise MatrixFormatError("path CSV header does not cover a full matrix")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise MatrixFormatError(f"line {lineno}: ragged row")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: {exc}") from exc
        out.append(
            {
                "t": values[0],
                "point": np.array(values[1:-2]).reshape(rows, cols),
                "min_diag": values[-2],
                "ortho_defect": values[-1],
            }
        )
    return out


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


def parse_path_json_obj(obj) -> list[dict]:
    if not isinstance(obj, list) or not obj:
        raise MatrixFormatError("path JSON must be a nonempty array")
    out = []
    for item in obj:
        if not isinstance(item, dict):
            raise MatrixFormatError("path JSON entries must be objects")
        for key in ("t", "point", "min_diag", "ortho_defect"):
            if key not in item:
                raise MatrixFormatError(f"path JSON entry missing {key!r}")
        out.append(
            {
                "t": float(item["t"]),
                "point": matrix_from_object(item["point"]),
                "min_diag": float(item["min_diag"]),
                "ortho_defect": float(item["ortho_defect"]),
            }
        )
    return out

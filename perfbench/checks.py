"""Independent output checks, written against numpy alone.

Nothing here imports the package under test: every reference is recomputed
with LAPACK through numpy, so a defect in the package cannot hide itself by
also breaking the check. A failed check raises :class:`CheckFailed` carrying
an error class, which the run loop counts per class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

#: The package's documented orthonormality guarantee for frames from inputs
#: with condition estimate at most 1e6.
TOL_ORTHO = 1e-10

#: Agreement with the LAPACK frame may degrade like eps * condition; this
#: factor sits two orders of magnitude above the worst ratio seen on the
#: benchmark's inputs, so only a wrong frame, not roundoff, trips it.
FRAME_AGREEMENT_FACTOR = 1e3

#: Backward-error factor for reconstructions (Q @ R against A, homotopy points
#: against the straight line), relative to eps * max|A|.
RECONSTRUCTION_FACTOR = 1e3


class CheckFailed(Exception):
    """An output failed an independent check; ``kind`` names the check."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


@dataclass(frozen=True)
class Reference:
    """LAPACK-derived facts about one input matrix."""

    matrix: np.ndarray
    frame: np.ndarray
    condition: float


def reference(a: np.ndarray) -> Reference:
    """Sign-fixed Householder QR (positive diagonal of R) and the 2-norm
    condition number, both from numpy."""
    a = np.asarray(a, dtype=float)
    q, r = np.linalg.qr(a)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    sv = np.linalg.svd(a, compute_uv=False)
    return Reference(
        matrix=a,
        frame=q * signs,
        condition=float(sv[0] / sv[-1]),
    )


def orthonormality_defect(q: np.ndarray) -> float:
    q = np.asarray(q, dtype=float)
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))


#: Inputs at or above this condition number form the hard class over which
#: a workload's orthogonality margin is averaged.
ILL_CONDITION = 1e5


def margin_decades(defect: float) -> float:
    """``log10(TOL_ORTHO / defect)``, with the defect floored at machine
    epsilon so an exactly orthonormal frame gives a finite margin."""
    return math.log10(TOL_ORTHO / max(defect, EPS))


def _shape(x: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise CheckFailed("wrong_shape", f"{what} has shape {x.shape}, expected {shape}")
    if not np.all(np.isfinite(x)):
        raise CheckFailed("non_finite", what)
    return x


def _frame_tolerance(ref: Reference) -> float:
    return FRAME_AGREEMENT_FACTOR * EPS * max(1.0, ref.condition)


def _reconstruction_tolerance(ref: Reference) -> float:
    return RECONSTRUCTION_FACTOR * EPS * max(1.0, float(np.max(np.abs(ref.matrix))))


def check_frame(q, ref: Reference) -> float:
    """Orthonormal within TOL_ORTHO and equal to the LAPACK frame within a
    condition-scaled tolerance. Returns the orthonormality defect."""
    q = _shape(q, ref.frame.shape, "frame")
    defect = orthonormality_defect(q)
    if not defect <= TOL_ORTHO:
        raise CheckFailed("not_orthonormal", f"defect {defect:.3e}")
    gap = float(np.max(np.abs(q - ref.frame)))
    if not gap <= _frame_tolerance(ref):
        raise CheckFailed("frame_mismatch", f"gap {gap:.3e} to the LAPACK frame")
    return defect


def check_triangular(t, d: int, what: str) -> np.ndarray:
    t = _shape(t, (d, d), what)
    if np.any(np.tril(t, -1) != 0.0):
        raise CheckFailed("not_triangular", what)
    if not np.all(np.diagonal(t) > 0.0):
        raise CheckFailed("nonpositive_diagonal", what)
    return t


def check_coefficients(m_dense, ref: Reference) -> float:
    """``alpha @ M`` is the frame; returns that product's defect."""
    d = ref.matrix.shape[1]
    m_dense = check_triangular(m_dense, d, "coefficient matrix")
    return check_frame(ref.matrix @ m_dense, ref)


def check_qr(q, r, ref: Reference) -> float:
    """Q is the frame, R is positive upper triangular and Q @ R = A."""
    defect = check_frame(q, ref)
    r = check_triangular(r, ref.matrix.shape[1], "R")
    gap = float(np.max(np.abs(np.asarray(q) @ r - ref.matrix)))
    if not gap <= _reconstruction_tolerance(ref):
        raise CheckFailed("bad_reconstruction", f"|QR - A| = {gap:.3e}")
    return defect


def check_point(point, t: float, ref: Reference) -> None:
    """A homotopy point lies on the straight line (1 - t) A + t Q."""
    point = _shape(point, ref.matrix.shape, "homotopy point")
    expected = (1.0 - t) * ref.matrix + t * ref.frame
    gap = float(np.max(np.abs(point - expected)))
    if not gap <= _reconstruction_tolerance(ref) + t * _frame_tolerance(ref):
        raise CheckFailed("off_path", f"gap {gap:.3e} at t={t:g}")


def check_path(ts, points, n: int, ref: Reference) -> float:
    """n uniform samples from A (exactly) to the frame; returns the endpoint
    defect."""
    if len(ts) != n or len(points) != n:
        raise CheckFailed("wrong_sample_count", f"{len(ts)} samples, expected {n}")
    expected_ts = np.arange(n) / (n - 1)
    if not np.allclose(ts, expected_ts, rtol=0.0, atol=1e-15):
        raise CheckFailed("wrong_times")
    if not np.array_equal(np.asarray(points[0], dtype=float), ref.matrix):
        raise CheckFailed("start_moved", "t = 0 must return the input exactly")
    for t, p in zip(ts[1:-1], points[1:-1]):
        check_point(p, float(t), ref)
    return check_frame(points[-1], ref)


def matrix_from_json(obj) -> np.ndarray:
    """Decode the ``{"rows", "cols", "data"}`` matrix object."""
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        return np.array(data, dtype=float).reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed("unparseable_output", f"matrix object: {exc}") from exc


def json_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed("unparseable_output", str(exc)) from exc


def csv_rows(text: str) -> np.ndarray:
    """Parse comma-separated numeric rows (no header) into a 2-d array."""
    try:
        rows = [[float(x) for x in line.split(",")] for line in text.splitlines() if line]
        return np.array(rows, dtype=float, ndmin=2)
    except ValueError as exc:
        raise CheckFailed("unparseable_output", str(exc)) from exc

"""The paper's acceptance criteria, run by the CLI ``selftest`` subcommand.

Each check pins one headline guarantee on seeded random families and reports
a single pass/fail row: Gram-Schmidt maps injective maps onto the Stiefel
manifold, the straight-line homotopy stays injective and fixes frames, and
the construction commutes with rotations. Per-module invariants are tested
in ``tests/``. Everything is deterministic given the master seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import (
    DEFAULT_TOL_RANK,
    GUARANTEE_CONDITION,
    include_frame,
    max_abs,
    orthonormality_defect,
    validate_injective,
)
from .equivariance import check_equivariance, random_rotation
from .gram_schmidt import (
    coefficient_matrix,
    householder_qr_oracle,
    orthonormalize,
    qr_decompose,
    retract,
)
from .homotopy import homotopy_step, sphere_interpolant, trace_path
from .sampling import generate_injective, random_dims

DEFAULT_SEED = 1729


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Context:
    """Master seed plus the shared criterion-1 family, built once."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: dict = {}

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def family(self):
        """1000 validated maps, 1 <= d <= m <= 64, condition <= 1e6, each with
        its frame."""
        if "family" not in self._cache:
            rng = self.rng("family")
            members = []
            for _ in range(1000):
                m, d = random_dims(rng, 64)
                alpha, _ = generate_injective(rng, m, d, max_condition=GUARANTEE_CONDITION)
                members.append((alpha, retract(alpha)))
            self._cache["family"] = members
        return self._cache["family"]


def check_orthonormality(ctx: _Context):
    worst = 0.0
    for _, frame in ctx.family():
        worst = max(worst, orthonormality_defect(frame.matrix))
    return worst <= 1e-10, f"max frame defect {worst:.3e} over 1000 maps (tol 1e-10)"


def check_homotopy_endpoints(ctx: _Context):
    worst = 0.0
    for alpha, frame in ctx.family():
        start, end = (s.point for s in trace_path(alpha, 2).samples)
        if start is not alpha or not np.array_equal(start.matrix, alpha.matrix):
            return False, "t=0 endpoint is not bit-identical to the source"
        worst = max(worst, max_abs(end.matrix - frame.matrix))
    return worst <= 1e-10, f"max t=1 endpoint gap {worst:.3e} (tol 1e-10)"


def check_rank_along_path(ctx: _Context):
    # Each sample carries trace_path's own rank certificate; a point that
    # fails it raises, which fails the row.
    worst_ratio = np.inf
    worst_diag = np.inf
    for alpha, _ in ctx.family():
        for s in trace_path(alpha, 101).samples:
            worst_ratio = min(worst_ratio, 1.0 / s.point.condition_estimate)
            worst_diag = min(worst_diag, s.min_interpolant_diag)
    ok = worst_ratio > DEFAULT_TOL_RANK and worst_diag > 0.0
    return ok, (
        f"min singular-value ratio {worst_ratio:.3e} (tol {DEFAULT_TOL_RANK:g}), "
        f"min interpolant diagonal {worst_diag:.3e} at 101 samples"
    )


def check_isometry_fixed_point(ctx: _Context):
    rng = ctx.rng("isometry")
    worst_coeff = 0.0
    worst_path = 0.0
    for _ in range(200):
        m, d = random_dims(rng, 64)
        alpha, _ = generate_injective(rng, m, d, max_condition=GUARANTEE_CONDITION)
        frame = retract(alpha)
        fmap = include_frame(frame)
        coeff = coefficient_matrix(fmap)
        worst_coeff = max(worst_coeff, max_abs(coeff.to_dense() - np.eye(d)))
        path = trace_path(fmap, 11)
        worst_path = max(
            worst_path,
            max(max_abs(s.point.matrix - frame.matrix) for s in path.samples),
        )
    ok = worst_coeff <= 1e-9 and worst_path <= 1e-9
    return ok, (
        f"max coefficient gap to identity {worst_coeff:.3e}, "
        f"max path drift {worst_path:.3e} over 200 frames (tol 1e-9)"
    )


def check_qr_vs_householder(ctx: _Context):
    rng = ctx.rng("qr")
    worst_recon = 0.0
    worst_q = 0.0
    worst_r = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 65))
        alpha, _ = generate_injective(rng, m, m)
        q, r = qr_decompose(alpha)
        if not np.all(r.diagonal() > 0.0):
            return False, "R diagonal not strictly positive"
        worst_recon = max(worst_recon, max_abs(q.matrix @ r.to_dense() - alpha.matrix))
        qh, rh = householder_qr_oracle(alpha.matrix)
        worst_q = max(worst_q, max_abs(q.matrix - qh.matrix))
        worst_r = max(worst_r, max_abs(r.packed - rh.packed))
    ok = worst_recon <= 1e-9 and worst_q <= 1e-9 and worst_r <= 1e-9
    return ok, (
        f"max |QR - input| {worst_recon:.3e}, oracle gaps Q {worst_q:.3e} / "
        f"R {worst_r:.3e} over 200 matrices (tol 1e-9)"
    )


def check_sphere_closed_form(ctx: _Context):
    rng = ctx.rng("sphere")
    worst_gap = 0.0
    worst_norm = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        v = rng.uniform(-1.0, 1.0, size=m)
        while not v.any():
            v = rng.uniform(-1.0, 1.0, size=m)
        t = float(rng.uniform(0.0, 1.0))
        embedded = validate_injective(v[:, None])
        moved = homotopy_step(embedded, t)
        worst_gap = max(
            worst_gap, max_abs(sphere_interpolant(v, t) - moved.matrix[:, 0])
        )
        worst_norm = max(
            worst_norm, abs(float(np.linalg.norm(sphere_interpolant(v, 1.0))) - 1.0)
        )
    ok = worst_gap <= 1e-12 and worst_norm <= 1e-12
    return ok, (
        f"max closed-form gap {worst_gap:.3e}, max |norm-1| at t=1 "
        f"{worst_norm:.3e} over 1000 draws (tol 1e-12)"
    )


def check_equivariance_suite(ctx: _Context):
    rng = ctx.rng("equivariance")
    worst = 0.0
    for _ in range(500):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=GUARANTEE_CONDITION)
        o = random_rotation(m, int(rng.integers(0, 2**63)))
        report = check_equivariance(alpha, o)
        worst = max(
            worst,
            report.frame_defect,
            report.coefficient_defect,
            max(dd for _, dd in report.homotopy_defects),
        )
        # The report's verdict scales with the input; this row keeps the
        # absolute 1e-9 bound on every defect.
        if worst > 1e-9:
            return False, f"defect {worst:.3e} exceeded 1e-9"
    return True, f"max defect {worst:.3e} over 500 rotation pairs (tol 1e-9)"


def check_hand_case(ctx: _Context):
    alpha = validate_injective(np.array([[2.0, 1.0], [0.0, 3.0]]))
    res = orthonormalize(alpha)
    coeff_expected = np.array([[0.5, -1.0 / 6.0], [0.0, 1.0 / 3.0]])
    gaps = [
        max_abs(res.frame.matrix - np.eye(2)),
        max_abs(res.coefficient_matrix.to_dense() - coeff_expected),
        max_abs(alpha.matrix @ res.coefficient_matrix.to_dense() - np.eye(2)),
    ]
    q, r = qr_decompose(alpha)
    gaps.append(max_abs(q.matrix - np.eye(2)))
    gaps.append(max_abs(r.to_dense() - alpha.matrix))
    worst = max(gaps)
    return worst <= 1e-14, f"max hand-case gap {worst:.3e} (tol 1e-14)"


REGISTRY = [
    ("criterion-1-orthonormality", check_orthonormality),
    ("criterion-2-homotopy-endpoints", check_homotopy_endpoints),
    ("criterion-3-rank-along-path", check_rank_along_path),
    ("criterion-4-isometry-fixed-point", check_isometry_fixed_point),
    ("criterion-5-qr-vs-householder", check_qr_vs_householder),
    ("criterion-6-sphere-closed-form", check_sphere_closed_form),
    ("criterion-7-equivariance-suite", check_equivariance_suite),
    ("criterion-8-hand-case", check_hand_case),
]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    ctx = _Context(seed)
    results = []
    for name, fn in REGISTRY:
        start = perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a broken kernel must fail its row, not the harness
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, perf_counter() - start))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  "
        f"{r.seconds:7.2f}s  {r.detail}"
        for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)} checks")
    return "\n".join(lines)

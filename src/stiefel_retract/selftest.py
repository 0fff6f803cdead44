"""Seeded invariant suite run by the CLI ``selftest`` subcommand.

Each check exercises one documented property of the library on seeded random
families and reports a single pass/fail row. The acceptance-grade checks
(``criterion-*``) pin the headline guarantees; the remaining rows cover the
per-module invariants. Everything is deterministic given the master seed.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .core import (
    DEFAULT_TOL_RANK,
    UpperTriangularPositive,
    include_frame,
    max_abs,
    orthonormality_defect,
    tri_solve_inverse,
    validate_frame,
    validate_injective,
    validate_rotation,
)
from .equivariance import (
    DEFAULT_T_SAMPLES,
    act,
    check_equivariance,
    random_rotation,
)
from .gram_schmidt import (
    Variant,
    _inductive_coefficients,
    coefficient_matrix,
    householder_qr_oracle,
    orthonormalize,
    qr_decompose,
    retract,
)
from .homotopy import _interpolate, _step, homotopy_step, sphere_interpolant, trace_path
from .matio import (
    format_matrix_csv,
    matrix_from_object,
    parse_matrix_blocks_csv,
    parse_matrix_csv,
)
from .sampling import conditioned_injective, generate_injective, random_dims

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
        its orthonormalization result."""
        if "family" not in self._cache:
            rng = self.rng("family")
            members = []
            for _ in range(1000):
                m, d = random_dims(rng, 64)
                alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
                members.append((alpha, orthonormalize(alpha)))
            self._cache["family"] = members
        return self._cache["family"]


# ---------------------------------------------------------------------------
# acceptance-grade checks


def check_orthonormality(ctx: _Context):
    worst = 0.0
    for _, res in ctx.family():
        worst = max(worst, orthonormality_defect(res.frame.matrix))
    return worst <= 1e-10, f"max frame defect {worst:.3e} over 1000 maps (tol 1e-10)"


def check_homotopy_endpoints(ctx: _Context):
    worst = 0.0
    for alpha, res in ctx.family():
        start = _step(alpha, res.coefficient_matrix, 0.0, DEFAULT_TOL_RANK)
        if start is not alpha or not np.array_equal(start.matrix, alpha.matrix):
            return False, "t=0 endpoint is not bit-identical to the source"
        end = _step(alpha, res.coefficient_matrix, 1.0, DEFAULT_TOL_RANK)
        worst = max(worst, max_abs(end.matrix - res.frame.matrix))
    return worst <= 1e-10, f"max t=1 endpoint gap {worst:.3e} (tol 1e-10)"


def check_rank_along_path(ctx: _Context):
    worst_ratio = np.inf
    worst_diag = np.inf
    ts = np.linspace(0.0, 1.0, 101)
    for alpha, res in ctx.family():
        coeff = res.coefficient_matrix
        d = coeff.dim
        mts = (1.0 - ts)[:, None, None] * np.eye(d) + ts[:, None, None] * coeff.to_dense()
        points = alpha.matrix @ mts
        if not np.all(np.isfinite(points)):
            return False, "non-finite point along the path"
        sv = np.linalg.svd(points, compute_uv=False)
        worst_ratio = min(worst_ratio, float(np.min(sv[:, -1] / sv[:, 0])))
        diag_mins = np.min(
            (1.0 - ts)[:, None] + ts[:, None] * coeff.diagonal()[None, :], axis=1
        )
        worst_diag = min(worst_diag, float(np.min(diag_mins)))
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
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
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
        while np.linalg.norm(v) <= DEFAULT_TOL_RANK:
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
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        o = random_rotation(m, int(rng.integers(0, 2**63)))
        report = check_equivariance(alpha, o, DEFAULT_T_SAMPLES, tolerance=1e-9)
        worst = max(
            worst,
            report.frame_defect,
            report.coefficient_defect,
            max(dd for _, dd in report.homotopy_defects),
        )
        if not report.passed:
            return False, f"defect {worst:.3e} exceeded 1e-9"
    return True, f"max defect {worst:.3e} over 500 rotation pairs (tol 1e-9)"


def check_hand_case(ctx: _Context):
    alpha = validate_injective(np.array([[2.0, 1.0], [0.0, 3.0]]))
    res = orthonormalize(alpha)
    replay = max_abs(
        _inductive_coefficients(alpha.matrix) - res.coefficient_matrix.to_dense()
    )
    if not replay <= 1e-8:
        return False, f"inductive coefficient replay disagrees by {replay:.3e} (tol 1e-8)"
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


# ---------------------------------------------------------------------------
# matrix-core invariants


def check_gram_cholesky(ctx: _Context):
    rng = ctx.rng("gram")
    for _ in range(50):
        m, d = random_dims(rng, 64)
        alpha, _ = generate_injective(rng, m, d)
        try:
            np.linalg.cholesky(alpha.matrix.T @ alpha.matrix)
        except np.linalg.LinAlgError:
            return False, f"Gram matrix of an accepted {m}x{d} map is not SPD"
    return True, "Cholesky succeeded on 50 accepted Gram matrices"


def check_include_frame_identity(ctx: _Context):
    rng = ctx.rng("include")
    for _ in range(50):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        frame = retract(alpha)
        back = include_frame(frame)
        if not np.array_equal(back.matrix, frame.matrix):
            return False, "inclusion changed matrix entries"
        if back.condition_estimate != 1.0:
            return False, "inclusion did not set condition estimate to 1"
    return True, "inclusion is entrywise the identity on 50 frames"


def check_tri_inverse_involution(ctx: _Context):
    # Off-diagonals are scaled by the row diagonal: with absolute-scale
    # off-diagonals and tiny diagonals the inverse's entries grow
    # geometrically and no double-inversion bound can hold.
    rng = ctx.rng("triangle")
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 65))
        diag = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        noise = np.triu(rng.uniform(-0.25, 0.25, size=(d, d)), k=1)
        u = UpperTriangularPositive.from_dense(
            np.triu(diag[:, None] * (np.eye(d) + noise))
        )
        again = tri_solve_inverse(tri_solve_inverse(u))
        worst = max(worst, max_abs(again.packed - u.packed))
    return worst <= 1e-12, f"max double-inverse drift {worst:.3e} (tol 1e-12)"


def check_frame_round_trip(ctx: _Context):
    rng = ctx.rng("roundtrip")
    for _ in range(50):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        frame = retract(alpha)
        validate_frame(include_frame(frame).matrix)
    return True, "re-validation succeeded for 50 included frames"


# ---------------------------------------------------------------------------
# gram-schmidt invariants


def check_reconstruction(ctx: _Context):
    worst = 0.0
    for alpha, res in ctx.family():
        worst = max(
            worst,
            max_abs(alpha.matrix @ res.coefficient_matrix.to_dense() - res.frame.matrix),
        )
    return worst <= 1e-10, f"max reconstruction gap {worst:.3e} over 1000 maps (tol 1e-10)"


def check_triangular_positivity(ctx: _Context):
    for _, res in ctx.family():
        coeff = res.coefficient_matrix
        if not np.all(coeff.diagonal() > 0.0):
            return False, "coefficient diagonal not strictly positive"
        dense = coeff.to_dense()
        if np.any(dense[np.tril_indices(coeff.dim, k=-1)] != 0.0):
            return False, "strict lower triangle not identically zero"
    return True, "positive diagonal and zero lower triangle on 1000 coefficient matrices"


def check_right_triangular_invariance(ctx: _Context):
    rng = ctx.rng("right-triangular")
    worst = 0.0
    for _ in range(100):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
        dense = np.triu(rng.uniform(-0.5, 0.5, size=(d, d)), k=1)
        dense[np.diag_indices(d)] = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        t = UpperTriangularPositive.from_dense(dense)
        scaled = validate_injective(alpha.matrix @ t.to_dense())
        worst = max(worst, max_abs(retract(scaled).matrix - retract(alpha).matrix))
    return worst <= 1e-9, f"max frame drift {worst:.3e} under triangular scaling (tol 1e-9)"


def check_variant_agreement(ctx: _Context):
    rng = ctx.rng("variants")
    worst = 0.0
    for _ in range(100):
        m, d = random_dims(rng, 32)
        condition = 10.0 ** rng.uniform(0.0, 4.0)
        alpha = conditioned_injective(rng, m, d, condition)
        classical = orthonormalize(alpha, Variant.CLASSICAL)
        modified = orthonormalize(alpha, Variant.MODIFIED)
        worst = max(worst, max_abs(classical.frame.matrix - modified.frame.matrix))
    return worst <= 1e-8, f"max classical/modified frame gap {worst:.3e} (tol 1e-8)"


# ---------------------------------------------------------------------------
# homotopy invariants


def check_interpolant_linearity(ctx: _Context):
    rng = ctx.rng("linearity")
    for _ in range(50):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        coeff = coefficient_matrix(alpha)
        eye_packed = UpperTriangularPositive.from_dense(np.eye(d)).packed
        for t in (0.125, float(rng.uniform(0.0, 1.0)), 0.875):
            lhs = (1.0 - t) * eye_packed + t * coeff.packed
            rhs = _interpolate(coeff, t).packed
            scale = max(1.0, max_abs(rhs))
            if max_abs(lhs - rhs) > 4e-16 * scale:
                return False, f"interpolant deviates from linearity at t={t}"
    return True, "interpolant is entrywise linear in t up to ulp-scale roundoff"


def check_continuity(ctx: _Context):
    rng = ctx.rng("continuity")
    h = 1e-3
    for _ in range(50):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        coeff = coefficient_matrix(alpha)
        bound = 2.0 * max_abs(alpha.matrix) * max_abs(coeff.to_dense() - np.eye(d))
        for t in np.linspace(0.0, 1.0 - h, 11):
            step_a = _step(alpha, coeff, float(t), DEFAULT_TOL_RANK)
            step_b = _step(alpha, coeff, float(t) + h, DEFAULT_TOL_RANK)
            diff = max_abs(step_b.matrix - step_a.matrix)
            if diff > bound * h:
                return False, (
                    f"step of size {diff:.3e} exceeds {bound * h:.3e} at t={t:.2f}"
                )
    return True, f"finite-difference steps stayed within 2*|input|*|coeff-I|*h for h={h:g}"


# ---------------------------------------------------------------------------
# equivariance invariants


def check_interpolant_invariance(ctx: _Context):
    rng = ctx.rng("interp-invariance")
    worst = 0.0
    for _ in range(50):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
        o = random_rotation(m, int(rng.integers(0, 2**63)))
        rotated = act(o, alpha)
        ca = coefficient_matrix(alpha)
        cr = coefficient_matrix(rotated)
        for t in DEFAULT_T_SAMPLES:
            worst = max(
                worst, max_abs(_interpolate(cr, t).packed - _interpolate(ca, t).packed)
            )
    return worst <= 1e-9, f"max interpolant drift under rotation {worst:.3e} (tol 1e-9)"


def check_haar_moment(ctx: _Context):
    # Per-sample seeds (base + index) keep the result identical however the
    # samples are scheduled; entries are reduced in index order.
    rng = ctx.rng("haar")
    base = int(rng.integers(0, 2**32))
    count = 10_000
    entries = np.empty(count)

    def fill(block: range) -> None:
        for i in block:
            entries[i] = random_rotation(4, base + i).matrix[0, 0]

    from .cli import THREADS_ENV, _max_workers

    workers = min(_max_workers(), 8) if os.environ.get(THREADS_ENV) else 1
    if workers > 1:
        blocks = [range(k, count, workers) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    else:
        fill(range(count))
    mean = float(np.mean(entries))
    return abs(mean) <= 0.05, f"mean first entry {mean:+.4f} over {count} rotations (tol 0.05)"


def check_group_action(ctx: _Context):
    rng = ctx.rng("group")
    worst = 0.0
    for _ in range(50):
        m, d = random_dims(rng, 16)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
        identity = validate_rotation(np.eye(m))
        if not np.array_equal(act(identity, alpha).matrix, alpha.matrix):
            return False, "identity rotation does not act trivially"
        o1 = random_rotation(m, int(rng.integers(0, 2**63)))
        o2 = random_rotation(m, int(rng.integers(0, 2**63)))
        composed = validate_rotation(o1.matrix @ o2.matrix)
        worst = max(
            worst,
            max_abs(act(o1, act(o2, alpha)).matrix - act(composed, alpha).matrix),
        )
    return worst <= 1e-12, f"max composition gap {worst:.3e} over 50 draws (tol 1e-12)"


# ---------------------------------------------------------------------------
# cli invariants (run in-process against temporary files)


def _run_cli(argv) -> int:
    from . import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def check_cli_determinism(ctx: _Context):
    with tempfile.TemporaryDirectory() as tmp:
        pairs = [
            ["retract", "--dims", "8x3", "--seed", "11", "--format", "json"],
            ["path", "--dims", "4x2", "--seed", "7", "--steps", "11", "--format", "csv"],
        ]
        for args in pairs:
            outs = []
            for k in (0, 1):
                out = Path(tmp) / f"out{k}"
                code = _run_cli(args + ["--output", str(out)])
                if code != 0:
                    return False, f"{args[0]} exited {code}"
                outs.append(out.read_bytes())
            if outs[0] != outs[1]:
                return False, f"{args[0]} output differs between identical runs"
    return True, "identical configurations produced byte-identical files"


def check_cli_exit_codes(ctx: _Context):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "garbage.csv").write_text("not,a,number\n1,2,3\n")
        (tmp_path / "rank.csv").write_text("1.0,2.0\n2.0,4.0\n")
        (tmp_path / "tall.csv").write_text("1.0,0.0\n0.0,1.0\n0.0,0.0\n")
        (tmp_path / "eye.csv").write_text(format_matrix_csv(np.eye(3)))
        missing = tmp_path / "never-written"
        cases = [
            (["retract", "--input", str(tmp_path / "eye.csv"), "--format", "csv"], 0),
            (["retract", "--input", str(tmp_path / "garbage.csv"), "--format", "csv"], 2),
            (
                [
                    "retract",
                    "--input",
                    str(tmp_path / "rank.csv"),
                    "--format",
                    "csv",
                    "--output",
                    str(missing),
                ],
                3,
            ),
            (["qr", "--input", str(tmp_path / "tall.csv"), "--format", "csv"], 4),
            (
                ["check", "--dims", "4x2", "--seed", "3", "--batch", "2", "--tolerance", "1e-30"],
                1,
            ),
        ]
        for args, expected in cases:
            code = _run_cli(args)
            if code != expected:
                return False, f"{' '.join(args[:2])} exited {code}, expected {expected}"
        if missing.exists():
            return False, "output file was written despite a rank failure"
    return True, "exit codes 0/1/2/3/4 all observed on their designated paths"


def check_cli_round_trip(ctx: _Context):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        expected, _ = generate_injective(np.random.default_rng(5), 6, 3)
        frame = retract(expected).matrix

        out_json = tmp_path / "frame.json"
        if _run_cli(["retract", "--dims", "6x3", "--seed", "5", "--output", str(out_json)]):
            return False, "retract (json) failed"
        parsed = matrix_from_object(json.loads(out_json.read_text())["frame"])
        if not np.array_equal(parsed, frame):
            return False, "json frame did not round-trip exactly"

        out_csv = tmp_path / "frame.csv"
        if _run_cli(
            ["retract", "--dims", "6x3", "--seed", "5", "--format", "csv", "--output", str(out_csv)]
        ):
            return False, "retract (csv) failed"
        if not np.array_equal(parse_matrix_csv(out_csv.read_text()), frame):
            return False, "csv frame did not round-trip exactly"

        out_qr = tmp_path / "qr.csv"
        if _run_cli(
            ["qr", "--dims", "5x5", "--seed", "9", "--format", "csv", "--output", str(out_qr)]
        ):
            return False, "qr (csv) failed"
        blocks = parse_matrix_blocks_csv(out_qr.read_text())
        sq, _ = generate_injective(np.random.default_rng(9), 5, 5)
        q, r = qr_decompose(sq)
        if not (np.array_equal(blocks[0], q.matrix) and np.array_equal(blocks[1], r.to_dense())):
            return False, "qr csv blocks did not round-trip exactly"
    return True, "retract and qr outputs re-parse to identical entries"


REGISTRY = [
    ("criterion-1-orthonormality", check_orthonormality),
    ("criterion-2-homotopy-endpoints", check_homotopy_endpoints),
    ("criterion-3-rank-along-path", check_rank_along_path),
    ("criterion-4-isometry-fixed-point", check_isometry_fixed_point),
    ("criterion-5-qr-vs-householder", check_qr_vs_householder),
    ("criterion-6-sphere-closed-form", check_sphere_closed_form),
    ("criterion-7-equivariance-suite", check_equivariance_suite),
    ("criterion-8-hand-case", check_hand_case),
    ("core-gram-cholesky", check_gram_cholesky),
    ("core-include-frame-identity", check_include_frame_identity),
    ("core-tri-inverse-involution", check_tri_inverse_involution),
    ("core-frame-round-trip", check_frame_round_trip),
    ("gs-reconstruction", check_reconstruction),
    ("gs-triangular-positivity", check_triangular_positivity),
    ("gs-right-triangular-invariance", check_right_triangular_invariance),
    ("gs-variant-agreement", check_variant_agreement),
    ("homotopy-interpolant-linearity", check_interpolant_linearity),
    ("homotopy-continuity", check_continuity),
    ("equiv-interpolant-invariance", check_interpolant_invariance),
    ("equiv-haar-moment", check_haar_moment),
    ("equiv-group-action", check_group_action),
    ("cli-determinism", check_cli_determinism),
    ("cli-exit-codes", check_cli_exit_codes),
    ("cli-round-trip", check_cli_round_trip),
]


def run_all(seed: int = DEFAULT_SEED, names=None) -> list[CheckResult]:
    ctx = _Context(seed)
    results = []
    for name, fn in REGISTRY:
        if names is not None and name not in names:
            continue
        start = perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a broken kernel must fail its row, not the harness
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, perf_counter() - start))
    return results


def run_check(name: str, seed: int = DEFAULT_SEED) -> CheckResult:
    results = run_all(seed, names=[name])
    if not results:
        raise KeyError(f"unknown check {name!r}")
    return results[0]


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

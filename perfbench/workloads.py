"""The four workloads: seeded inputs, the op each slot runs, and its check.

A workload is a list of *slots*. One round runs every slot once, in a seeded
order; each slot cycles through a few input variants from round to round.
Rounds keep every slot equally represented, and an odd slot count keeps the
median latency inside one slot's cluster instead of in a gap between two.

Every op calls the package through module attributes looked up at call time
(``api.retract``, ``cli.main``), so the traced run's rebound names are seen.
All inputs come from ``sampling.generate_injective`` or
``sampling.conditioned_injective``; the ops receive only the matrices.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from checks import CheckFailed, Reference


@dataclass
class Op:
    """One call into the package and the independent check of its output.

    ``check`` returns the orthonormality defect of the frame the op produced,
    or ``None`` when the op yields no frame. ``ref`` describes the op's input
    matrix, on which the LAPACK floor is timed (``None`` when the op has no
    single input).
    """

    slot: str
    call: Callable[[], Any]
    check: Callable[[Any], float | None]
    ref: Reference | None


class References:
    """LAPACK references for the checks, timed so that set-up can leave them
    out: they are harness work, not work of the package."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, a: np.ndarray) -> Reference:
        t0 = time.perf_counter()
        ref = checks.reference(a)
        self.seconds += time.perf_counter() - t0
        return ref


@dataclass
class Setup:
    slots: list[list[Op]]
    sampling_seconds: float
    reference_seconds: float


class _Sampler:
    """Calls into the ``sampling`` layer, timing them for ``sampling.setup_ms``."""

    def __init__(self, api, rng: np.random.Generator):
        self._sampling = api.sampling
        self.rng = rng
        self.seconds = 0.0

    def _timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0

    def injective(self, m: int, d: int, condition: float | None = None, rng=None,
                  max_condition: float | None = 1e4):
        """A uniform draw (capped at ``max_condition``) when ``condition`` is
        None, else a log-spaced spectrum with that condition number."""
        rng = self.rng if rng is None else rng
        if condition is None:
            alpha, _ = self._timed(self._sampling.generate_injective, rng, m, d,
                                   max_condition=max_condition)
            return alpha
        return self._timed(self._sampling.conditioned_injective, rng, m, d, condition)


def _dense(tri) -> np.ndarray:
    return np.asarray(tri.to_dense(), dtype=float)


def _check_validated(alpha, raw: np.ndarray, ref: Reference) -> None:
    if not np.array_equal(np.asarray(alpha.matrix), raw):
        raise CheckFailed("input_changed", "validated matrix differs from the input")
    rel = abs(float(alpha.condition_estimate) - ref.condition) / ref.condition
    if not rel <= 1e-6:
        raise CheckFailed("wrong_condition", f"relative error {rel:.3e}")


# --------------------------------------------------------------- small-stream

SMALL_SHAPES = ((3, 2), (6, 6), (10, 5), (16, 4), (16, 12))
SMALL_KINDS = ("retract", "coefficient_matrix", "homotopy_step")
SMALL_VARIANTS = 16


def _small_op(api, kind: str, raw: np.ndarray, t: float, ref: Reference) -> Op:
    m, d = raw.shape
    if kind == "retract":
        def call():
            alpha = api.validate_injective(raw)
            return alpha, api.retract(alpha)

        def check(out):
            _check_validated(out[0], raw, ref)
            return checks.check_frame(out[1].matrix, ref)
    elif kind == "coefficient_matrix":
        def call():
            alpha = api.validate_injective(raw)
            return alpha, api.coefficient_matrix(alpha)

        def check(out):
            _check_validated(out[0], raw, ref)
            return checks.check_coefficients(_dense(out[1]), ref)
    else:
        def call():
            alpha = api.validate_injective(raw)
            return alpha, api.homotopy_step(alpha, t)

        def check(out):
            _check_validated(out[0], raw, ref)
            checks.check_point(out[1].matrix, t, ref)
            return None
    return Op(f"{kind} {m}x{d}", call, check, ref)


def setup_small_stream(api, rng, refs: References, workdir: Path) -> Setup:
    sampler = _Sampler(api, rng)
    slots = []
    for m, d in SMALL_SHAPES:
        raws = [np.array(sampler.injective(m, d).matrix) for _ in range(SMALL_VARIANTS)]
        ts = rng.uniform(0.0, 1.0, size=(len(SMALL_KINDS), SMALL_VARIANTS))
        for k, kind in enumerate(SMALL_KINDS):
            slots.append([_small_op(api, kind, raw, float(ts[k, v]), refs(raw))
                          for v, raw in enumerate(raws)])
    return Setup(slots, sampler.seconds, refs.seconds)


# ---------------------------------------------------------------- tall-factor

#: (op, m, d). Each slot appears well conditioned and ill conditioned. The
#: extra ill-conditioned 1000x100 slot makes the slot count odd; its op time
#: lies between the 128x128 qr and the 2000x100 ops, so the median op is that
#: slot's own, not a point between two clusters.
TALL_SHAPES = (
    ("coefficient_matrix", 256, 64),
    ("coefficient_matrix", 2000, 100),
    ("qr_decompose", 128, 128),
    ("qr_decompose", 256, 256),
)
#: Ill-conditioned variants sit inside GUARANTEE_CONDITION (1e6), where the
#: sweep's conditional reorthogonalization may fire.
ILL_CONDITIONS = (1e5, 3e5, 9e5)
EXTRA_TALL_SLOT = ("coefficient_matrix", 1000, 100)
TALL_VARIANTS = 10


def _tall_op(api, kind: str, alpha, ref: Reference, label: str) -> Op:
    if kind == "coefficient_matrix":
        def call():
            return api.coefficient_matrix(alpha)

        def check(out):
            return checks.check_coefficients(_dense(out), ref)
    else:
        def call():
            return api.qr_decompose(alpha)

        def check(out):
            q, r = out
            return checks.check_qr(q.matrix, _dense(r), ref)
    m, d = alpha.matrix.shape
    return Op(f"{kind} {m}x{d} {label}", call, check, ref)


def setup_tall_factor(api, rng, refs: References, workdir: Path) -> Setup:
    sampler = _Sampler(api, rng)
    slots = []
    conditions = [ILL_CONDITIONS[v % len(ILL_CONDITIONS)] for v in range(TALL_VARIANTS)]
    for kind, m, d in TALL_SHAPES:
        well = [sampler.injective(m, d) for _ in conditions]
        ill = [sampler.injective(m, d, c) for c in conditions]
        slots.append([_tall_op(api, kind, a, refs(a.matrix), "well") for a in well])
        slots.append([_tall_op(api, kind, a, refs(a.matrix), "ill") for a in ill])
    kind, m, d = EXTRA_TALL_SLOT
    extra = [sampler.injective(m, d, c) for c in conditions]
    slots.append([_tall_op(api, kind, a, refs(a.matrix), "ill") for a in extra])
    return Setup(slots, sampler.seconds, refs.seconds)


# ----------------------------------------------------------------- path-trace

#: (m, d, samples, condition or None for well conditioned). Each op traces a
#: path and converts it with ``path_to_json_obj``. ``path_to_csv`` formats
#: every entry with ``repr`` and costs about ten times the trace itself, so it
#: would hide the trace; cli-batch's ``path --format csv`` times it instead.
PATH_SLOTS = (
    (64, 16, 11, None),
    (64, 16, 33, 9e5),
    (128, 32, 11, 9e5),
    (128, 32, 33, None),
    (256, 64, 11, None),
    (256, 64, 11, 9e5),
    (256, 64, 33, 3e5),
)
PATH_VARIANTS = 12


def _csv_path(text: str, m: int, d: int):
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if len(header) != m * d + 3 or header[0] != "t":
        raise CheckFailed("bad_header", "path CSV header")
    rows = checks.csv_rows("\n".join(lines[1:]))
    if rows.shape[1] != m * d + 3:
        raise CheckFailed("wrong_shape", f"path CSV rows have {rows.shape[1]} fields")
    return rows[:, 0], [r[1:-2].reshape(m, d) for r in rows]


def _path_op(api, alpha, n: int, ref: Reference, label: str) -> Op:
    m, d = alpha.matrix.shape

    def call():
        path = api.trace_path(alpha, n)
        return path, api.homotopy.path_to_json_obj(path)

    def check(out):
        path, obj = out
        ts = [s.t for s in path.samples]
        points = [np.asarray(s.point.matrix) for s in path.samples]
        defect = checks.check_path(ts, points, n, ref)
        if not isinstance(obj, list) or len(obj) != n:
            raise CheckFailed("bad_json", "path JSON is not one object per sample")
        for k in (0, n - 1):
            if not np.array_equal(checks.matrix_from_json(obj[k]["point"]), points[k]):
                raise CheckFailed("json_mismatch", f"JSON sample {k} differs from the path")
        return defect

    return Op(f"trace_path {m}x{d} n={n} {label}", call, check, ref)


def setup_path_trace(api, rng, refs: References, workdir: Path) -> Setup:
    sampler = _Sampler(api, rng)
    slots = []
    for m, d, n, cond in PATH_SLOTS:
        label = "well" if cond is None else f"cond={cond:g}"
        alphas = [sampler.injective(m, d, cond) for _ in range(PATH_VARIANTS)]
        slots.append([_path_op(api, a, n, refs(a.matrix), label) for a in alphas])
    return Setup(slots, sampler.seconds, refs.seconds)


# ------------------------------------------------------------------ cli-batch

CHECK_DIMS = (32, 16)
CHECK_BATCH = 8
CHECK_TOLERANCE = 1e-9
RETRACT_DIMS = (48, 24)
PATH_DIMS = (32, 8)
PATH_STEPS = 11
QR_DIM = 64
CLI_VARIANTS = 4


def _run_cli(api, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(api, slot: str, argv: list[str], verify, ref: Reference | None) -> Op:
    def call():
        return _run_cli(api, argv)

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"exit_{code}", stderr.strip()[:200])
        return verify(stdout)

    return Op(slot, call, check, ref)


def setup_cli_batch(api, rng, refs: References, workdir: Path) -> Setup:
    sampler = _Sampler(api, rng)
    matio = api.matio
    seeds = [int(s) for s in rng.integers(0, 2**31, size=CLI_VARIANTS)]
    slots: list[list[Op]] = [[] for _ in range(5)]
    for v, seed in enumerate(seeds):
        check_out = workdir / f"check-{v}.jsonl"

        def verify_check(stdout, check_out=check_out):
            if f"passed {CHECK_BATCH}/{CHECK_BATCH}" not in stdout:
                raise CheckFailed("check_summary", stdout.strip()[-200:])
            reports = [checks.json_document(line)
                       for line in check_out.read_text().splitlines() if line]
            if len(reports) != CHECK_BATCH:
                raise CheckFailed("check_reports", f"{len(reports)} reports")
            for rep in reports:
                worst = max([rep["frame_defect"], rep["coefficient_defect"]]
                            + [d for _, d in rep["homotopy_defects"]])
                if not (rep["passed"] is True and worst <= CHECK_TOLERANCE):
                    raise CheckFailed("equivariance", f"defect {worst:.3e}")
            return None

        m, d = CHECK_DIMS
        slots[0].append(_cli_op(
            api, f"check --batch {CHECK_BATCH} --dims {m}x{d}",
            ["check", "--batch", str(CHECK_BATCH), "--dims", f"{m}x{d}", "--seed", str(seed),
             "--tolerance", repr(CHECK_TOLERANCE), "--output", str(check_out)],
            verify_check, None))

        alpha = sampler.injective(*RETRACT_DIMS)
        json_in = workdir / f"retract-{v}.json"
        json_in.write_text(matio.format_matrix_json(alpha.matrix))
        ref = refs(np.asarray(alpha.matrix))

        def verify_retract_json(stdout, ref=ref):
            doc = checks.json_document(stdout)
            return checks.check_frame(checks.matrix_from_json(doc["frame"]), ref)

        slots[1].append(_cli_op(api, "retract --input json", ["retract", "--input", str(json_in)],
                                verify_retract_json, ref))

        csv_in = workdir / f"retract-{v}.csv"
        csv_in.write_text(matio.format_matrix_csv(alpha.matrix))
        csv_out = workdir / f"frame-{v}.csv"

        def verify_retract_csv(stdout, ref=ref, csv_out=csv_out):
            return checks.check_frame(checks.csv_rows(csv_out.read_text()), ref)

        slots[2].append(_cli_op(
            api, "retract --input csv --output",
            ["retract", "--input", str(csv_in), "--format", "csv", "--output", str(csv_out)],
            verify_retract_csv, ref))

        beta = sampler.injective(*PATH_DIMS)
        path_in = workdir / f"path-{v}.csv"
        path_in.write_text(matio.format_matrix_csv(beta.matrix))
        path_out = workdir / f"path-{v}.out.csv"
        path_ref = refs(np.asarray(beta.matrix))

        def verify_path(stdout, ref=path_ref, path_out=path_out):
            ts, points = _csv_path(path_out.read_text(), *PATH_DIMS)
            return checks.check_path(ts, points, PATH_STEPS, ref)

        slots[3].append(_cli_op(
            api, "path --input csv --format csv",
            ["path", "--input", str(path_in), "--format", "csv", "--steps", str(PATH_STEPS),
             "--output", str(path_out)],
            verify_path, path_ref))

        # The CLI draws its own input from the seed; regenerate it here the
        # same way so Q @ R can be checked against it.
        qr_input = sampler.injective(QR_DIM, QR_DIM, rng=np.random.default_rng(seed),
                                     max_condition=None)
        qr_ref = refs(np.asarray(qr_input.matrix))

        def verify_qr(stdout, ref=qr_ref):
            doc = checks.json_document(stdout)
            return checks.check_qr(checks.matrix_from_json(doc["q"]),
                                   checks.matrix_from_json(doc["r"]), ref)

        slots[4].append(_cli_op(
            api, f"qr --dims {QR_DIM}x{QR_DIM}",
            ["qr", "--dims", f"{QR_DIM}x{QR_DIM}", "--seed", str(seed)],
            verify_qr, qr_ref))
    return Setup(slots, sampler.seconds, refs.seconds)


WORKLOADS = {
    "small-stream": setup_small_stream,
    "tall-factor": setup_tall_factor,
    "path-trace": setup_path_trace,
    "cli-batch": setup_cli_batch,
}

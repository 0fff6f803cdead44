"""Benchmark of the stiefel_retract library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload small-stream --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each op starts when the previous one
and its check have finished. The package is imported from ``src/`` of the
checkout. ``--trace 0`` prints the end-to-end metrics, with times scaled to
a reference machine speed (see CALIBRATION_REF_S); ``--trace 1`` runs the
same loop untraced and then traced, and prints the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("small-stream", "tall-factor", "path-trace", "cli-batch")

#: Fresh-process set-ups per run whose median is reported as setup_s (the
#: measuring process itself is one of them).
SETUP_REPEATS = 3
SETUP_CHILD_TIMEOUT_S = 60

#: Each run completes at least this many ops, so that at least ten latency
#: samples lie beyond p90.
MIN_OPS = 110

#: The shared host this benchmark was tuned on changes speed by up to 1.8x
#: over minutes, for all code alike. A fixed pure-Python kernel, timed between
#: rounds, measures that speed. End-to-end times are scaled to the speed at
#: which the kernel takes CALIBRATION_REF_S, about its time on that 2-vCPU
#: machine. The raw figures are printed as well.
CALIBRATION_ITERATIONS = 20000
CALIBRATION_REF_S = 1.5e-3
CALIBRATION_EVERY_S = 0.1
SETUP_CALIBRATION_REPEATS = 15

#: Reorthogonalization test in `_factorize`: a second pass runs when the
#: first pass leaves a defect above this share of tol_ortho (1e-10).
REORTH_THRESHOLD = 0.5e-10

#: LAPACK reference repetitions per input; the median is kept.
REFERENCE_REPEATS = 5

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ortho_margin_dec": "decades",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, grouped by layer."""
    units = {}

    def spans(name, self_ms=False):
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.ms"] = "ms/op"
        if self_ms:
            units[f"{name}.self_ms"] = "ms/op"

    for name in ("validate_injective", "validate_frame", "orthonormality_defect",
                 "tri_solve_inverse", "from_dense"):
        spans(f"core.{name}")
    spans("gram_schmidt.orthonormalize", self_ms=True)
    spans("gram_schmidt.qr_decompose", self_ms=True)
    units["gram_schmidt.reorth_ratio"] = "ratio"
    units["gram_schmidt.gflop_s"] = "GFLOP/s"
    spans("homotopy.trace_path", self_ms=True)
    units["homotopy.samples"] = "count/op"
    units["homotopy.revalidate_ms"] = "ms/op"
    units["homotopy.serialize_ms"] = "ms/op"
    spans("equivariance.check_equivariance", self_ms=True)
    spans("equivariance.random_rotation")
    units["matio.parse_ms"] = "ms/op"
    units["matio.format_ms"] = "ms/op"
    units["matio.bytes"] = "bytes/op"
    spans("sampling.generate_injective")
    units["sampling.generate_injective.resamples"] = "count/op"
    units["sampling.setup_ms"] = "ms"
    spans("cli.main", self_ms=True)
    units["cli.check.workers"] = "count"
    units["cli.check.busy_ratio"] = "ratio"
    units["reference.lapack_qr_ms"] = "ms/op"
    units["reference.floor_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    return p.parse_args(argv)


def calibration_kernel() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def slot_medians(samples, field: str) -> dict[int, float]:
    """The median of one per-op field, for each slot."""
    groups: dict[int, list[float]] = {}
    for slot, x in zip(samples["slot"], samples[field]):
        groups.setdefault(slot, []).append(x)
    return {slot: statistics.median(xs) for slot, xs in groups.items()}


class Bench:
    """One workload's set-up, timed loop and results, in this process."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        t0 = time.perf_counter()
        import numpy as np

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        if str(HERE) not in sys.path:
            sys.path.insert(0, str(HERE))
        import stiefel_retract as api
        # The package root does not import these; ops reach them as api.<module>.
        from stiefel_retract import cli, homotopy, matio, sampling  # noqa: F401

        import workloads

        self.rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        setup = workloads.WORKLOADS[workload](api, self.rng, workloads.References(), workdir)
        self.slots = setup.slots
        self.sampling_seconds = setup.sampling_seconds
        self.failures: dict[str, int] = {}
        self.run_loop(0.0, rounds=1, record=False)
        raw_setup_s = time.perf_counter() - t0 - setup.reference_seconds
        self.setup_s = raw_setup_s * CALIBRATION_REF_S / statistics.median(
            calibration_kernel() for _ in range(SETUP_CALIBRATION_REPEATS))

    def run_loop(self, seconds: float, rounds: int | None = None, record: bool = True):
        """Run whole rounds until ``seconds`` have passed, MIN_OPS ops are
        done and every input variant has run (or exactly ``rounds`` rounds).
        Returns per-op samples."""
        from checks import CheckFailed

        # Compact arrays, so that memory does not grow with the op count.
        samples = {"latency": array("d"), "cpu": array("d"), "slot": array("i"),
                   "variant": array("i"), "ok": array("b"),
                   "defect": array("d"), "calibration": array("d")}
        perf, cpu = time.perf_counter, time.process_time
        min_rounds = max(len(v) for v in self.slots) if rounds is None else rounds
        start = last_calibration = perf()
        n_rounds = 0
        while True:
            for slot in self.rng.permutation(len(self.slots)):
                variants = self.slots[slot]
                variant = n_rounds % len(variants)
                op = variants[variant]
                kind = result = None
                defect = math.nan
                c0, t0 = cpu(), perf()
                try:
                    result = op.call()
                except Exception as exc:  # an op that raises is a failed op
                    kind = type(exc).__name__
                t1, c1 = perf(), cpu()
                if kind is None:
                    try:
                        checked = op.check(result)
                        defect = math.nan if checked is None else checked
                    except CheckFailed as exc:
                        kind = exc.kind
                    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                        kind = f"check_{type(exc).__name__}"
                # Drop the output before the next op so peak memory does not
                # depend on which two ops happen to be adjacent.
                result = None
                if kind is not None and record:
                    self.failures[kind] = self.failures.get(kind, 0) + 1
                samples["latency"].append(t1 - t0)
                samples["cpu"].append(c1 - c0)
                samples["slot"].append(int(slot))
                samples["variant"].append(variant)
                samples["ok"].append(kind is None)
                samples["defect"].append(defect)
            n_rounds += 1
            if perf() - last_calibration >= CALIBRATION_EVERY_S or not samples["calibration"]:
                samples["calibration"].append(calibration_kernel())
                last_calibration = perf()
            if n_rounds >= min_rounds and (rounds is not None or (
                    perf() - start >= seconds and len(samples["latency"]) >= MIN_OPS)):
                return samples

    def margins(self, s) -> tuple[float, float]:
        """(mean, min) orthogonality margin in decades. The mean is over the
        distinct inputs of the hard class (condition >= ILL_CONDITION) when
        the workload has one, else over all its inputs; the min is over ops."""
        from checks import ILL_CONDITION, margin_decades

        per_input: dict[tuple[int, int], float] = {}
        for key, defect in zip(zip(s["slot"], s["variant"]), s["defect"]):
            if not math.isnan(defect):
                margin = margin_decades(defect)
                per_input[key] = min(margin, per_input.get(key, margin))
        if not per_input:
            return 0.0, 0.0
        hard = [m for (slot, v), m in per_input.items()
                if self.slots[slot][v].ref.condition >= ILL_CONDITION]
        pool = hard or list(per_input.values())
        return statistics.fmean(pool), min(per_input.values())

    def end_to_end(self, s, peak_rss_mb: float) -> dict[str, float]:
        """End-to-end metrics, with times scaled to the reference speed."""
        lat = s["latency"]
        p90 = statistics.quantiles(lat, n=10)[-1]
        ok = sum(s["ok"])
        margin_mean, margin_min = self.margins(s)
        # Throughput and CPU per op come from each slot's median op, so that
        # a machine stall hitting a few ops does not set the figure; every
        # slot still counts, unlike in the pooled median.
        times = slot_medians(s, "latency")
        cpus = slot_medians(s, "cpu")
        raw = {
            "throughput_ops_s": ok / len(lat) * len(times) / sum(times.values()),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * p90,
            "cpu_ms_per_op": 1e3 * sum(cpus.values()) / len(cpus),
        }
        calibration_s = statistics.median(s["calibration"])
        scale = CALIBRATION_REF_S / calibration_s
        self.extra = {
            "ops": (len(lat), "count"),
            "latency_p90_tail_n": (sum(1 for x in lat if x > p90), "count"),
            "failed_frac": ((len(lat) - ok) / len(lat), "ratio"),
            "ortho_margin_min_dec": (margin_min, "decades"),
            "calibration_ms": (1e3 * calibration_s, "ms"),
            "raw_throughput_ops_s": (raw["throughput_ops_s"], "1/s"),
            "raw_latency_p50_ms": (raw["latency_p50_ms"], "ms"),
            "raw_latency_p90_ms": (raw["latency_p90_ms"], "ms"),
            "raw_cpu_ms_per_op": (raw["cpu_ms_per_op"], "ms"),
        }
        return {
            "throughput_ops_s": raw["throughput_ops_s"] / scale,
            "latency_p50_ms": raw["latency_p50_ms"] * scale,
            "latency_p90_ms": raw["latency_p90_ms"] * scale,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] * scale,
            "setup_s": self.setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ortho_margin_dec": margin_mean,
        }

    def reference_floor(self, untraced) -> dict[str, float]:
        """np.linalg.qr on each slot's first input, outside the timed loop,
        against the slot's median op latency."""
        import numpy as np

        medians = slot_medians(untraced, "latency")
        lapack, ours = [], []
        for i, variants in enumerate(self.slots):
            if variants[0].ref is None:
                continue
            a = variants[0].ref.matrix
            times = []
            for _ in range(REFERENCE_REPEATS):
                t0 = time.perf_counter()
                np.linalg.qr(a)
                times.append(time.perf_counter() - t0)
            lapack.append(statistics.median(times))
            ours.append(medians[i])
        if not lapack:
            return {"reference.lapack_qr_ms": 0.0, "reference.floor_ratio": 0.0}
        return {
            "reference.lapack_qr_ms": 1e3 * sum(lapack) / len(self.slots),
            "reference.floor_ratio": sum(ours) / sum(lapack),
        }

    def traced(self, seconds: float) -> tuple[dict[str, float], int]:
        import tracing

        untraced = self.run_loop(seconds / 2)
        tracer = tracing.Tracer(REORTH_THRESHOLD)
        tracer.install()
        try:
            traced = self.run_loop(seconds / 2)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(traced["latency"]), tracer.pool_workers)
        metrics["sampling.setup_ms"] = 1e3 * self.sampling_seconds
        metrics.update(self.reference_floor(untraced))
        # Both halves' round times in units of the calibration kernel, so
        # that a change of machine speed between the halves cancels.
        rounds = [sum(slot_medians(half, "latency").values()) / statistics.median(half["calibration"])
                  for half in (untraced, traced)]
        metrics["trace.overhead_frac"] = rounds[1] / rounds[0] - 1.0
        attempted = len(untraced["latency"]) + len(traced["latency"])
        return metrics, attempted


def environment() -> dict:
    """Numpy/BLAS build, thread settings and the code under test."""
    import ctypes
    import hashlib
    import platform

    import numpy as np

    env: dict = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = None
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = int(fn())
                    break
    except OSError:
        pass
    env["thread_env"] = {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    env["STIEFEL_RETRACT_THREADS"] = os.environ.get("STIEFEL_RETRACT_THREADS")
    env["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    env["cpu_count"] = os.cpu_count()
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "stiefel_retract").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def child_setup_seconds(args) -> list[float]:
    """Set-up seconds from fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stiefel_retract" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(bench.setup_s))
            return 0
        if args.trace:
            values, attempted = bench.traced(args.seconds)
            units = per_layer_units()
        else:
            samples = bench.run_loop(args.seconds)
            # Read before the statistics allocate, so that the figure does
            # not grow with the op count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = bench.end_to_end(samples, peak_rss_mb)
            values["setup_s"] = statistics.median([bench.setup_s] + child_setup_seconds(args))
            attempted = len(samples["latency"])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    failed = sum(bench.failures.values())
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, unit in units.items():
        print(f"# {name:44s} {values[name]:>14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in bench.extra.items():
            print(f"# {name:44s} {value:>14.6g} {unit}")
    print("# failures " + json.dumps(bench.failures, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

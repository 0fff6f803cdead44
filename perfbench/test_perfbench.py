"""Tests of the benchmark itself: seeded inputs, tracer restoration and the
independent checks. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import stiefel_retract as api  # noqa: E402
from stiefel_retract import cli, gram_schmidt, homotopy  # noqa: E402


def _bindings() -> dict:
    """Every (module, name) -> object binding the tracer may touch."""
    snap = {}
    for mod in tracing._modules():
        for attr, value in mod.__dict__.items():
            if callable(value):
                snap[(mod.__name__, attr)] = value
                if isinstance(value, type):
                    for k, v in value.__dict__.items():
                        snap[(mod.__name__, f"{attr}.{k}")] = v
    return snap


def _inputs(name: str, seed: int, workdir: Path):
    setup = workloads.WORKLOADS[name](api, np.random.default_rng(seed),
                                      workloads.References(), workdir)
    mats = [op.ref.matrix for variants in setup.slots for op in variants if op.ref is not None]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return mats, files


@pytest.mark.parametrize("name", ["small-stream", "cli-batch"])
def test_same_seed_same_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first, files_a = _inputs(name, 5, tmp_path / "a")
    second, files_b = _inputs(name, 5, tmp_path / "b")
    other, _ = _inputs(name, 6, tmp_path / "c")
    assert len(first) == len(second) > 0
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert files_a == files_b
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer(run.REORTH_THRESHOLD)
    tracer.install()
    try:
        assert gram_schmidt.validate_frame is not before[(gram_schmidt.__name__, "validate_frame")]
        assert homotopy.validate_injective is not before[(homotopy.__name__, "validate_injective")]
        assert api.retract is not before[(api.__name__, "retract")]
        api.trace_path(api.validate_injective(np.eye(3)[:, :2] + 0.1), 3)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = {s[0] for s in tracer.spans}
    assert {"homotopy.trace_path", "gram_schmidt.coefficient_matrix",
            "gram_schmidt.orthonormalize", "core.validate_injective"} <= names


def test_traced_run_restores_and_untraced_run_installs_nothing(tmp_path):
    before = _bindings()
    bench = run.Bench("cli-batch", 3, tmp_path)
    bench.run_loop(0.0, rounds=1)
    assert _bindings() == before
    metrics, attempted = bench.traced(0.2)
    assert _bindings() == before
    assert attempted >= 2 * run.MIN_OPS
    assert set(run.per_layer_units()) <= set(metrics)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["cli.check.workers"] >= 1
    assert not bench.failures


def test_self_time_subtracts_children():
    parent = ["gram_schmidt.orthonormalize", 0.0, 10.0, None, None]
    spans = [parent, ["c", 1.0, 4.0, parent, None], ["c", 3.0, 5.0, parent, None]]
    m = tracing.layer_metrics(spans, 1, [])
    assert m["gram_schmidt.orthonormalize.ms"] == pytest.approx(1e4)
    assert m["gram_schmidt.orthonormalize.self_ms"] == pytest.approx(6e3)


def test_wrong_frames_fail_the_checks():
    rng = np.random.default_rng(0)
    ref = checks.reference(rng.standard_normal((8, 3)))
    assert checks.check_frame(ref.frame, ref) < 1e-14
    with pytest.raises(checks.CheckFailed, match="not_orthonormal"):
        checks.check_frame(ref.frame * 1.001, ref)
    flipped = ref.frame.copy()
    flipped[:, 0] *= -1.0
    with pytest.raises(checks.CheckFailed, match="frame_mismatch"):
        checks.check_frame(flipped, ref)


@pytest.mark.parametrize("wrong,kind", [
    (lambda q: q * 1.001, "not_orthonormal"),
    (lambda q: -q, "frame_mismatch"),
])
def test_wrong_frame_counts_as_failed(monkeypatch, tmp_path, wrong, kind):
    real = api.retract
    monkeypatch.setattr(api, "retract",
                        lambda alpha, *a, **k: types.SimpleNamespace(matrix=wrong(real(alpha).matrix)))
    bench = run.Bench("small-stream", 1, tmp_path)
    samples = bench.run_loop(0.0, rounds=2)
    retracts = sum(1 for v in bench.slots for op in v[:1] if op.slot.startswith("retract"))
    assert bench.failures == {kind: 2 * retracts}
    assert samples["ok"].count(False) == 2 * retracts


def test_exit_code_is_reported_as_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "main", lambda argv=None: 3)
    bench = run.Bench("cli-batch", 1, tmp_path)
    bench.run_loop(0.0, rounds=1)
    assert bench.failures == {"exit_3": len(bench.slots)}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_reorth_ratio_counts_second_passes():
    alpha = api.validate_injective(np.random.default_rng(2).standard_normal((20, 6)))
    for threshold, expected in ((-1.0, 1.0), (1.0, 0.0)):
        tracer = tracing.Tracer(threshold)
        tracer.install()
        try:
            api.coefficient_matrix(alpha)
            api.qr_decompose(api.validate_injective(alpha.matrix[:6]))
        finally:
            tracer.uninstall()
        m = tracing.layer_metrics(tracer.spans, 2, tracer.pool_workers)
        assert m["gram_schmidt.reorth_ratio"] == expected
        assert m["gram_schmidt.orthonormalize.calls"] == 0.5
        assert m["gram_schmidt.qr_decompose.calls"] == 0.5

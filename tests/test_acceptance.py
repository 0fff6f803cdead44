"""Acceptance suite: every headline guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The checks themselves live in ``stiefel_retract.selftest``;
the CLI ``selftest`` subcommand runs once per session and each criterion
reads its row from that table. The fault tests at the end run one criterion
in process with a fault in the library code it reads and require FAIL.
"""

import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stiefel_retract import (
    RankDeficientError,
    StiefelFrame,
    UpperTriangularPositive,
    equivariance,
    gram_schmidt,
    homotopy,
    selftest,
)

CRITERIA = [
    (1, "criterion-1-orthonormality", 10.0),
    (2, "criterion-2-homotopy-endpoints", None),
    (3, "criterion-3-rank-along-path", None),
    (4, "criterion-4-isometry-fixed-point", None),
    (5, "criterion-5-qr-vs-householder", None),
    (6, "criterion-6-sphere-closed-form", None),
    (7, "criterion-7-equivariance-suite", 20.0),
    (8, "criterion-8-hand-case", None),
]

# One table row: status, name, seconds, detail (see selftest.format_table).
ROW = re.compile(r"^(PASS|FAIL)  (\S+) +(\d+\.\d+)s  (.*)$")
# Each reading in a row's detail: its bound and its margin (see selftest.judge).
READING = re.compile(r"bound (\S+), margin (\S+) decades")
# One criterion of the README's acceptance table: name and bound.
README_ROW = re.compile(r"^\| `(criterion-[\w-]+)` \|.*\| (\S+) \|$", re.MULTILINE)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def selftest_run():
    start = time.perf_counter()
    proc = subprocess.run(
        # The pytest warnings filter does not reach a child process.
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stiefel_retract.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    rows = {}
    for line in proc.stdout.splitlines():
        match = ROW.match(line)
        if match:
            status, name, seconds, detail = match.groups()
            rows[name] = (status == "PASS", float(seconds), detail)
    return proc, elapsed, rows


@pytest.mark.parametrize("number,name,budget", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(selftest_run, number, name, budget):
    proc, _, rows = selftest_run
    assert name in rows, f"no {name} row in selftest output:\n{proc.stdout}{proc.stderr}"
    passed, seconds, detail = rows[name]
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"
    if budget is not None:
        assert seconds <= budget, (
            f"criterion {number} took {seconds:.1f}s, budget {budget:.0f}s"
        )


def test_selftest_runs_only_the_criteria(selftest_run):
    proc, _, rows = selftest_run
    assert list(rows) == [name for _, name, _ in CRITERIA], proc.stdout
    assert proc.stdout.splitlines()[-1] == f"passed {len(CRITERIA)}/{len(CRITERIA)} checks"


def test_criterion_9_selftest_under_a_minute(selftest_run):
    proc, elapsed, _ = selftest_run
    status = "PASS" if proc.returncode == 0 and elapsed < 60.0 else "FAIL"
    print(f"{status} criterion 9: selftest exit {proc.returncode} in {elapsed:.1f}s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    assert "FAIL" not in proc.stdout


def test_every_reading_has_a_decade_of_margin(selftest_run):
    proc, _, rows = selftest_run
    assert rows, proc.stdout + proc.stderr
    for name, (_, _, detail) in rows.items():
        margins = [float(margin) for _, margin in READING.findall(detail)]
        assert margins, f"{name} prints no margin: {detail}"
        assert min(margins) >= 1.0, f"{name} has less than a decade of margin: {detail}"


def test_readme_table_matches_the_registry_and_the_printed_bounds(selftest_run):
    _, _, rows = selftest_run
    table = README_ROW.findall(README.read_text())
    assert [name for name, _ in table] == [name for name, _ in selftest.REGISTRY]
    for name, bound in table:
        printed = {float(b) for b, _ in READING.findall(rows[name][2])}
        assert printed == {float(bound)}, f"{name}: README bound {bound}, printed {printed}"


def _run_row(monkeypatch, name):
    monkeypatch.setattr(selftest, "REGISTRY", [e for e in selftest.REGISTRY if e[0] == name])
    [result] = selftest.run_all()
    assert result.name == name
    return result


def test_criterion_1_fails_on_a_scaled_frame(monkeypatch):
    # Columns of norm 1 + 1e-9 miss orthonormality by about 2e-9, twenty
    # times the row's tolerance.
    real = gram_schmidt._factor

    def scaled(alpha):
        frame, r = real(alpha)
        return StiefelFrame(matrix=frame.matrix * (1.0 + 1e-9)), r

    monkeypatch.setattr(gram_schmidt, "_factor", scaled)
    result = _run_row(monkeypatch, "criterion-1-orthonormality")
    assert not result.passed, result.detail


def test_criterion_2_fails_on_a_perturbed_frame(monkeypatch):
    # A frame off by 1e-8 relative in homotopy's own sweep moves trace_path's
    # t = 1 point off the family's frame; the row reads that point, so it
    # must fail.
    real = homotopy._factor

    def perturbed(alpha):
        frame, r = real(alpha)
        return StiefelFrame(matrix=frame.matrix * (1.0 + 1e-8)), r

    monkeypatch.setattr(homotopy, "_factor", perturbed)
    result = _run_row(monkeypatch, "criterion-2-homotopy-endpoints")
    assert not result.passed, result.detail


def test_criterion_3_fails_on_a_wrong_certificate(monkeypatch):
    # Step certificates with rank threshold 0.5, that is condition 2, reject
    # points that are injective; the row reads trace_path's certificates, so
    # it must fail. The eigenvalue bound is made to certify nothing, so every
    # interior sample goes through these certificates.
    certify = homotopy.condition_estimates

    def strict_certify(a):
        conditions = certify(a)
        if max(conditions) >= 2.0:
            raise RankDeficientError("singular-value ratio at or below 0.5")
        return conditions

    monkeypatch.setattr(homotopy, "_sigma_bounds", lambda r, times: (0.0 * times, 1.0 + times))
    monkeypatch.setattr(homotopy, "condition_estimates", strict_certify)
    result = _run_row(monkeypatch, "criterion-3-rank-along-path")
    assert not result.passed, result.detail


def test_criterion_4_fails_when_frames_get_a_coefficient_matrix_off_the_identity(monkeypatch):
    real = selftest.coefficient_matrix

    def scaled(alpha):
        return UpperTriangularPositive.from_dense(real(alpha).to_dense() * (1.0 + 1e-8))

    monkeypatch.setattr(selftest, "coefficient_matrix", scaled)
    result = _run_row(monkeypatch, "criterion-4-isometry-fixed-point")
    assert not result.passed, result.detail


def test_criterion_5_fails_on_a_scaled_triangle(monkeypatch):
    real = selftest.qr_decompose

    def scaled(alpha):
        q, r = real(alpha)
        return q, UpperTriangularPositive.from_dense(r.to_dense() * (1.0 + 1e-8))

    monkeypatch.setattr(selftest, "qr_decompose", scaled)
    result = _run_row(monkeypatch, "criterion-5-qr-vs-householder")
    assert not result.passed, result.detail


def test_criterion_6_fails_on_a_closed_form_off_by_1e_10(monkeypatch):
    real = selftest.sphere_interpolant
    monkeypatch.setattr(
        selftest, "sphere_interpolant", lambda v, t: real(v, t) * (1.0 + 1e-10)
    )
    result = _run_row(monkeypatch, "criterion-6-sphere-closed-form")
    assert not result.passed, result.detail


def test_criterion_7_fails_when_the_action_drops_the_rotation(monkeypatch):
    monkeypatch.setattr(equivariance, "act", lambda o, alpha: alpha)
    result = _run_row(monkeypatch, "criterion-7-equivariance-suite")
    assert not result.passed, result.detail


def test_criterion_8_fails_on_a_sign_flip_in_r(monkeypatch):
    real = selftest.qr_decompose

    def flipped(alpha):
        q, r = real(alpha)
        dense = r.to_dense()
        dense[0, -1] = -dense[0, -1]
        return q, UpperTriangularPositive.from_dense(dense)

    monkeypatch.setattr(selftest, "qr_decompose", flipped)
    result = _run_row(monkeypatch, "criterion-8-hand-case")
    assert not result.passed, result.detail

"""Acceptance suite: every headline guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The checks themselves live in ``stiefel_retract.selftest``;
the CLI ``selftest`` subcommand runs once per session and each criterion
reads its row from that table.
"""

import re
import subprocess
import sys
import time

import pytest

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

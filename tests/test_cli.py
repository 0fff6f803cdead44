import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stiefel_retract
from stiefel_retract import cli, errors, gram_schmidt, qr_decompose, retract, trace_path
from stiefel_retract.core import max_abs
from stiefel_retract.equivariance import (
    check_equivariance,
    random_rotation,
    report_to_json_obj,
)
from stiefel_retract.matio import (
    format_matrix_csv,
    format_matrix_json,
    matrix_from_object,
    parse_matrix_blocks_csv,
    parse_matrix_csv,
)
from stiefel_retract.sampling import conditioned_injective, generate_injective


def run(args):
    return cli.main(args)


class TestRetract:
    def test_identity_json(self, tmp_path, capsys):
        src = tmp_path / "eye.json"
        src.write_text(format_matrix_json(np.eye(3)))
        assert run(["retract", "--input", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.array_equal(matrix_from_object(out["frame"]), np.eye(3))
        assert out["diagnostics"]["ortho_defect"] <= 1e-15

    def test_three_four_csv(self, tmp_path, capsys):
        src = tmp_path / "v.csv"
        src.write_text("3\n4\n")
        assert run(["retract", "--input", str(src), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "0.6\n0.8\n"

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_exits_3_without_output(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1.0,2.0\n2.0,4.0\n")
        out = tmp_path / "never"
        assert (
            run(["retract", "--input", str(src), "--format", "csv", "--output", str(out)])
            == 3
        )
        assert not out.exists()
        capsys.readouterr()
        # Valid subnormal input whose path coefficients overflow the float range.
        src = tmp_path / "tiny.json"
        src.write_text(format_matrix_json(np.random.default_rng(0).standard_normal((5, 3)) * 1e-310))
        assert run(["path", "--input", str(src), "--output", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_garbage_exits_2(self, tmp_path):
        src = tmp_path / "garbage.csv"
        src.write_text("a,b\n1,2\n")
        assert run(["retract", "--input", str(src), "--format", "csv"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["retract", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_nan_entry_exits_2(self, tmp_path):
        src = tmp_path / "nan.csv"
        src.write_text("nan,0.0\n0.0,1.0\n")
        assert run(["retract", "--input", str(src), "--format", "csv"]) == 2

    def test_wide_matrix_exits_4(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n")
        assert run(["retract", "--input", str(src), "--format", "csv"]) == 4

    def test_generated_dims(self, tmp_path):
        expected, _ = generate_injective(np.random.default_rng(5), 6, 3)
        frame = retract(expected).matrix
        out = tmp_path / "frame.csv"
        assert run(
            ["retract", "--dims", "6x3", "--seed", "5", "--format", "csv", "--output", str(out)]
        ) == 0
        assert np.array_equal(parse_matrix_csv(out.read_text()), frame)
        out = tmp_path / "frame.json"
        assert run(["retract", "--dims", "6x3", "--seed", "5", "--output", str(out)]) == 0
        assert np.array_equal(matrix_from_object(json.loads(out.read_text())["frame"]), frame)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name,content",
        [
            ("big.json", b'{"rows": 1, "cols": 1, "data": [1' + b"0" * 400 + b"]}"),
            ("deep.json", b"[" * 100000 + b"]" * 100000),
            ("bytes.csv", b"1.0,\xff\n"),
        ],
        ids=["integer-past-the-float-range", "deep-nesting", "invalid-byte"],
    )
    def test_malformed_input_exits_2(self, name, content, tmp_path, capsys):
        src = tmp_path / name
        src.write_bytes(content)
        fmt = src.suffix[1:]
        assert run(["retract", "--input", str(src), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # "CSV UTF-8" spreadsheet exports start with a BOM. Input is UTF-8
        # with an optional BOM; undecodable bytes after one are still not text.
        matrix = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 3.0]])
        bom = b"\xef\xbb\xbf"
        for fmt, text in (("csv", format_matrix_csv(matrix)), ("json", format_matrix_json(matrix))):
            outs = []
            for prefix in (b"", bom):
                src = tmp_path / f"in.{fmt}"
                src.write_bytes(prefix + text.encode())
                assert run(["retract", "--input", str(src), "--format", fmt]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
        src = tmp_path / "bytes.csv"
        src.write_bytes(bom + b"1.0,\xff\n")
        assert run(["retract", "--input", str(src), "--format", "csv"]) == 2
        assert capsys.readouterr().err.startswith("error: input is not text: ")

    @pytest.mark.filterwarnings("error")
    def test_triangle_outside_the_float_range(self, tmp_path, capsys):
        # Valid input whose R lies past the float range: retract succeeds,
        # and every subcommand that needs R exits 3 with one error line.
        src = tmp_path / "huge.json"
        src.write_text(format_matrix_json(np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])))
        assert run(["retract", "--input", str(src)]) == 0
        assert capsys.readouterr().err == ""
        for sub in ("qr", "path", "check"):
            assert run([sub, "--input", str(src)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestQr:
    def test_identity(self, tmp_path, capsys):
        src = tmp_path / "eye.json"
        src.write_text(format_matrix_json(np.eye(3)))
        assert run(["qr", "--input", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.array_equal(matrix_from_object(out["q"]), np.eye(3))
        assert np.array_equal(matrix_from_object(out["r"]), np.eye(3))
        assert out["reconstruction_defect"] == 0.0

    def test_hand_case_csv_blocks(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        src.write_text("2.0,1.0\n0.0,3.0\n")
        assert run(["qr", "--input", str(src), "--format", "csv"]) == 0
        blocks = parse_matrix_blocks_csv(capsys.readouterr().out)
        assert max_abs(blocks[0] - np.eye(2)) <= 1e-14
        assert max_abs(blocks[1] - np.array([[2.0, 1.0], [0.0, 3.0]])) <= 1e-14

    def test_rectangular_exits_4(self, tmp_path, capsys):
        src = tmp_path / "tall.csv"
        src.write_text("1.0,0.0\n0.0,1.0\n0.0,0.0\n")
        assert run(["qr", "--input", str(src), "--format", "csv"]) == 4
        assert "qr requires a square matrix" in capsys.readouterr().err

    def test_generated_matches_library(self, tmp_path):
        out = tmp_path / "qr.json"
        assert run(["qr", "--dims", "5x5", "--seed", "9", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        alpha, _ = generate_injective(np.random.default_rng(9), 5, 5)
        q, r = qr_decompose(alpha)
        assert np.array_equal(matrix_from_object(payload["q"]), q.matrix)
        assert np.array_equal(matrix_from_object(payload["r"]), r.to_dense())
        out = tmp_path / "qr.csv"
        assert run(
            ["qr", "--dims", "5x5", "--seed", "9", "--format", "csv", "--output", str(out)]
        ) == 0
        blocks = parse_matrix_blocks_csv(out.read_text())
        assert np.array_equal(blocks[0], q.matrix)
        assert np.array_equal(blocks[1], r.to_dense())


# Caps the child's address space at 512 MB, then runs the CLI on the
# arguments that follow the script.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from stiefel_retract import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["path", "--dims", "3x2", "--seed", "1", "--steps", str(2**40)],
        ["retract", "--dims", "100000x100000", "--seed", "1"],
    ],
    ids=["path-steps", "retract-dims"],
)
def test_counts_that_do_not_fit_in_memory_exit_2(argv):
    # Under the bound on counts, but far past memory: the child's address
    # space is capped, so the allocation fails at once instead of filling
    # the machine.
    package_root = str(Path(stiefel_retract.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestPath:
    def test_orthonormal_constant_rows(self, tmp_path, capsys):
        src = tmp_path / "eye.csv"
        src.write_text(format_matrix_csv(np.eye(3)))
        assert run(["path", "--input", str(src), "--format", "csv", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-12

    def test_format_mismatch_exits_2(self, tmp_path):
        src = tmp_path / "hand.csv"
        src.write_text("2.0,1.0\n0.0,3.0\n")
        # --format governs the input parser too; csv text is not JSON
        assert run(["path", "--input", str(src), "--steps", "2"]) == 2

    def test_hand_case_endpoints(self, tmp_path):
        src = tmp_path / "hand.json"
        src.write_text(format_matrix_json(np.array([[2.0, 1.0], [0.0, 3.0]])))
        out = tmp_path / "path.json"
        assert run(["path", "--input", str(src), "--steps", "2", "--output", str(out)]) == 0
        samples = json.loads(out.read_text())
        assert [s["t"] for s in samples] == [0.0, 1.0]
        assert np.array_equal(
            matrix_from_object(samples[0]["point"]), [[2.0, 1.0], [0.0, 3.0]]
        )
        assert max_abs(matrix_from_object(samples[1]["point"]) - np.eye(2)) <= 1e-14

    def test_generated_final_defect(self, tmp_path):
        out = tmp_path / "path.csv"
        assert run(
            [
                "path",
                "--dims",
                "4x2",
                "--seed",
                "7",
                "--steps",
                "11",
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        assert float(lines[-1].split(",")[-1]) <= 1e-10

    def test_matches_library_trace(self, tmp_path):
        out = tmp_path / "path.json"
        assert run(["path", "--dims", "4x2", "--seed", "7", "--output", str(out)]) == 0
        samples = json.loads(out.read_text())
        alpha, _ = generate_injective(np.random.default_rng(7), 4, 2)
        path = trace_path(alpha, 11)
        assert len(samples) == len(path.samples)
        for got, want in zip(samples, path.samples):
            assert got["t"] == want.t
            assert np.array_equal(matrix_from_object(got["point"]), want.point.matrix)

    def test_bad_steps_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["path", "--dims", "4x2", "--seed", "7", "--steps", "1"])
        assert excinfo.value.code == 2

    def test_steps_past_the_largest_array_exit_2_at_once(self, capsys):
        assert run(["path", "--dims", "4x2", "--seed", "7", "--steps", str(2**70)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_lauchli_input_inside_the_guarantee(self, tmp_path, capsys):
        # [1 ... 1; eps * I_40] with eps = sqrt(41) / 9e5, condition 8.89e5.
        src = tmp_path / "lauchli.json"
        eps = np.sqrt(41) / 9e5
        src.write_text(format_matrix_json(np.vstack([np.ones((1, 40)), eps * np.eye(40)])))
        codes = [
            run([sub, "--input", str(src), "--output", str(tmp_path / f"{sub}.json")])
            for sub in ("retract", "path")
        ]
        assert codes == [0, 0], capsys.readouterr().err
        frame = json.loads((tmp_path / "retract.json").read_text())["frame"]
        end = json.loads((tmp_path / "path.json").read_text())[-1]["point"]
        assert end == frame

    def test_coefficients_past_the_float_range_exit_0(self, tmp_path, capsys):
        # M's second diagonal entry, 1 / 1e-309, overflows; the path never forms M.
        src = tmp_path / "a.json"
        src.write_text(format_matrix_json(np.array([[1e-300, 0.0], [0.0, 1e-309]])))
        assert run(["path", "--input", str(src), "--steps", "5"]) == 0
        samples = json.loads(capsys.readouterr().out)
        low = 1.0 / 1e-300
        assert [s["min_diag"] for s in samples] == [(1 - t) + t * low for t in (0, 0.25, 0.5, 0.75, 1)]


class TestCheck:
    def test_batch_passes(self, capsys):
        assert run(["check", "--dims", "8x3", "--batch", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        reports = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        assert len(reports) == 5
        assert all(r["passed"] for r in reports)
        assert "passed 5/5" in out

    def test_impossible_tolerance_exits_1(self, capsys):
        assert (
            run(["check", "--dims", "8x3", "--batch", "2", "--seed", "1", "--tolerance", "1e-30"])
            == 1
        )
        out = capsys.readouterr().out
        reports = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        assert len(reports) == 2  # reports still emitted

    def test_trivial_group(self, capsys):
        assert run(["check", "--dims", "1x1", "--batch", "1", "--seed", "0"]) == 0
        assert "passed 1/1" in capsys.readouterr().out

    def test_input_mode(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        alpha, _ = generate_injective(np.random.default_rng(2), 5, 2)
        src.write_text(format_matrix_json(alpha.matrix))
        assert run(["check", "--input", str(src), "--seed", "4", "--batch", "2"]) == 0
        assert "passed 2/2" in capsys.readouterr().out

    def test_ill_conditioned_input_passes(self, tmp_path, capsys):
        # Condition 1e4: the coefficient defect reaches about 1e-9 in absolute
        # terms while max|M| is about 5e3; relative to that it is at roundoff.
        src = tmp_path / "a.json"
        alpha = conditioned_injective(np.random.default_rng(0), 12, 6, 1e4)
        src.write_text(format_matrix_json(alpha.matrix))
        assert run(["check", "--input", str(src), "--batch", "3", "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith("passed 3/3\n")

    def test_rank_deficient_input_exits_3_before_any_report(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1.0,2.0\n2.0,4.0\n")
        out = tmp_path / "never"
        argv = ["check", "--input", str(src), "--format", "csv", "--batch", "3", "--output", str(out)]
        assert run(argv) == 3
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_item_i_draws_from_seed_plus_i(self, tmp_path):
        argv = ["check", "--dims", "6x2", "--batch", "4", "--seed", "3", "--output"]
        outputs = [tmp_path / "first.json", tmp_path / "second.json"]
        for out in outputs:
            assert run([*argv, str(out)]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        lines = outputs[0].read_text().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            rng = np.random.default_rng(3 + i)
            alpha, _ = generate_injective(rng, 6, 2)
            o = random_rotation(6, int(rng.integers(0, 2**63)))
            report = check_equivariance(alpha, o, 1e-9)
            assert json.loads(line) == report_to_json_obj(report)

    def test_resampled_draws_counted_once_per_batch(self, monkeypatch, capsys):
        # Every other draw fails validation, so each item resamples once and
        # the batch reports its total on one line, as --dims does elsewhere.
        from stiefel_retract import sampling

        calls = []
        validate = sampling.validate_injective

        def reject_every_other(raw):
            calls.append(1)
            if len(calls) % 2:
                raise errors.RankDeficientError("injected")
            return validate(raw)

        monkeypatch.setattr(sampling, "validate_injective", reject_every_other)
        assert run(["retract", "--dims", "6x2", "--seed", "3"]) == 0
        assert capsys.readouterr().err == "resampled 1 draw(s) that failed validation\n"
        calls.clear()
        assert run(["check", "--dims", "6x2", "--batch", "3", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "resampled 3 draw(s) that failed validation\n"
        assert captured.out.endswith("passed 3/3\n")
        monkeypatch.undo()
        assert run(["check", "--dims", "6x2", "--batch", "3", "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""


#: The exit code of every error a subcommand can raise.
EXIT_CODES = {
    errors.StiefelRetractError: 2,
    errors.NonFiniteError: 2,
    errors.MatrixFormatError: 2,
    errors.NotOrthonormalError: 2,
    errors.DomainError: 2,
    errors.ZeroVectorError: 2,
    FileNotFoundError: 2,
    errors.RankDeficientError: 3,
    errors.NumericalRankLossError: 3,
    errors.InternalRankLossError: 3,
    errors.DimensionError: 4,
    MemoryError: 2,
}


class TestExitCodes:
    def test_table_covers_every_exported_error(self):
        exported = [getattr(stiefel_retract, name) for name in stiefel_retract.__all__]
        classes = {c for c in exported if isinstance(c, type) and issubclass(c, Exception)}
        assert classes <= set(EXIT_CODES)

    @pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda c: c.__name__)
    def test_error_maps_to_exit_code(self, error, monkeypatch, capsys):
        def fail(cfg):
            if error is errors.NotOrthonormalError:
                raise error("boom", deviation=1.0)
            raise error("boom")

        monkeypatch.setitem(cli.DISPATCH, "retract", fail)
        assert run(["retract", "--dims", "3x2", "--seed", "0"]) == EXIT_CODES[error]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: boom\n")

    def test_closed_stdout_exits_quietly(self):
        # `path ... | head -c 100`: the reader leaves long before the output
        # ends. Unbuffered stdout drops a short write silently, so the child
        # runs with the default buffered stdout, as the console script does.
        package_root = str(Path(stiefel_retract.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        argv = ["path", "--dims", "256x64", "--seed", "1", "--steps", "33"]
        writer = subprocess.Popen(
            [sys.executable, "-m", "stiefel_retract.cli", *argv],
            env={**env, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        reader = subprocess.Popen(["head", "-c", "100"], stdin=writer.stdout, stdout=subprocess.PIPE)
        writer.stdout.close()
        head, _ = reader.communicate(timeout=120)
        stderr = writer.stderr.read()
        writer.stderr.close()
        assert len(head) == 100
        assert (writer.wait(timeout=120), stderr) == (cli.EXIT_PIPE, b"")


class TestConfigValidation:
    def test_dims_without_seed_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["retract", "--dims", "4x2"])
        assert excinfo.value.code == 2

    def test_input_and_dims_rejected(self, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(format_matrix_json(np.eye(2)))
        with pytest.raises(SystemExit) as excinfo:
            run(["retract", "--input", str(src), "--dims", "2x2", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_neither_input_nor_dims_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["retract"])
        assert excinfo.value.code == 2

    def test_bad_dims_string_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["retract", "--dims", "4by2", "--seed", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("dims", ["0x3", "3x0"])
    def test_non_positive_dims_rejected(self, dims, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["retract", "--dims", dims, "--seed", "1"])
        assert excinfo.value.code == 2
        assert "dims must be positive" in capsys.readouterr().err

    def test_zero_batch_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["check", "--dims", "4x2", "--seed", "1", "--batch", "0"])
        assert excinfo.value.code == 2

    def test_bad_tolerance_rejected(self):
        for tolerance in ("0", "nan"):
            with pytest.raises(SystemExit) as excinfo:
                run(["check", "--dims", "4x2", "--seed", "1", "--tolerance", tolerance])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["retract", "--dims", "3x2", "--seed", "-1"],
            ["path", "--dims", "3x2", "--seed", "-1"],
            ["qr", "--dims", "3x3", "--seed", "-1"],
            ["check", "--dims", "3x2", "--seed", "-3", "--batch", "2"],
            ["selftest", "--seed", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        assert "--seed must be non-negative" in capsys.readouterr().err


#: Runs each command line of the JSON list in argv[1] through ``cli.main``
#: in one process and prints the exit codes and stdout digests.
CLI_DIGESTS = """
import contextlib, hashlib, io, json, sys
from stiefel_retract import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(results))
"""


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        for argv in (
            ["retract", "--dims", "8x3", "--seed", "11"],
            ["path", "--dims", "4x2", "--seed", "7", "--steps", "11", "--format", "csv"],
        ):
            payloads = []
            for k in (0, 1):
                out = tmp_path / f"out{k}"
                assert run([*argv, "--output", str(out)]) == 0
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1]

    def test_stdout_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS reads its thread count when it loads, so each count gets
        # its own process. The shapes are large enough for threaded BLAS
        # calls in the sweep, the SVDs and the path's products.
        commands = [
            ["qr", "--dims", "256x256", "--seed", "2"],
            ["qr", "--dims", "64x64", "--seed", "9"],
            ["qr", "--dims", "300x300", "--seed", "1"],
            ["retract", "--dims", "2000x100", "--seed", "3"],
            ["retract", "--dims", "1000x100", "--seed", "2"],
            # Narrow and very tall: blocks that take the guard's column pass.
            ["retract", "--dims", "20000x8", "--seed", "5"],
            ["retract", "--dims", "8192x16", "--seed", "5"],
            ["path", "--dims", "500x120", "--seed", "4", "--steps", "7"],
            # The step's eigenvalue bound decides which samples take the SVD;
            # the output must not depend on that choice.
            ["path", "--dims", "256x64", "--seed", "5", "--steps", "33"],
            ["check", "--dims", "128x64", "--batch", "3", "--seed", "5"],
        ]
        package_root = str(Path(stiefel_retract.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        results = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", CLI_DIGESTS, json.dumps(commands)],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            results.append(dict(zip(map(" ".join, commands), json.loads(proc.stdout))))
        assert all(code == 0 for code, _ in results[0].values())
        assert results[0] == results[1]


class TestValidationCount:
    @pytest.mark.parametrize(
        "argv",
        [
            ["retract", "--dims", "8x3", "--seed", "11"],
            ["path", "--dims", "6x3", "--seed", "1", "--steps", "5"],
            ["qr", "--dims", "16x16", "--seed", "2"],
        ],
    )
    def test_generated_input_validated_once(self, argv, monkeypatch, capsys):
        # The generator validates its draw; the command reuses that map
        # rather than running a second m x d SVD on the same matrix.
        from stiefel_retract import sampling

        calls = []
        validate = cli.validate_injective

        def counted(raw, *args, **kwargs):
            calls.append(raw)
            return validate(raw, *args, **kwargs)

        monkeypatch.setattr(cli, "validate_injective", counted)
        monkeypatch.setattr(sampling, "validate_injective", counted)
        assert run(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestParserReuse:
    def test_tolerance_default_survives_an_override(self, capsys):
        argv = ["check", "--dims", "6x2", "--batch", "2", "--seed", "3"]
        assert run([*argv, "--tolerance", "1e-30"]) == 1
        assert run(argv) == 0
        assert capsys.readouterr().out.endswith("passed 2/2\n")

    @pytest.mark.parametrize(
        "bad",
        [
            ["check", "--dims", "4by2", "--seed", "1"],
            ["check", "--dims", "4x2", "--seed", "1", "--batch", "0"],
            ["path", "--dims", "4x2", "--seed", "1", "--steps", "1"],
        ],
    )
    def test_rejected_call_leaves_parser_usable(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(bad)
        assert excinfo.value.code == 2
        assert run(["check", "--dims", "4x2", "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith("passed 1/1\n")

    def test_parser_built_at_most_once(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (
            ["retract", "--dims", "3x2", "--seed", "1"],
            ["qr", "--dims", "3x3", "--seed", "2"],
            ["check", "--dims", "3x2", "--seed", "3"],
        ):
            assert run(argv) == 0
        assert len(built) <= 1
        assert cli.build_parser() is not cli.build_parser()


class TestSelftest:
    def test_fault_injection_fails_orthonormality_row(self, tmp_path, capsys, monkeypatch):
        real_sweep = gram_schmidt._sweep

        def broken(a):
            q, r = real_sweep(a)
            q[:, -1] += q[:, 0]
            return q, r

        monkeypatch.setattr(gram_schmidt, "_sweep", broken)
        assert run(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  criterion-1-orthonormality" in out

"""Command-line interface.

Subcommands: ``retract`` (orthonormalize a matrix), ``path`` (sample the
homotopy), ``qr`` (positive-diagonal QR), ``check`` (equivariance reports)
and ``selftest`` (the acceptance criteria). Matrices are read and written in
the shared JSON/CSV formats with round-trip-exact numbers.

Exit codes: 0 success, 1 property failure, 2 parse error, 3 rank failure,
4 shape mismatch, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import selftest as selftest_mod
from .core import InjectiveMap, max_abs, orthonormality_defect, validate_injective
from .equivariance import check_equivariance, random_rotation, report_to_json_obj
from .errors import (
    DimensionError,
    InternalRankLossError,
    MatrixFormatError,
    NumericalRankLossError,
    RankDeficientError,
    StiefelRetractError,
)
from .gram_schmidt import qr_decompose, retract
from .homotopy import path_to_csv, path_to_json_obj, trace_path
from .matio import (
    format_matrix_blocks_csv,
    format_matrix_csv,
    matrix_to_object,
    parse_matrix_csv,
    parse_matrix_json,
)
from .sampling import generate_injective

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_RANK = 3
EXIT_SHAPE = 4
#: What a shell reports for a process stopped by SIGPIPE.
EXIT_PIPE = 141


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m_str, d_str = text.lower().split("x")
        m, d = int(m_str), int(d_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like MxD, got {text!r}")
    if m < 1 or d < 1:
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return m, d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-retract",
        description="Gram-Schmidt retraction onto the Stiefel manifold, "
        "its straight-line homotopy, positive-diagonal QR and "
        "rotation-equivariance checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", dest="input_path", metavar="PATH")
        source.add_argument("--dims", type=_parse_dims, metavar="MxD")
        p.add_argument("--output", dest="output_path", metavar="PATH")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int)
        return p

    add_io(sub.add_parser("retract", help="orthonormalize a matrix"))
    path = add_io(sub.add_parser("path", help="sample the homotopy"))
    path.add_argument("--steps", type=int, default=11)
    add_io(sub.add_parser("qr", help="positive-diagonal QR of a square matrix"))
    check = add_io(sub.add_parser("check", help="equivariance reports"))
    check.add_argument("--tolerance", type=float, default=1e-9)
    check.add_argument("--batch", type=int, default=1)
    st = sub.add_parser("selftest", help="run the acceptance criteria")
    st.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Building the parser costs more than most subcommands on small inputs;
    # parse_args keeps no state between calls, so one parser serves them all.
    return build_parser()


def parse_config(argv) -> argparse.Namespace:
    parser = _shared_parser()
    ns = parser.parse_args(argv)
    if ns.seed is not None and ns.seed < 0:
        parser.error("--seed must be non-negative")
    if ns.subcommand != "selftest":
        if ns.dims is not None and ns.seed is None:
            parser.error("--seed is required when generating from --dims")
        if ns.subcommand == "path" and ns.steps < 2:
            parser.error("--steps must be at least 2")
        if ns.subcommand == "check":
            if not ns.tolerance > 0.0:
                parser.error("--tolerance must be positive")
            if ns.batch < 1:
                parser.error("--batch must be at least 1")
    return ns


def _load_matrix(cfg: argparse.Namespace) -> np.ndarray:
    try:
        text = Path(cfg.input_path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"input is not text: {exc}") from exc
    if cfg.format == "json":
        return parse_matrix_json(text)
    return parse_matrix_csv(text)


def _obtain_input(cfg: argparse.Namespace, square: bool = False) -> InjectiveMap:
    """The validated input map, read from ``--input`` or drawn from ``--dims``.

    A drawn map is validated once, by the generator. With ``square``, a
    non-square ``--input`` raises ``DimensionError`` before validation, so it
    exits as a shape error even when it is also rank deficient; a drawn
    non-square map reaches the same error in ``qr_decompose``.
    """
    if cfg.input_path is not None:
        raw = _load_matrix(cfg)
        if square and raw.shape[0] != raw.shape[1]:
            raise DimensionError("qr requires a square matrix")
        return validate_injective(raw)
    rng = np.random.default_rng(cfg.seed)
    alpha, resamples = generate_injective(rng, *cfg.dims)
    _report_resamples(resamples)
    return alpha


def _report_resamples(count: int) -> None:
    if count:
        print(f"resampled {count} draw(s) that failed validation", file=sys.stderr)


def _write_output(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_retract(cfg: argparse.Namespace) -> int:
    alpha = _obtain_input(cfg)
    frame = retract(alpha)
    diagnostics = {
        "ortho_defect": orthonormality_defect(frame.matrix),
        "condition_estimate": alpha.condition_estimate,
    }
    if cfg.format == "json":
        payload = json.dumps({"frame": matrix_to_object(frame.matrix), "diagnostics": diagnostics})
        _write_output(cfg, payload + "\n")
    else:
        _write_output(cfg, format_matrix_csv(frame.matrix))
        print(json.dumps(diagnostics), file=sys.stderr)
    return EXIT_OK


def cmd_path(cfg: argparse.Namespace) -> int:
    alpha = _obtain_input(cfg)
    path = trace_path(alpha, cfg.steps)
    if cfg.format == "json":
        _write_output(cfg, json.dumps(path_to_json_obj(path)) + "\n")
    else:
        _write_output(cfg, path_to_csv(path))
    return EXIT_OK


def cmd_qr(cfg: argparse.Namespace) -> int:
    alpha = _obtain_input(cfg, square=True)
    q, triangle = qr_decompose(alpha)
    r = triangle.matrix
    defect = max_abs(q.matrix @ r - alpha.matrix)
    if cfg.format == "json":
        payload = json.dumps(
            {
                "q": matrix_to_object(q.matrix),
                "r": matrix_to_object(r),
                "reconstruction_defect": defect,
            }
        )
        _write_output(cfg, payload + "\n")
    else:
        _write_output(cfg, format_matrix_blocks_csv([q.matrix, r]))
        print(json.dumps({"reconstruction_defect": defect}), file=sys.stderr)
    return EXIT_OK


def _check_item(cfg: argparse.Namespace, index: int, fixed: InjectiveMap | None):
    """Report of batch item ``index``, and the draws resampled to make its input."""
    rng = np.random.default_rng((cfg.seed or 0) + index)
    alpha, resamples = (fixed, 0) if fixed is not None else generate_injective(rng, *cfg.dims)
    o = random_rotation(alpha.matrix.shape[0], int(rng.integers(0, 2**63)))
    return check_equivariance(alpha, o, tolerance=cfg.tolerance), resamples


def cmd_check(cfg: argparse.Namespace) -> int:
    fixed = _obtain_input(cfg) if cfg.input_path is not None else None
    reports, resamples = zip(*[_check_item(cfg, i, fixed) for i in range(cfg.batch)])
    _report_resamples(sum(resamples))
    lines = [json.dumps(report_to_json_obj(rep)) for rep in reports]
    _write_output(cfg, "\n".join(lines) + "\n")
    passed = sum(rep.passed for rep in reports)
    print(f"passed {passed}/{len(reports)}")
    return EXIT_OK if passed == len(reports) else EXIT_PROPERTY


def cmd_selftest(cfg: argparse.Namespace) -> int:
    results = selftest_mod.run_all(cfg.seed)
    print(selftest_mod.format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


DISPATCH = {
    "retract": cmd_retract,
    "path": cmd_path,
    "qr": cmd_qr,
    "check": cmd_check,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    cfg = parse_config(argv)
    try:
        code = DISPATCH[cfg.subcommand](cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Stop quietly, with stdout on devnull so
        # that the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (RankDeficientError, NumericalRankLossError, InternalRankLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (StiefelRetractError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

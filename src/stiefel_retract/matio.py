"""Matrix text formats shared by all tools.

JSON form: ``{"rows": m, "cols": d, "data": [row-major numbers]}``.
CSV form: one matrix row per line, comma separated. Both parsers reject
ragged rows. Numbers are written with ``repr``, which is round-trip exact,
so anything written here re-parses to identical floats.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MatrixFormatError


def _text(text, kinds=(str,)):
    if not isinstance(text, kinds):
        raise MatrixFormatError(f"expected matrix text, got {type(text).__name__}")
    return text


def matrix_to_object(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": a.reshape(-1, order="C").tolist(),
    }


def matrix_from_object(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFormatError("expected a JSON object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixFormatError(f"missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not isinstance(rows, int) or not isinstance(cols, int) or isinstance(rows, bool) or isinstance(cols, bool):
        raise MatrixFormatError("rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"rows and cols must be positive, got {rows}x{cols}")
    if not isinstance(data, list):
        raise MatrixFormatError("data must be a list of numbers")
    if len(data) != rows * cols:
        raise MatrixFormatError(
            f"data holds {len(data)} entries, expected rows*cols = {rows * cols}"
        )
    for x in data:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise MatrixFormatError(f"non-numeric entry {x!r}")
    try:
        return np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError as exc:
        raise MatrixFormatError(f"entry outside the float range: {exc}") from exc


def format_matrix_json(a: np.ndarray) -> str:
    return json.dumps(matrix_to_object(a))


def parse_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(_text(text, (str, bytes, bytearray)))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    return matrix_from_object(obj)


def format_matrix_csv(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=float)
    lines = [",".join(map(repr, row)) for row in a.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(_text(text).splitlines(), start=1):
        if not line.strip():
            raise MatrixFormatError(f"line {lineno}: blank line inside matrix")
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise MatrixFormatError(
                f"line {lineno}: ragged row ({len(parts)} fields, expected {width})"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise MatrixFormatError("empty matrix text")
    return np.array(rows, dtype=float)


def format_matrix_blocks_csv(mats: list[np.ndarray]) -> str:
    """Several matrices as CSV blocks separated by one blank line."""
    return "\n".join(format_matrix_csv(a) for a in mats)


def parse_matrix_blocks_csv(text: str) -> list[np.ndarray]:
    blocks = [b for b in _text(text).split("\n\n") if b.strip()]
    if not blocks:
        raise MatrixFormatError("no matrix blocks found")
    return [parse_matrix_csv(b.strip("\n") + "\n") for b in blocks]

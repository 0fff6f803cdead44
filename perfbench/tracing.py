"""Spans around the calls into each package module, for the traced run only.

:class:`Tracer` rebinds the public functions of each layer (``core``,
``gram_schmidt``, ``homotopy``, ``equivariance``, ``matio``, ``sampling``,
``cli``) to timing wrappers, in the defining module and in every package
module that imported the name, and puts every binding back on
:meth:`Tracer.uninstall`. ``selftest`` is left out on purpose: it is a test
suite, and timing it would reward dropping checks.

A span is ``[name, start, end, parent, info]``. Spans stay in memory until
the run ends; :func:`layer_metrics` turns them into per-op figures.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: layer -> public functions wrapped in that layer. Names missing from the
#: package are skipped, so the tracer keeps working as the API shrinks.
LAYER_FUNCTIONS = {
    "core": (
        "validate_injective",
        "validate_frame",
        "validate_rotation",
        "orthonormality_defect",
        "tri_solve_inverse",
    ),
    "gram_schmidt": (
        "orthonormalize",
        "retract",
        "coefficient_matrix",
        "qr_decompose",
    ),
    "homotopy": (
        "trace_path",
        "homotopy_step",
        "path_to_csv",
        "path_to_json_obj",
    ),
    "equivariance": (
        "check_equivariance",
        "random_rotation",
        "act",
        "act_on_frame",
        "report_to_json_obj",
    ),
    "matio": (
        "matrix_to_object",
        "matrix_from_object",
        "format_matrix_json",
        "parse_matrix_json",
        "format_matrix_csv",
        "parse_matrix_csv",
        "format_matrix_blocks_csv",
        "parse_matrix_blocks_csv",
    ),
    "sampling": ("generate_injective",),
    "cli": ("main",),
}

#: Methods wrapped on classes: (layer, class name, classmethod name).
LAYER_CLASSMETHODS = (("core", "UpperTriangularPositive", "from_dense"),)

PACKAGE = "stiefel_retract"

#: Modules whose namespaces are searched for imported copies of wrapped names.
REBIND_MODULES = ("", ".core", ".gram_schmidt", ".homotopy", ".equivariance",
                  ".matio", ".sampling", ".cli")

#: Spans the sweep's cost is attributed to (self time excludes children).
FACTORIZATIONS = ("gram_schmidt.orthonormalize", "gram_schmidt.qr_decompose")

def _modules():
    return [importlib.import_module(PACKAGE + suffix) for suffix in REBIND_MODULES]


def _matrix_shape(args):
    matrix = getattr(args[0], "matrix", None) if args else None
    return getattr(matrix, "shape", None)


def _text_len(args):
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _info_hooks(name):
    """(before, after) hooks that fill a span's info from args / result."""
    if name in FACTORIZATIONS:
        return (lambda args, kwargs: {"shape": _matrix_shape(args)}), None
    if name == "homotopy.trace_path":
        return None, lambda result: {"samples": len(getattr(result, "samples", ()))}
    if name == "sampling.generate_injective":
        return None, lambda result: {"resamples": int(result[1])}
    if name == "cli.main":
        return (lambda args, kwargs: {"argv": list(args[0] if args else kwargs.get("argv") or ())}
                ), None
    if name.startswith("matio.parse_"):
        return (lambda args, kwargs: {"bytes": _text_len(args)}), None
    if name.startswith("matio.format_"):
        return None, lambda result: {"bytes": len(result) if isinstance(result, str) else 0}
    return None, None


class Tracer:
    """Records spans from rebound package functions between
    :meth:`install` and :meth:`uninstall`."""

    def __init__(self, reorth_threshold: float):
        self.spans: list[list] = []
        self.pool_workers: list[int] = []
        self._reorth_threshold = reorth_threshold
        self._local = threading.local()
        self._main_stack: list[list] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, info=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread inherits the span the submitting (main) thread
            # is blocked in.
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, 0.0, 0.0, parent, info]
        stack.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, reorth_test: bool = False):
        """``reorth_test`` marks the ``orthonormality_defect`` bound in
        ``gram_schmidt``'s own namespace, i.e. ``_factorize``'s
        reorthogonalization test; its span records whether it fired."""
        before, after = _info_hooks(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = tracer.open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                span[4] = after(result)
            if reorth_test:
                span[4] = {"fired": float(result) > tracer._reorth_threshold}
            return result

        return traced

    def _pool_factory(self, pool_cls):
        tracer = self

        def make_pool(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else None)
            tracer.pool_workers.append(int(workers or 1))
            return pool_cls(*args, **kwargs)

        return make_pool

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = _modules()
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = importlib.import_module(f"{PACKAGE}.{layer}")
                for fname in names:
                    orig = home.__dict__.get(fname)
                    if not callable(orig):
                        continue
                    wrapped = self.wrap(f"{layer}.{fname}", orig)
                    for mod in modules:
                        for attr, value in list(mod.__dict__.items()):
                            if value is not orig:
                                continue
                            if (layer, fname) == ("core", "orthonormality_defect") \
                                    and mod.__name__ == f"{PACKAGE}.gram_schmidt":
                                self._set(mod, attr, self.wrap(f"{layer}.{fname}", orig,
                                                               reorth_test=True))
                            else:
                                self._set(mod, attr, wrapped)
            for layer, cls_name, meth in LAYER_CLASSMETHODS:
                cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name, None)
                bound = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(bound, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(f"{layer}.{meth}", bound.__func__)))
            cli = importlib.import_module(f"{PACKAGE}.cli")
            if "ThreadPoolExecutor" in cli.__dict__:
                self._set(cli, "ThreadPoolExecutor", self._pool_factory(cli.ThreadPoolExecutor))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _has_ancestor(span, prefix: str) -> bool:
    parent = span[3]
    while parent is not None:
        if parent[0].startswith(prefix):
            return True
        parent = parent[3]
    return False


def layer_metrics(spans: list[list], ops: int, pool_workers: list[int]) -> dict[str, float]:
    """Per-op layer figures from the spans of a traced run of ``ops`` ops.

    ``calls`` and ``ms`` are per op; ``self_ms`` subtracts the union of the
    child spans' intervals, clipped to the parent.
    """
    ops = max(ops, 1)
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append(s)

    def dur(s):
        return s[2] - s[1]

    def self_time(s):
        kids = [(max(k[1], s[1]), min(k[2], s[2])) for k in children.get(id(s), ())]
        return dur(s) - _union_length([iv for iv in kids if iv[1] > iv[0]])

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    out: dict[str, float] = {}

    def named(name, *kinds):
        group = by_name.get(name, [])
        if "calls" in kinds:
            out[f"{name}.calls"] = len(group) / ops
        if "ms" in kinds:
            out[f"{name}.ms"] = 1e3 * sum(dur(s) for s in group) / ops
        if "self_ms" in kinds:
            out[f"{name}.self_ms"] = 1e3 * sum(self_time(s) for s in group) / ops

    for name in ("core.validate_injective", "core.validate_frame",
                 "core.orthonormality_defect", "core.tri_solve_inverse",
                 "core.from_dense"):
        named(name, "calls", "ms")
    for name in FACTORIZATIONS:
        named(name, "calls", "ms", "self_ms")

    factorizations = [s for n in FACTORIZATIONS for s in by_name.get(n, [])]
    fired = {id(s[3]) for s in by_name.get("core.orthonormality_defect", [])
             if s[4] and s[4].get("fired")}
    reorths = sum(1 for s in factorizations if id(s) in fired)
    out["gram_schmidt.reorth_ratio"] = reorths / len(factorizations) if factorizations else 0.0
    flops = sweep_s = 0.0
    for s in factorizations:
        shape = (s[4] or {}).get("shape")
        if shape:
            m, d = shape
            flops += 2.0 * m * d * d * (2 if id(s) in fired else 1)
        sweep_s += self_time(s)
    out["gram_schmidt.gflop_s"] = flops / sweep_s / 1e9 if sweep_s > 0 else 0.0

    named("homotopy.trace_path", "calls", "ms", "self_ms")
    out["homotopy.samples"] = sum((s[4] or {}).get("samples", 0)
                                  for s in by_name.get("homotopy.trace_path", [])) / ops
    out["homotopy.revalidate_ms"] = 1e3 * sum(
        dur(s) for s in by_name.get("core.validate_injective", [])
        if _has_ancestor(s, "homotopy.")) / ops
    out["homotopy.serialize_ms"] = 1e3 * sum(
        dur(s) for n in ("homotopy.path_to_json_obj", "homotopy.path_to_csv")
        for s in by_name.get(n, []) if not _has_ancestor(s, "homotopy.path_to_")) / ops

    named("equivariance.check_equivariance", "calls", "ms", "self_ms")
    named("equivariance.random_rotation", "calls", "ms")

    outer_matio = [s for s in spans if s[0].startswith("matio.") and not _has_ancestor(s, "matio.")]
    parse = [s for s in outer_matio if s[0].startswith(("matio.parse_", "matio.matrix_from_"))]
    fmt = [s for s in outer_matio if s[0].startswith(("matio.format_", "matio.matrix_to_"))]
    out["matio.parse_ms"] = 1e3 * sum(dur(s) for s in parse) / ops
    out["matio.format_ms"] = 1e3 * sum(dur(s) for s in fmt) / ops
    out["matio.bytes"] = sum((s[4] or {}).get("bytes", 0) for s in parse + fmt) / ops

    named("sampling.generate_injective", "calls", "ms")
    out["sampling.generate_injective.resamples"] = sum(
        (s[4] or {}).get("resamples", 0)
        for s in by_name.get("sampling.generate_injective", [])) / ops

    named("cli.main", "calls", "ms", "self_ms")
    checks = [s for s in by_name.get("cli.main", [])
              if (s[4] or {}).get("argv", [None])[:1] == ["check"]]
    workers = max(pool_workers) if pool_workers else (1 if checks else 0)
    out["cli.check.workers"] = float(workers)
    check_ids = {id(s) for s in checks}
    busy = sum(dur(k) for k in by_name.get("equivariance.check_equivariance", [])
               if _ancestor_ids(k) & check_ids)
    wall = sum(dur(s) for s in checks) * max(workers, 1)
    out["cli.check.busy_ratio"] = busy / wall if wall > 0 else 0.0
    return out


def _ancestor_ids(span) -> set[int]:
    ids, parent = set(), span[3]
    while parent is not None:
        ids.add(id(parent))
        parent = parent[3]
    return ids

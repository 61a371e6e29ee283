"""Span recorder for the benchmark's traced runs.

A traced run replaces public attributes of the cimeval modules with
wrappers that record a span per call: layer name, parent span, start, end
and the operation the span belongs to.  The wrappers are installed at run
time and removed again afterwards; no file of the package changes.  Every
module namespace that holds a reference to a wrapped function is patched,
so calls through names imported with ``from .engine import search`` are
seen too.

A layer's self time is its span's duration minus the time its child spans
cover.  Each traced operation runs inside a root span named ``other``, so
the self times of all layers plus ``other`` add up to the operation's wall
time exactly.

Functions called once per candidate or per nest point (``bounds_at``,
``bounds_ok``, ``objective_value``, ``oracle_energy``) are deliberately
not wrapped: a wrapper costs about a microsecond, which would distort the
scan and oracle figures it is meant to measure.  Their time is the self
time of the enclosing ``engine.scan`` or ``engine.oracle`` span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

OTHER = "other"

# (layer name, module, attribute).  "Class.method" wraps a method.
TARGETS = (
    ("archspec.parse", "archspec", "parse_arch"),
    ("archspec.parse", "archspec", "validate"),
    ("workload.parse", "workload", "parse_workload"),
    ("valuemodel.encode", "valuemodel", "encode_pmf"),
    ("valuemodel.slice", "valuemodel", "slice_pmf"),
    ("mapping.plan", "mapping", "build_count_plan"),
    ("mapping.space_build", "mapping", "MappingSpace.__init__"),
    ("mapping.draw", "mapping", "MappingSpace.draw_indices"),
    ("mapping.check_valid", "mapping", "check_valid"),
    ("mapping.enumerate", "mapping", "enumerate_mappings"),
    ("engine.table", "engine", "LayerEvaluator.__init__"),
    ("engine.context", "engine", "build_action_context"),
    ("engine.evaluate", "engine", "LayerEvaluator.evaluate"),
    ("engine.scan", "engine", "search"),
    ("engine.oracle", "engine", "oracle_evaluate"),
    ("cli.main", "cli", "main"),
)
ENERGY_PER_ACTION = "components.energy_per_action"
GENERATORS = frozenset({"mapping.enumerate"})
LAYERS = (OTHER, ENERGY_PER_ACTION) + tuple(dict.fromkeys(t[0] for t in TARGETS))


def _after_encode(rec, args, result):
    rec.counts["valuemodel.levels_enumerated"] += len(args[0].support)


def _after_slice(rec, args, result):
    rec.counts["valuemodel.levels_enumerated"] += len(args[0].support) * len(
        args[1].widths
    )


def _after_space(rec, args, result):
    rec.counts["mapping.space_total"] += args[0].total


def _after_draw(rec, args, result):
    rec.counts["mapping.drawn"] += len(result)


def _after_search(rec, args, result):
    if result is not None:
        rec.counts["mapping.valid"] += result.valid
        rec.counts["engine.candidates"] += result.evaluated


def _after_enumerate(rec, args, result):
    rec.counts["mapping.valid"] += 1


def _after_table(rec, args, result):
    rec.counts["engine.table_entries"] += len(args[0].table.entries)


def _after_oracle(rec, args, result):
    rec.counts["engine.oracle_points"] += result.macs


AFTER = {
    "valuemodel.encode": _after_encode,
    "valuemodel.slice": _after_slice,
    "mapping.space_build": _after_space,
    "mapping.draw": _after_draw,
    "engine.scan": _after_search,
    "mapping.enumerate": _after_enumerate,
    "engine.table": _after_table,
    "engine.oracle": _after_oracle,
}
COUNTS = (
    "valuemodel.levels_enumerated",
    "mapping.space_total",
    "mapping.drawn",
    "mapping.valid",
    "engine.candidates",
    "engine.table_entries",
    "engine.oracle_points",
)


class Tracer:
    """Records spans while installed; keeps them in memory until written."""

    def __init__(self):
        self.names = list(LAYERS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = dict.fromkeys(self.names, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []  # [span index, name, child time]
        self._op = -1
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def run_op(self, op_id: int, fn, *args):
        """Run one operation, traced, inside a root span.

        The wrappers are in place only for the operation itself, so the
        benchmark's checks of its output are never traced.  Returns the
        operation's result and wall time.
        """
        self.install()
        try:
            self._op = op_id
            root = len(self.span_start)
            self._enter(OTHER)
            try:
                result = fn(*args)
            finally:
                self._exit()
                self._op = -1
        finally:
            self.uninstall()
        return result, self.span_end[root] - self.span_start[root]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self
        after = AFTER.get(name)
        if name in GENERATORS:

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    rec._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec._exit()
                    if after is not None:
                        after(rec, args, item)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every cimeval namespace that refers to a traced callable."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "cimeval"]
        for name, modname, attr in TARGETS:
            module = importlib.import_module(f"cimeval.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(module, cls_name), meth, name)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)
        components = importlib.import_module("cimeval.components")
        registry = components.DEFAULT_REGISTRY
        classes = {type(registry.get(k)) for k in registry.known()}
        for cls in sorted(classes, key=lambda c: c.__name__):
            if "energy_per_action" in vars(cls):
                self._patch_method(cls, "energy_per_action", ENERGY_PER_ACTION)

    def _patch_method(self, cls, meth: str, name: str) -> None:
        orig = vars(cls)[meth]
        self._saved.append((cls, meth, orig))
        setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span, columnar, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)

"""Span tracing of the library's modules, installed from the benchmark side.

The library source is not edited.  `Tracer.installed()` replaces each traced
function with a wrapper in every module that binds it (the defining module,
the package namespace, and modules that imported it by name, such as
`automorphism.to_idempotent` or `cli.verify_homomorphism`), and methods on
their classes.  Each wrapped call records one span; for a generator each
`next()` is a span.  Spans carry name, start, end, parent span and the id of
the benchmark op that caused them.  They are kept in flat arrays and written
out when the run ends.  Exact call and item counts in the traced run prove
that every binding was patched.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []

    # ---- spans and counters ----

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    # ---- summaries ----

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (number of spans, total self time in seconds)."""
        if not self.start:
            return {}
        own = self_times(self.start, self.end, self.parent)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(busy[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # ---- installation ----

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced binding for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, path, stem, kind in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                wrapper = _WRAPPERS[kind](self, original, stem)
                if isinstance(owner, type):
                    bindings = [owner]
                else:
                    bindings = [
                        m for name, m in list(sys.modules.items())
                        if name == "multicomplex" or name.startswith("multicomplex.")
                    ]
                for holder in bindings:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, name, value))
                            setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, value in reversed(restore):
                setattr(holder, name, value)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


# ---------------------------------------------------------------------------
# wrappers


def _call(tracer: Tracer, fn: Callable, stem: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(stem)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _call_with_checks(tracer: Tracer, fn: Callable, stem: str) -> Callable:
    """A call span that also adds the returned report's check count."""
    inner = _call(tracer, fn, stem)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        report = inner(*args, **kwargs)
        tracer.count(stem + ".checks", report.checks)
        return report
    return wrapper


def _mul(tracer: Tracer, fn: Callable, stem: str) -> Callable:
    """A call span that also counts term pairs: the product of the operands'
    support sizes, the work of the direct convolution."""
    inner = _call(tracer, fn, stem)

    @functools.wraps(fn)
    def wrapper(a, b):
        coeffs_b = getattr(b, "coeffs", None)
        if coeffs_b is not None:
            pairs = sum(1 for c in a.coeffs if c) * sum(1 for c in coeffs_b if c)
            tracer.count(stem + ".term_pairs", pairs)
        return inner(a, b)
    return wrapper


def _counted(tracer: Tracer, fn: Callable, stem: str) -> Callable:
    """A count of calls without spans, for constructors too hot to span."""
    counters = tracer.counters
    counters.setdefault(stem, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[stem] += 1
        return fn(*args, **kwargs)
    return wrapper


def _generator(tracer: Tracer, fn: Callable, stem: str, spans: bool = True) -> Callable:
    items = stem + ".items"

    def traced(inner):
        while True:
            idx = tracer.open(stem) if spans else -1
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if spans:
                    tracer.close(idx)
            tracer.count(items)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return traced(fn(*args, **kwargs))
    return wrapper


_WRAPPERS = {
    "call": _call,
    "checks": _call_with_checks,
    "mul": _mul,
    "count": _counted,
    "generator": _generator,
    "items": functools.partial(_generator, spans=False),
}

# (module, attribute path, span or counter name, wrapper kind)
TARGETS = [
    ("mc_core", "MulticomplexNumber.__mul__", "mc_core.mul", "mul"),
    ("mc_core", "MulticomplexNumber.__add__", "mc_core.add", "call"),
    ("mc_core", "MulticomplexNumber.scale", "mc_core.scale", "call"),
    ("mc_core", "DyadicRational.__init__", "mc_core.dyadic.created", "count"),
    ("idempotent", "to_idempotent", "idempotent.to_idempotent", "call"),
    ("idempotent", "from_idempotent", "idempotent.from_idempotent", "call"),
    ("idempotent", "componentwise_mul", "idempotent.componentwise_mul", "call"),
    ("automorphism", "Automorphism.apply", "automorphism.apply", "call"),
    ("automorphism", "Automorphism.element_order", "automorphism.element_order", "call"),
    ("automorphism", "enumerate_automorphisms",
     "automorphism.enumerate_automorphisms", "generator"),
    ("special_elements", "special_element_for_pattern",
     "special_elements.special_element_for_pattern", "call"),
    ("special_elements", "enumerate_special",
     "special_elements.enumerate_special", "generator"),
    ("counting", "count_involutions", "counting.count_involutions", "call"),
    ("counting", "count_r_involutions", "counting.count_r_involutions", "call"),
    ("counting", "cycle_types_with_parts_dividing", "counting.cycle_types", "items"),
    ("counting", "count_automorphisms", "counting.count_automorphisms", "call"),
    ("counting", "count_preserving", "counting.count_preserving", "call"),
    ("counting", "g_sequence", "counting.g_sequence", "call"),
    ("counting", "asymptotic_estimate", "counting.asymptotic_estimate", "call"),
    ("gf2_preserving", "enumerate_preserving_involutions",
     "gf2_preserving.enumerate_preserving_involutions", "generator"),
    ("gf2_preserving", "solve", "gf2_preserving.solve", "call"),
    ("gf2_preserving", "enumerate_subspaces_containing_e",
     "gf2_preserving.enumerate_subspaces_containing_e", "items"),
    ("oracle", "verify_homomorphism", "oracle.verify_homomorphism", "checks"),
    ("oracle", "verify_special_sets", "oracle.verify_special_sets", "checks"),
    ("oracle", "brute_count_r_involutions", "oracle.brute_count_r_involutions", "call"),
]


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner = sys.modules[f"multicomplex.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def layer_metrics(tracer: Tracer, names: list[str], passes: int) -> dict[str, float]:
    """Per-pass values of the named per-layer metrics.

    `<stem>.calls` counts spans and `<stem>.self_s` sums their self time;
    any other name is a counter.  A layer the workload never enters reads 0.
    """
    totals = tracer.layer_totals()
    out = {}
    for name in names:
        stem, _, suffix = name.rpartition(".")
        if suffix == "calls":
            value = totals.get(stem, (0, 0.0))[0]
        elif suffix == "self_s":
            value = totals.get(stem, (0, 0.0))[1]
        else:
            value = tracer.counters.get(name, 0)
        out[name] = value / passes
    return out

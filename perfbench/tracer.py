"""Spans around chorddiag's layers, kept in memory, and the figures read from them.

``Tracer.instrument`` replaces every public function of the traced modules,
the arithmetic and analytic methods of ``PowerSeries`` and the CLI's suite
table by wrappers that record one span per call: (id, parent, name, start,
end, attrs). ``restore`` puts the originals back; the program's files are
never changed. A span's name is ``<layer>.<function>``; the layer names are
the keys of ``layer_modules``. Spans opened in a worker thread with nothing
open in that thread take the caller thread's innermost open span as parent,
so kernel calls made by the census thread pool hang under ``oracle``.

A generator function gets one span for the call and one ``<name>:next``
span per item, so its time is counted where the items are produced rather
than across the consumer's loop.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import GeneratorType

SERIES_METHODS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__pow__",
    "derivative",
    "mul_x_pow",
    "div_x_pow",
    "truncate",
    "compose",
    "reciprocal",
    "reverse",
    "exp",
    "log",
    "pow_rational",
)

# Per-diagram oracle entry points; their time is ``oracle.diagram_s``.
DIAGRAM_FUNCTIONS = (
    "enumerate_diagrams",
    "is_connected",
    "is_k_connected",
    "decompose_connected",
    "recompose",
    "case_census",
)

# Two comparisons, called for every pair of chords of every diagram: a span
# around each call would cost more than the call and swamp the oracle's time.
UNTRACED = {"oracle.crossing"}

# gf functions whose lru_cache statistics are reported one by one.
CACHED_GF = (
    "series_all_diagrams",
    "series_connected",
    "connected_sq_div_x",
    "series_two_connected",
    "series_two_connected_sequences",
)


def layer_modules() -> dict:
    """Traced layer name -> module; ``kernel`` is the active census kernel."""
    from chorddiag import alien, asymptotics, cli, gf, oracle, qft, series

    return {
        "oracle": oracle,
        "kernel": oracle._census_impl,
        "gf": gf,
        "series": series,
        "alien": alien,
        "asymptotics": asymptotics,
        "qft": qft,
        "cli": cli,
    }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from elsewhere; wrapped where it is defined
        if inspect.isroutine(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller = self._stack()
        self._patches: list[tuple] = []
        self._caches: dict[str, tuple] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._caller[-1] if self._caller else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    @contextmanager
    def span(self, name: str, **attrs):
        stack, parent, sid = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs or None))

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, sid = tracer._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, _attrs(args, kwargs, result)))
            if isinstance(result, GeneratorType):
                return tracer._iterate(name + ":next", result)
            return result

        return traced

    def _iterate(self, name: str, generator):
        while True:
            stack, parent, sid = self._open()
            start = perf_counter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, None))
            yield item

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def instrument(self) -> None:
        """Wrap every traced layer; the program sees wrappers until ``restore``."""
        import chorddiag
        from chorddiag.cli import SUITES
        from chorddiag.series import PowerSeries

        modules = layer_modules()
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
                if hasattr(fn, "cache_info"):
                    self._caches[f"{layer}.{attr}"] = (fn, fn.cache_info())
        # Rebind every name that refers to a wrapped function, including
        # names imported into other modules, so internal calls are seen too.
        # Lookup tables such as gf.FAMILIES are rebound entry by entry.
        for namespace in (*modules.values(), chorddiag):
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("__"):
                    continue
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(namespace, attr, entry[1])
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        entry = wrappers.get(id(value))
                        if entry is not None and entry[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = entry[1]
        for method in SERIES_METHODS:
            self._patch(PowerSeries, method, self.wrap(f"series.{method}", vars(PowerSeries)[method]))
        for suite, fn in list(SUITES.items()):
            self._patches.append((SUITES, suite, fn))
            SUITES[suite] = self.wrap(f"cli.suite.{suite}", fn)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)
        self._patches.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each lru-cached function since ``instrument``."""
        counts = {}
        for name, (fn, before) in self._caches.items():
            now = fn.cache_info()
            counts[name] = (now.hits - before.hits, now.misses - before.misses)
        return counts

    def dump(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.writelines(json.dumps(span) + "\n" for span in self.spans)


def _attrs(args, kwargs, result):
    """Small, JSON-safe facts about a call: int/str arguments and the result size."""
    attrs = {}
    simple = [a for a in args if type(a) in (int, str)]
    if simple:
        attrs["args"] = simple
    for key, value in kwargs.items():
        if type(value) in (int, str):
            attrs[key] = value
    order = getattr(result, "order", None)
    if type(order) is int:
        attrs["order"] = order
    elif isinstance(result, tuple) and all(type(v) is int for v in result):
        attrs["result"] = list(result)
    elif isinstance(result, dict) and all(
        type(k) is str and type(v) is int for k, v in result.items()
    ):
        attrs["result"] = result
    return attrs or None


# -- reading figures from spans ---------------------------------------------------------


def _merge(intervals) -> list[list[float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum(end - start for start, end in merged)


def _overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        low, high = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def figures(spans, cache_counts=None, workers: int = 1) -> dict[str, float]:
    """Per-layer figures of one process's spans (see README.md for each one).

    Busy time is the length of the union of a layer's spans. Self time is
    busy time less the part covered by spans of other layers called from
    inside it.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    layer_of = {name: _layer(name) for name in by_name}
    bit = {layer: 1 << i for i, layer in enumerate(sorted(set(layer_of.values())))}
    inside = {}  # span id -> bitmask of the layers of its ancestors
    layer_by_id = {}
    called = defaultdict(list)  # layer -> spans of other layers inside it
    for sid, parent, name, start, end, _ in sorted(spans):  # parents open first
        layer = layer_of[name]
        mask = inside[parent] | bit[layer_by_id[parent]] if parent in inside else 0
        inside[sid], layer_by_id[sid] = mask, layer
        if mask & ~bit[layer]:
            for outer, outer_bit in bit.items():
                if mask & outer_bit and outer != layer:
                    called[outer].append((start, end))

    def union(names):
        return _merge((s[3], s[4]) for name in names for s in by_name.get(name, ()))

    def calls(names):
        return sum(len(by_name.get(name, ())) for name in names if not name.endswith(":next"))

    out: dict[str, float] = {}
    for layer in ("gf", "series", "alien", "asymptotics", "qft", "oracle"):
        names = [name for name in by_name if layer_of[name] == layer]
        own = union(names)
        out[f"{layer}.busy_s"] = _length(own)
        out[f"{layer}.self_s"] = _length(own) - _overlap(own, _merge(called[layer]))
        out[f"{layer}.calls"] = calls(names)

    out["series.reverse_s"] = _length(union(["series.reverse"]))
    out["series.compose_s"] = _length(union(["series.compose"]))
    mul = ["series.__mul__", "series.__rmul__"]
    out["series.mul_s"] = _length(union(mul))
    out["series.mul_calls"] = calls(mul)
    out["series.max_order"] = max(
        (
            s[5]["order"]
            for name in by_name
            if layer_of[name] == "series"
            for s in by_name[name]
            if s[5] and "order" in s[5]
        ),
        default=0,
    )

    diagram = [f"oracle.{f}{suffix}" for f in DIAGRAM_FUNCTIONS for suffix in ("", ":next")]
    out["oracle.diagram_s"] = _length(union(diagram))
    out["oracle.diagram_calls"] = calls(diagram)
    out["qft.diagrams"] = calls(["qft.chord_to_qed"])
    for name in by_name:
        if name.startswith("cli.suite."):
            out["cli.suite_s." + name[len("cli.suite."):]] = sum(s[4] - s[3] for s in by_name[name])

    c2_calls = by_name.get("gf.series_two_connected", ())
    out["gf.distinct_orders.series_two_connected"] = len({s[5]["args"][0] for s in c2_calls})
    hits = misses = 0
    for name, (h, m) in (cache_counts or {}).items():
        if _layer(name) == "gf":
            hits, misses = hits + h, misses + m
            out[f"gf.cache_hits.{name[3:]}"] = h
            out[f"gf.cache_misses.{name[3:]}"] = m
    out["gf.cache_hits"], out["gf.cache_misses"] = hits, misses

    out.update(_census_figures(by_name, workers))
    return out


def _census_figures(by_name, workers: int) -> dict[str, float]:
    """Kernel and pool figures from the ``oracle.class_census`` spans of a census pass."""
    single, pooled, parts = [], [], []
    reference = by_name.get("bench.python_reference", [])
    for s in by_name.get("oracle.class_census", ()):
        attrs = s[5] or {}
        if attrs.get("root_partner", 0):
            parts.append(s[4] - s[3])
        elif attrs.get("workers", 1) > 1:
            pooled.append(s[4] - s[3])
        else:
            single.append(s)
    out = {}
    if single:
        s = single[0]
        out["kernel.diagrams"] = s[5]["result"]["all"]
        out["kernel.ns_per_diagram"] = (s[4] - s[3]) * 1e9 / out["kernel.diagrams"]
    if reference:
        s = reference[0]
        out["kernel.python_ns_per_diagram"] = (s[4] - s[3]) * 1e9 / s[5]["diagrams"]
    if parts and pooled:
        out["oracle.pool_efficiency"] = sum(parts) / (workers * pooled[0])
        out["oracle.partition_skew"] = max(parts) / (sum(parts) / len(parts))
    return out

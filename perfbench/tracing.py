"""Spans around the public functions of sl3f7's layers, and their arithmetic.

A span is (id, name, start, end, parent): name is "<layer>.<function>",
times are perf_counter seconds, parent is the id of the span that was open
on the same thread when this one started (None at the top).  Spans live in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

LAYERS = ("scan", "subgroups", "simconj", "classify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        # seconds the tracer spends on itself, one entry per span or task
        self.costs: list[float] = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            enter = time.perf_counter()
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append((span_id, name, start, end, parent))
                stack.pop()
                self.costs.append(start - enter + time.perf_counter() - end)

        return traced


def install(tracer: Tracer, package: str = "sl3f7") -> int:
    """Wrap every binding of each public function of the layer modules.

    A function is public when its name has no leading underscore and it is
    defined in the layer module itself.  Every loaded module of the package
    that holds the same object (a re-export such as simconj.intertwiner_codes
    or sl3f7.census) gets the same wrapper.  Returns the number of bindings
    replaced.
    """
    began = time.perf_counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    replaced = 0
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)
                replaced += 1
    tracer.costs.append(time.perf_counter() - began)
    return replaced


# ---------------------------------------------------------------------------
# span arithmetic


def _children(spans):
    kids: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            kids.setdefault(s[4], []).append(s)
    return kids


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_seconds(spans) -> dict[str, float]:
    """Per layer: span time minus the part of it that child spans cover."""
    kids = _children(spans)
    out: dict[str, float] = {}
    for span_id, name, start, end, _ in spans:
        covered = _covered(start, end, [(c[2], c[3]) for c in kids.get(span_id, ())])
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out


def _outermost(spans, name):
    by_id = {s[0]: s for s in spans}

    def nested(s):
        p = s[4]
        while p is not None and p in by_id:
            if by_id[p][1] == name:
                return True
            p = by_id[p][4]
        return False

    return [s for s in spans if s[1] == name and not nested(s)]


def total_seconds(spans, name: str) -> float:
    """Time inside calls of one function, not counting a call nested in another."""
    return sum((s[3] - s[2] for s in _outermost(spans, name)), 0.0)


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def no_scan_ratio(spans, name: str = "scan.centralizer",
                  scan: str = "scan.intertwiner_codes") -> float:
    """Share of `name` calls that finish without a descendant `scan` span."""
    kids = _children(spans)

    def scans(span_id):
        return any(c[1] == scan or scans(c[0]) for c in kids.get(span_id, ()))

    tops = [s for s in spans if s[1] == name]
    if not tops:
        return 0.0
    return sum(1 for s in tops if not scans(s[0])) / len(tops)

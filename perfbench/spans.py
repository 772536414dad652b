"""In-memory span recorder for the traced run.

A span is one call into a layer: its name, the op it belongs to, the span
that caused it, and its start and end from `time.perf_counter_ns`.  Spans
are recorded around calls made from the benchmark's own files, and, for
layers the program calls internally (face tracing inside
`decompose_any_planar`, validation inside `decompose`), by temporarily
wrapping the module attribute the caller looks up.  Nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from time import perf_counter_ns

SETUP = -1  # op id of spans recorded while building inputs


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    op = SETUP
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, op, parent index, start_ns, end_ns]
        self.counts: dict = {}
        self.op = SETUP
        self._open: list = []
        self._patched: list = []

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def take_counts(self) -> dict:
        out, self.counts = self.counts, {}
        return out

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call that looks up `module.attr`;
        `on_result(tracer, result)` runs after the span closes."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with _Span(self, name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.rec = [self.name, t.op, parent, perf_counter_ns(), 0]
        t._open.append(len(t.spans))
        t.spans.append(self.rec)

    def __exit__(self, *exc):
        self.rec[4] = perf_counter_ns()
        self.tracer._open.pop()
        return False


def outermost(spans: list) -> list:
    """Spans with no ancestor of the same name, so a function that calls
    itself (or a wrapped twin) is timed once."""
    out = []
    for rec in spans:
        name, parent = rec[0], rec[2]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][2]
        if parent < 0:
            out.append(rec)
    return out


def self_times_ns(spans: list, ops: range) -> dict:
    """Per name, over spans of the given ops: duration minus the time
    covered by direct child spans."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child_ns[rec[2]] += rec[4] - rec[3]
    out: dict = {}
    for i, rec in enumerate(spans):
        if rec[1] in ops:
            out[rec[0]] = out.get(rec[0], 0) + rec[4] - rec[3] - child_ns[i]
    return out


def loglog_slope(points: list) -> float:
    """Least-squares slope of log(t) against log(n) over (n, t) pairs with
    t > 0; 0.0 when fewer than three distinct sizes are present."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0 and n > 0]
    if len({x for x, _ in pts}) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx

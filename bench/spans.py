"""In-memory spans around the benchmark's calls into each layer, and the
statistics the benchmark reports from them.

A span records a name `<layer>.<call>`, start and end (perf_counter
seconds), the enclosing span, the op it belongs to and a work count.  The
benchmark is single-threaded, so a span's children never overlap and its
self time is its duration minus theirs.  A disabled tracer hands out one
shared no-op span, so untraced runs pay one attribute check per call.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "automaton", "treeaction", "nadic", "constructions", "cli")
SWEEP = -1  # op id of spans recorded after the measured loop


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "id", "name", "start", "end", "parent", "op", "work")

    def __init__(self, tracer, name, work):
        self.tracer = tracer
        self.name = name
        self.work = work

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        tr.spans.append(self)
        self.parent = tr._open[-1].id if tr._open else None
        self.op = tr.op
        tr._open.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.tracer._open.pop()
        return False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and gauges while `enabled`; `op` tags new spans with
    the id of the op (or SWEEP) they belong to."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self.gauges = {}
        self.op = None
        self._open = []

    def span(self, name, work=0):
        return Span(self, name, work) if self.enabled else _NULL

    def gauge(self, name, value):
        "Record a value once; the first traced value wins."
        if self.enabled:
            self.gauges.setdefault(name, value)

    def select(self, name):
        """Spans named `name` from the measured loop, or from the sweep when
        the loop never made that call."""
        spans = [s for s in self.spans if s.name == name]
        loop = [s for s in spans if s.op != SWEEP]
        return loop or spans

    def median(self, name):
        spans = self.select(name)
        return percentile([s.duration for s in spans], 0.5)[0] if spans else math.nan

    def rate(self, name):
        "Work done per second inside the spans named `name`."
        spans = self.select(name)
        busy = sum(s.duration for s in spans)
        return sum(s.work for s in spans) / busy if busy else math.nan

    def self_times(self):
        "Self time per layer, in seconds, and the total time of root spans."
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        per_layer = defaultdict(float)
        for s in spans:
            per_layer[s.name.split(".")[0]] += s.duration - child[s.id]
        total = sum(s.duration for s in spans if s.parent is None)
        return per_layer, total

    def records(self):
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "work": s.work} for s in self.spans]


def percentile(values, q):
    """Nearest-rank q-quantile of a nonempty sample and the number of samples
    ranked above it: (value, beyond)."""
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1], len(s) - rank


def pass_percentile(passes, q):
    """Median over nonempty passes of each one's nearest-rank q-quantile, and
    the number of samples ranked above it in all of them: (value, beyond).
    A run repeats the same pass of inputs, so this is the quantile of one
    pass, without the pooled rank landing on the largest or smallest of a
    group of equally costly inputs."""
    per = [percentile(p, q) for p in passes if p]
    return statistics.median(v for v, _ in per), sum(b for _, b in per)


def tail(passes, q=0.9, beyond=10):
    """The q-quantile of `pass_percentile` when at least `beyond` samples rank
    above it, else the median: (value, quantile reported)."""
    value, above = pass_percentile(passes, q)
    if above >= beyond:
        return value, q
    return pass_percentile(passes, 0.5)[0], 0.5

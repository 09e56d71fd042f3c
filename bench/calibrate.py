"""Host-speed calibration of the benchmark's timings.

On a shared host the same pure-Python code runs up to about 1.7 times slower
for stretches of seconds to minutes, whatever the program does, so the raw
wall time of one run says as much about the host as about the program.  The
benchmark therefore runs a fixed reference loop (stdlib only, independent of
`adicaut`) between ops, at most every `WINDOW_S` seconds, and reports each
timing in reference seconds: its wall time times `REF_S` over the reference
loop's time at that moment, interpolated between the two nearest reference
runs.  A change to the program moves these timings exactly as it moves wall
time; a change of host speed moves the reference loop too and cancels out.
Raw wall times are kept in the results file next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import gc
import random
from time import perf_counter

REF_S = 0.010  # the nominal time of one reference loop
WINDOW_S = 0.1  # the longest stretch of ops between two reference loops

_rng = random.Random(20101993)
_TABLE = [tuple(_rng.randrange(1000) for _ in range(4)) for _ in range(20000)]
_INDEX = [_rng.randrange(len(_TABLE)) for _ in range(2700)]
# A transition table about the size of the d=5 union's (16000 rows of 32
# successors), walked as `act` walks one: a random read per step.
_IDS = list(range(16000))
_NEXT = [tuple(_IDS[_rng.randrange(16000)] for _ in range(32)) for _ in _IDS]


def _mix(x, y):
    return (x * 7 + y) % 1009


def reference():
    """A fixed mix of what the program under test does most: tuple arithmetic,
    dict reads and writes, random reads over small and large tables, small
    calls and a sort."""
    acc, seen, counts = 0, {}, {}
    cur = 0
    for i in range(10000):
        cur = _NEXT[cur][i & 31]
    for i in _INDEX:
        t = _TABLE[i]
        s = tuple(a * 3 + b for a, b in zip(t, (1, 2, 3, 4)))
        seen[s] = i
        acc += s[0] % 7
    for i in range(2700):
        k = (i % 97, i % 89, i & 7)
        counts[k] = counts.get(k, 0) + i
    for i in range(5000):
        acc = _mix(acc, i)
    order = sorted((i * 7919 % 10007, i) for i in range(1700))
    return acc + cur + len(seen) + len(counts) + order[0][1]


class Calibration:
    "The reference loop's times over a run, and the timings scaled by them."

    def __init__(self):
        self.refs = []  # (midpoint, seconds), in time order

    def tick(self, force=False):
        """Run the reference loop when the last run of it is `WINDOW_S` old.
        The cyclic collector is off meanwhile: its cost grows with the
        program's heap, and the loop must not depend on the program."""
        if force or not self.refs or perf_counter() - self.refs[-1][0] >= WINDOW_S:
            enabled = gc.isenabled()
            gc.disable()
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
            if enabled:
                gc.enable()
            self.refs.append(((t0 + t1) / 2, t1 - t0))

    def at(self, when):
        "The reference loop's time at `when`, interpolated between its runs."
        times = [t for t, _ in self.refs]
        i = bisect.bisect_left(times, when)
        if i == 0:
            return self.refs[0][1]
        if i == len(times):
            return self.refs[-1][1]
        (t0, r0), (t1, r1) = self.refs[i - 1], self.refs[i]
        return r0 + (r1 - r0) * (when - t0) / (t1 - t0)

    def scale(self, samples):
        "Timings `(midpoint, seconds, ...)` in reference seconds."
        return [s[1] * REF_S / self.at(s[0]) for s in samples]

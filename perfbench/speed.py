"""CPU time at a fixed reference speed of the machine.

The machine the benchmark runs on is shared, and its speed changes under
the benchmark: by a factor of up to about 1.7 from one millisecond to the
next, and by as much as 2.4 between one hour and the next (README.md,
"Reference speed"). Two measures keep such changes out of the figures:

- Every timed section is measured in CPU time of the running thread
  (`time.thread_time_ns`), so time spent waiting for a core, or stolen by
  the host, is not counted.
- CPU time itself changes with the machine's speed. So the run times a
  fixed pure-Python kernel right before and right after each timed
  operation, and scales the operation's time by REF_NS / (the mean of those
  two kernel times). The result is the CPU time the operation would take on
  a machine where the kernel takes REF_NS.

The kernel does the kinds of work hamsquare does (a graph search over dicts
and sets, small containers built and dropped, integer arithmetic, a sort)
and shares no code with it, so a change to hamsquare never moves the scale.
"""

from __future__ import annotations

import random
import time

clock = time.thread_time_ns

# Only ratios between runs matter. This value, about the kernel's time on
# the reference machine, keeps the scaled figures near the CPU time spent.
REF_NS = 1_000_000

_N = 500
_GRAPH = {v: [(v * 7 + 1) % _N, (v * 13 + 5) % _N, (v + 1) % _N,
              (v * 31 + 11) % _N] for v in range(_N)}
_RNG = random.Random(1)
_FLOATS = [_RNG.random() for _ in range(1500)]


def kernel() -> int:
    """Four kinds of interpreter work in about equal shares; returns a
    checksum."""
    # a breadth-first search: dict and set lookups, list appends
    seen, frontier, total = {0}, [0], 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in _GRAPH[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    total += v
        frontier = nxt
    # small containers built and dropped
    for i in range(450):
        t = (i, i + 1, frozenset((i, i + 2)))
        total += len({t[0]: t}) + len(t[2])
    # integer arithmetic in a loop
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFF
    # a sort of floats
    return total + x + round(sorted(_FLOATS)[1000] * 1e6)


_CHECKSUM = kernel()


def kernel_time() -> int:
    """CPU ns of one run of the kernel."""
    t0 = clock()
    total = kernel()
    took = clock() - t0
    if total != _CHECKSUM:
        raise RuntimeError("speed kernel gave a wrong checksum")
    return took

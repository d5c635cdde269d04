"""A fixed piece of pure-Python work that times the host, not the library.

The vCPUs of the benchmark's host switch between fast and slow states that
last from a fraction of a second to minutes, and a whole run can fall into
either: the same pass over the same tasks takes up to 1.6 times as long in
one run as in another.  The benchmark runs this yardstick between tasks, on
the CPU that runs the tasks, and reports each task's time scaled by
NOMINAL_S / (the yardstick's median time around it), i.e. in seconds of a
host on which the yardstick takes NOMINAL_S.

The yardstick uses the operations the library spends its time on: frozenset
algebra and subset tests, dict counting, sorting with key functions and
small objects, as in the duality test, and closing attribute sets given as
integer masks against object rows, as in the closure code.  It calls no
library code, so a change to the library moves the scaled times exactly as
it moves the raw ones.  It never changes: a new yardstick would shift every
scaled time.
"""

from __future__ import annotations

from time import perf_counter

# About the yardstick's time on an idle host of the kind the benchmark was
# defined on (a 2-vCPU Xeon VM); only the scale of the reported times
# depends on it.
NOMINAL_S = 0.0015

_SETS = [frozenset(range(i % 13, i % 13 + 2 + i % 5)) for i in range(48)]
# A fixed 24-object, 10-attribute context as attribute masks.
_ROWS = [(i * 2654435761 >> 7) & 0x3FF for i in range(1, 25)]


class _Member:
    __slots__ = ("items", "size")

    def __init__(self, items: frozenset):
        self.items, self.size = items, len(items)


def _sets() -> int:
    counts: dict = {}
    kept = []
    for s in _SETS:
        for t in _SETS:
            if s <= t:
                counts[t] = counts.get(t, 0) + 1
        kept.append(_Member(s | _SETS[len(s)]))
    kept.sort(key=lambda m: (m.size, sorted(m.items)))
    mask = 0
    for m in kept:
        for e in m.items:
            mask |= 1 << e
    return mask + sum(counts.values())


def _closures() -> int:
    total = 0
    for s in range(0, 1 << 10, 3):
        closed = 0x3FF
        for row in _ROWS:
            if s & ~row == 0:
                closed &= row
        total += closed
    return total


def sample() -> float:
    """Seconds the yardstick takes now."""
    t0 = perf_counter()
    for _ in range(3):
        _sets()
    _closures()
    return perf_counter() - t0

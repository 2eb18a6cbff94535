"""Host-speed calibration: a fixed pure-Python loop timed beside the work.

The host this benchmark runs on is shared, and its speed changes by up to
2x over minutes as other tenants come and go.  Raw host seconds taken
minutes apart are therefore not comparable.  The loop below touches no
simulator code and does the kind of work the simulator's interpreter
loops do (heap pushes and pops, dict updates, slotted attribute access,
method calls).  Timing it right before and after each item measures the
host's speed at that moment; dividing the item's host time by it gives
the item's cost in loop-lengths, which a simulator change moves and a
host-speed change does not.  ``REFERENCE_S`` turns loop-lengths back into
seconds at a fixed reference speed.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "calibration_s"]

#: Seconds one calibration loop stands for in "reference seconds"; about
#: what the loop takes on an uncontended Intel Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.02

_ITERATIONS = 30_000


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def _loop() -> int:
    heap: list = []
    table: dict = {}
    slots = [_Slot(k) for k in range(64)]
    acc = 0
    for i in range(_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        acc += slots[i & 63].bump(i & 7)
    return acc


def calibration_s() -> float:
    """Host seconds of one calibration loop, measured now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start

"""Host speed, measured by a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by up to about 2x for
minutes at a time (other tenants on the same cores and caches; process CPU
time drifts with wall time, so it is not time slicing).  A drift that long
outlasts a run, so no estimator over one run's own timings can remove it.
``child.py`` therefore times :func:`kernel` between specs, and ``run.py``
rescales each measured time by ``(REFERENCE_S / kernel time) **
SENSITIVITY``: an estimate of the time the work would have taken on a host
running the kernel in ``REFERENCE_S``.

The kernel is pure Python in the style of the simulator's inner loops
(attribute access, float arithmetic, a heap, a dict, short lists) plus
scattered reads and writes over an 8 MB array, larger than a core's own
caches, since other tenants slow memory-bound work more than work that
stays in cache.  It imports nothing from the program, so a change to the
program never moves it.  On a busy host the two halves together track
the drivers' slowdown at least as well as either half alone, yet only
roughly: ``run.py`` still takes each spec's best pass.  Never edit the
kernel or the constants below together with a change whose speed is being
measured: both sides of a comparison must run the same calibration.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from array import array
from typing import List

#: Seconds one :func:`kernel` call takes on a quiet 2-core x86-64 VM
#: (Python 3.11): the host speed every rescaled time is expressed at.
REFERENCE_S = 0.045

#: How strongly the drivers' time follows the kernel's: a driver slows by
#: about the kernel's slowdown to this power.  It varies with what the
#: other tenants run, from about 0.5 to 1.0.  Over nine sets of ten runs
#: (three per workload) on a shared 2-core VM whose kernel time ranged
#: over 1.1x-2.1x of ``REFERENCE_S``, 0.75 gave the smallest spread of
#: rescaled times in the worst set (0.115, against 0.18 at 1.0, 0.18 at
#: 0.5 and 0.44 unscaled) and on average.
SENSITIVITY = 0.75

#: Doubles in the kernel's scattered-access array (8 MB).
SCATTER_CELLS = 1 << 20


class _Item:
    __slots__ = ("level", "history")

    def __init__(self) -> None:
        self.level = 0.0
        self.history: List[int] = []


def kernel(steps: int = 40_000) -> float:
    """A fixed amount of interpreter and memory work; returns a checksum."""
    return _objects(steps) + _scatter(steps)


def _scatter(steps: int) -> float:
    cells = array("d", [0.0]) * SCATTER_CELLS
    mask = SCATTER_CELLS - 1
    index = 1
    acc = 0.0
    for _ in range(steps):
        index = (index * 1103515245 + 12345) & 0x7FFFFFFF
        cell = index & mask
        value = cells[cell] * 0.5 + 1.0
        cells[cell] = value
        acc += cells[(cell * 7919) & mask] + value
    return acc


def _objects(steps: int) -> float:
    rng = random.Random(12345)
    items = [_Item() for _ in range(256)]
    heap: list = []
    totals: dict = {}
    acc = 0.0
    for i in range(steps):
        item = items[i & 255]
        item.level = item.level * 0.9 + rng.random()
        heapq.heappush(heap, (item.level, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        key = i % 997
        totals[key] = totals.get(key, 0.0) + item.level
        if i % 7 == 0:
            item.history.append(i)
            if len(item.history) > 8:
                item.history.pop(0)
    return acc + sum(totals.values())


def measure() -> float:
    """Wall seconds of one kernel call, now.

    The kernel runs in a forked copy of this process, and this process
    waits for it: the kernel's memory never counts towards the measured
    process's peak resident memory.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            start = time.perf_counter()
            kernel()
            os.write(write_fd, repr(time.perf_counter() - start).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as reader:
        text = reader.read()
    os.waitpid(pid, 0)
    return float(text)

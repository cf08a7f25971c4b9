"""Host speed: a fixed reference loop timed next to the measured work.

On a shared host the CPU speed a process gets can change by a factor of
two from one tenth of a second to the next, and its level moves over
minutes.  The
benchmark times this loop between ops (outside every op's timer) and
reports each timing scaled to a host where the loop takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / (reference loop time around it)

The loop is the benchmark's own code, so a change to the program moves
the reported times and never the scale.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

#: The reference loop's time on the nominal host, in seconds (on the
#: 2-vCPU Xeon host the benchmark was built on it took 1.0-2.2 ms).
REFERENCE_S = 0.001
#: Loop passes per reference sample.
PASSES = 4800
#: Reference samples taken on each side of a timing that scale it.
WINDOW = 3


def _step(table: dict, items: list, i: int) -> int:
    key = i & 63
    table[key] = table.get(key, 0) + i
    items.append(key)
    if len(items) > 32:
        items.clear()
    return (i * 7 + key) % 13


def reference_loop() -> float:
    """One reference sample: seconds taken by a fixed mix of interpreter
    work (calls, dict and list traffic, integer arithmetic)."""
    table: dict = {}
    items: list = []
    total = 0
    start = time.perf_counter()
    for i in range(PASSES):
        total += _step(table, items, i)
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError(total)
    return elapsed


class HostSpeed:
    """Reference samples in time order, and the scale each timing gets
    from the ``WINDOW`` samples on either side of it.

    Each CPU of a shared host can run at its own speed.  Work that runs
    in one process is timed against samples taken where that process
    runs; work spread over processes on every CPU (``every_cpu``) is
    timed against the mean of each CPU's reference time, sampled on each
    CPU in turn.
    """

    def __init__(self, every_cpu: bool = False):
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else [None]
        self.times: dict = {cpu: [] for cpu in self.cpus}
        self.durations: dict = {cpu: [] for cpu in self.cpus}

    def sample(self) -> None:
        """One reference sample on each CPU in ``self.cpus``."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in self.cpus:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                self.times[cpu].append(time.perf_counter())
                self.durations[cpu].append(reference_loop())
        finally:
            if self.cpus != [None]:
                os.sched_setaffinity(0, allowed)

    def all_durations(self) -> list[float]:
        return [d for cpu in self.cpus for d in self.durations[cpu]]

    def scale(self, start: float) -> float:
        """Factor that turns a timing that began at ``start`` into the
        nominal host's time."""
        near = []
        for cpu in self.cpus:
            times, durations = self.times[cpu], self.durations[cpu]
            if not durations:
                raise RuntimeError("no reference samples")
            at = bisect.bisect_right(times, start)
            near.append(statistics.median(durations[max(0, at - WINDOW): at + WINDOW]))
        return REFERENCE_S / statistics.mean(near)

"""Host-speed probe: rescale measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts by up to ~1.9x
over seconds to minutes (neighbours, frequency, vCPU time-slicing); CPU
time drifts with it, so it is no remedy.  A :class:`SpeedProbe` runs a
fixed slice of interpreter work (:func:`probe_work`: a small generator
event loop over a heap, slotted objects, dict updates and short numpy
reductions, the simulator's own mix) from a ``SIGALRM`` handler every
:data:`INTERVAL_S` while the child works.  Python runs the handler between
bytecodes of the main thread, so the samples see the host exactly as the
ops do.

:func:`at_reference` turns the time spent in some windows into reference
seconds: the windows' duration minus the probes that ran inside them,
times ``speed ** SENSITIVITY`` with ``speed = REFERENCE_S / mean probe
time inside them``.  A change that makes the simulator do less work lowers
reference seconds just as it lowers wall time; a host that slows
everything down moves both the ops and the probe and cancels out.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Iterator, Sequence

import numpy as np

#: Seconds between probes (each costs ~1.5% of this).
INTERVAL_S = 0.02
#: Mean time of :func:`probe_work` at the reference speed: its typical time
#: inside the workloads on a quiet 2-core x86-64 container (Python 3.11).
#: Only a scale: on a host running at that speed, reference seconds equal
#: wall seconds.
REFERENCE_S = 0.00028
#: How strongly the ops' time follows the probe's: the probe runs cache-cold
#: between ops and slows more than the simulator when the host is busy.
#: Fitted on 80 runs (4 workloads x 10 seeds x 2 sets) to the exponent
#: that steadied all four workloads at once; 1.0 over-corrected sweep and
#: figures, 0.6 under-corrected sweep and report.
SENSITIVITY = 0.8

_VECTOR = np.arange(64, dtype=float)


class _Item:
    __slots__ = ("key",)

    def __init__(self, key: float) -> None:
        self.key = key


def _process(index: int, steps: int) -> Iterator[float]:
    delay = 0.0
    for step in range(steps):
        delay += 1.0 + (index * 31 + step) % 7
        yield delay


def probe_work() -> float:
    """A fixed slice of work; the same on every call."""
    heap = [(0.0, index) for index in range(16)]
    processes = [_process(index, 12) for index in range(16)]
    totals: dict[int, float] = {}
    while heap:
        now, index = heapq.heappop(heap)
        delay = next(processes[index], None)
        if delay is None:
            continue
        item = _Item(delay)
        totals[index] = totals.get(index, 0.0) + item.key
        heapq.heappush(heap, (now + delay, index))
    total = sum(totals.values())
    for step in range(32):
        total += float((_VECTOR * 1.5 + step).sum())
    return total


class SpeedProbe:
    """Samples host speed from a timer signal; ``(start, seconds)`` each."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        # The probe's allocations must not trigger a collection of the
        # ops' garbage: that time belongs to the ops, not to the host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe_work()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()


def at_reference(
    windows: Sequence[tuple[float, float]],
    samples: Sequence[tuple[float, float]],
) -> tuple[float, float]:
    """``(reference seconds, speed)`` of the time spent in *windows*.

    *windows* are ``(start, end)`` and *samples* ``(start, seconds)``, all
    on one ``perf_counter`` clock.  Speed is ``REFERENCE_S`` over the mean
    probe time inside the windows (1 = reference speed, below 1 = slower).
    """
    inside = [seconds for start, seconds in samples
              if any(lo <= start < hi for lo, hi in windows)]
    if not inside:
        raise ValueError("no speed probe ran inside the measured windows")
    own = sum(hi - lo for lo, hi in windows) - sum(inside)
    speed = REFERENCE_S / statistics.mean(inside)
    return own * speed ** SENSITIVITY, speed

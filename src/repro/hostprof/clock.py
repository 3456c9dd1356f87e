"""The host clock: the single wall-clock read site in the tree.

``repro.telemetry`` records *simulated* time only — RL001 bans wall-clock
reads everywhere else — so host-side profiling needs exactly one blessed
door to the real clock.  This module is that door: ``read_clock`` wraps
``time.perf_counter`` and everything else in :mod:`repro.hostprof` takes
its timestamps through it (or through an injected fake, which is how the
tests stay deterministic).

The lint configuration scopes the wall-clock exemption to this package
(``LintConfig.wallclock_exempt``) and the clock-domain rule (RL500)
rejects any simulation-domain import of it, so the dependency arrow only
ever points from host observability *into* the simulator, never back.
"""

from __future__ import annotations

import time
from typing import Callable

#: Signature of an injectable host clock: () -> seconds (monotonic).
HostClock = Callable[[], float]


def read_clock() -> float:
    """Current host time in seconds from a monotonic origin.

    This is the only function in the tree that reads the wall clock; the
    value must never reach a simulated result (RL100 enforces this for
    every module outside ``repro.hostprof``).
    """
    return time.perf_counter()


class Stopwatch:
    """A tiny interval timer over an injectable host clock.

    Values stay inside the instance until a caller asks for them via
    :meth:`elapsed`, which keeps wall-clock taint out of module-level
    data flow in non-exempt callers (campaign workers time themselves
    with one of these).
    """

    __slots__ = ("_clock", "_started")

    def __init__(self, clock: HostClock | None = None) -> None:
        self._clock = clock if clock is not None else read_clock
        self._started = self._clock()

    def restart(self) -> None:
        """Reset the interval origin to now."""
        self._started = self._clock()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return self._clock() - self._started

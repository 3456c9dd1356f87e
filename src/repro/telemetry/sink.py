"""The telemetry sinks: a recording :class:`Telemetry` and a no-op null.

One :class:`Telemetry` instance observes one simulation environment.  Every
instrumented layer (sim kernel, fabric, MPI, CUDA, job, fault injector)
holds a sink reference and reports through it; with the
:class:`NullTelemetry` attached each hook is a constant-time no-op that
touches no state and consumes no randomness, so an uninstrumented run is
bit-for-bit identical to a telemetry-enabled one (the same guarantee the
fault layer makes for empty schedules).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro.errors import TelemetryError
from repro.telemetry.instruments import (
    Counter,
    Gauge,
    Histogram,
    Registry,
)
from repro.telemetry.spans import NULL_SPAN, NullSpanHandle, SpanHandle, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment


class SamplePoint:
    """One time-series sample: (track, name, sim time, value)."""

    __slots__ = ("track", "name", "time", "value")

    def __init__(self, track: str, name: str, time: float, value: float) -> None:
        self.track = track
        self.name = name
        self.time = time
        self.value = value

    def __repr__(self) -> str:
        return f"<Sample {self.track}/{self.name} t={self.time:.6f} v={self.value}>"


class Telemetry:
    """The recording sink: spans, instruments, and time-series samples.

    ``sample_interval`` (simulated seconds) drives the periodic utilization
    sampler a :class:`~repro.cluster.job.Job` starts; 0 disables sampling.
    """

    enabled = True

    def __init__(self, sample_interval: float = 0.1) -> None:
        if sample_interval < 0:
            raise TelemetryError(
                f"sample_interval must be >= 0, got {sample_interval}"
            )
        self.sample_interval = sample_interval
        self.registry = Registry()
        self.spans: list[SpanRecord] = []
        self.samples: list[SamplePoint] = []
        self._env: "Environment | None" = None

    # -- environment binding ---------------------------------------------------

    def bind_env(self, env: "Environment") -> None:
        """Attach the environment whose clock stamps every record.

        Rebinding to a different environment is rejected: a sink's timeline
        must have a single time axis.
        """
        if self._env is not None and self._env is not env:
            raise TelemetryError("telemetry sink already bound to an environment")
        self._env = env

    @property
    def now(self) -> float:
        """Current simulated time (0.0 before the sink is bound)."""
        return self._env.now if self._env is not None else 0.0

    # -- spans -----------------------------------------------------------------

    def span(self, track: str, name: str, category: str = "", **args: object) -> SpanHandle:
        """Open a *scoped* span (properly nested on its track)."""
        # sys.intern: the same track/name strings recur for every call site
        # over a run's lifetime; interning collapses them to one object each,
        # shrinking the span list's footprint and making the exporters'
        # dict lookups pointer-compare fast.
        return SpanHandle(
            self,
            SpanRecord(sys.intern(track), sys.intern(name), category,
                       self.now, self.now, kind="scoped", args=dict(args)),
        )

    def async_span(self, track: str, name: str, category: str = "", **args: object) -> SpanHandle:
        """Open an *async* span (may overlap others on its track)."""
        return SpanHandle(
            self,
            SpanRecord(sys.intern(track), sys.intern(name), category,
                       self.now, self.now, kind="async", args=dict(args)),
        )

    def record_span(
        self,
        track: str,
        name: str,
        category: str,
        start: float,
        end: float,
        kind: str = "scoped",
        **args: object,
    ) -> None:
        """Record an already-timed span (the Tracer bridge's entry point)."""
        if end < start:
            raise TelemetryError(f"span ends before it starts: {start} > {end}")
        self._finish(SpanRecord(sys.intern(track), sys.intern(name), category,
                                start, end, kind=kind, args=dict(args)))

    def instant(self, track: str, name: str, category: str = "", **args: object) -> None:
        """Record an instant marker at the current simulated time."""
        now = self.now
        self._finish(SpanRecord(sys.intern(track), sys.intern(name), category,
                                now, now, kind="instant", args=dict(args)))

    def _finish(self, record: SpanRecord) -> None:
        self.spans.append(record)

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str, description: str = "", unit: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        """Get or create a counter in this sink's registry."""
        return self.registry.counter(name, description, unit, labelnames)

    def gauge(self, name: str, description: str = "", unit: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge in this sink's registry."""
        return self.registry.gauge(name, description, unit, labelnames)

    def histogram(self, name: str, description: str = "", unit: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        """Get or create a histogram in this sink's registry."""
        if buckets is None:
            return self.registry.histogram(name, description, unit, labelnames)
        return self.registry.histogram(name, description, unit, labelnames, buckets)

    # -- time series -----------------------------------------------------------

    def sample(self, track: str, name: str, value: float) -> None:
        """Append one time-series point at the current simulated time."""
        self.samples.append(
            SamplePoint(sys.intern(track), sys.intern(name), self.now, float(value))
        )

    # -- summaries -------------------------------------------------------------

    def span_counts(self) -> dict[str, int]:
        """Finished spans per category, category-sorted."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.category] = counts.get(span.category, 0) + 1
        return dict(sorted(counts.items()))

    def tracks(self) -> list[str]:
        """Every track that received a span or sample, sorted."""
        names = {span.track for span in self.spans}
        names.update(point.track for point in self.samples)
        return sorted(names)


class _NullInstrument:
    """One shared object absorbing every instrument call when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """No-op."""

    def set(self, value: float, **labels: object) -> None:
        """No-op."""

    def add(self, delta: float, **labels: object) -> None:
        """No-op."""

    def observe(self, value: float, **labels: object) -> None:
        """No-op."""

    def value(self, **labels: object) -> float:
        """Always 0.0."""
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """The disabled sink: every hook is a constant-time no-op.

    All span factories return the shared :data:`~repro.telemetry.spans.NULL_SPAN`
    and all instrument factories the shared null instrument, so instrumented
    call sites pay two attribute lookups and a call — no allocation, no
    branching on simulation state, no RNG.
    """

    enabled = False
    sample_interval = 0.0

    def bind_env(self, env: object) -> None:
        """No-op."""

    @property
    def now(self) -> float:
        """Always 0.0 (the null sink has no clock)."""
        return 0.0

    def span(self, track: str, name: str, category: str = "", **args: object) -> NullSpanHandle:
        """The shared no-op span."""
        return NULL_SPAN

    def async_span(self, track: str, name: str, category: str = "", **args: object) -> NullSpanHandle:
        """The shared no-op span."""
        return NULL_SPAN

    def record_span(self, track: str, name: str, category: str,
                    start: float, end: float, kind: str = "scoped",
                    **args: object) -> None:
        """No-op."""

    def instant(self, track: str, name: str, category: str = "", **args: object) -> None:
        """No-op."""

    def counter(self, name: str, description: str = "", unit: str = "",
                labelnames: tuple[str, ...] = ()) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, description: str = "", unit: str = "",
              labelnames: tuple[str, ...] = ()) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, description: str = "", unit: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def sample(self, track: str, name: str, value: float) -> None:
        """No-op."""


#: The shared disabled sink every component defaults to.
NULL = NullTelemetry()

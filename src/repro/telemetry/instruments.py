"""Typed instruments and the registry that owns them.

Three instrument kinds, modelled on the OpenMetrics/Prometheus data model
but stripped to what a deterministic simulator needs:

* :class:`Counter` — a monotonically increasing total (bytes moved, events
  processed, faults fired).
* :class:`Gauge` — a last-value-wins level (active flows, sim time).
* :class:`Histogram` — a distribution over **fixed** bucket boundaries
  chosen at creation time (message latencies, kernel durations).  Fixed
  boundaries keep exports byte-stable: no adaptive rebucketing that would
  depend on arrival order.

Every instrument is keyed by ``name`` plus an ordered tuple of label
*names*; each distinct label-*value* tuple owns an independent series.  The
:class:`Registry` get-or-creates instruments so call sites can be wired
once and cheaply incremented afterwards.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator

from repro.errors import TelemetryError

#: Default duration buckets (seconds): 1 µs .. 100 s, one per decade with a
#: 1-2.5-5 subdivision — wide enough for NIC latencies and whole-run spans.
DURATION_BUCKETS: tuple[float, ...] = tuple(
    base * 10.0**exponent
    for exponent in range(-6, 3)
    for base in (1.0, 2.5, 5.0)
)

#: Default size buckets (bytes): 64 B .. 4 GiB, powers of four.
SIZE_BUCKETS: tuple[float, ...] = tuple(64.0 * 4.0**i for i in range(14))


def _label_key(
    labelnames: tuple[str, ...], labels: dict[str, object]
) -> tuple[str, ...]:
    """The series key for *labels*, validated against *labelnames*."""
    if not labels and not labelnames:
        return ()
    if set(labels) != set(labelnames):
        raise TelemetryError(
            f"labels {sorted(labels)} do not match declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Instrument:
    """Shared identity of one metric family: name, help text, labels."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> None:
        if not name or not name.replace("_", "a").isidentifier():
            raise TelemetryError(f"bad instrument name {name!r}")
        if len(set(labelnames)) != len(labelnames):
            raise TelemetryError(f"duplicate label names in {labelnames!r}")
        self.name = name
        self.description = description
        self.unit = unit
        self.labelnames = tuple(labelnames)

    def series(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """Yield ``(label_values, value)`` per series, insertion-ordered."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} labels={self.labelnames}>"


class Counter(Instrument):
    """A monotonically increasing float total per label tuple."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (must be >= 0) to the series selected by *labels*."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: object) -> BoundCounter:
        """The series selected by *labels*, validated once, for hot call sites.

        As in the Prometheus client, ``counter.labels(kind="send").inc(n)``
        equals ``counter.inc(n, kind="send")``.  The series is created on
        the child's first ``inc``, so binding alone exports nothing.
        """
        return BoundCounter(self, _label_key(self.labelnames, labels))

    def value(self, **labels: object) -> float:
        """Current total of one series (0.0 if never incremented)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def series(self) -> Iterator[tuple[tuple[str, ...], float]]:
        yield from self._values.items()


class BoundCounter:
    """One series of a :class:`Counter`, its label key resolved at bind time."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: tuple[str, ...]) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the bound series."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self._counter.name} cannot decrease (inc by {amount})"
            )
        values = self._counter._values
        values[self._key] = values.get(self._key, 0.0) + amount


class Gauge(Instrument):
    """A settable level per label tuple (last write wins)."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the series selected by *labels* to *value*."""
        self._values[_label_key(self.labelnames, labels)] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        """Adjust the series by *delta* (gauges may go up and down)."""
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels: object) -> float:
        """Current level of one series (0.0 if never set)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def series(self) -> Iterator[tuple[tuple[str, ...], float]]:
        yield from self._values.items()


class HistogramSeries:
    """Bucket counts, sum, and count for one label tuple."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.total = 0.0
        self.count = 0


class Histogram(Instrument):
    """A distribution over fixed, strictly increasing bucket boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DURATION_BUCKETS,
    ) -> None:
        super().__init__(name, description, unit, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} buckets must be strictly increasing"
            )
        if any(not math.isfinite(b) for b in bounds):
            raise TelemetryError(
                f"histogram {name} buckets must be finite (+Inf is implicit)"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the series selected by *labels*."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = HistogramSeries(len(self.buckets))
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.total += value
        series.count += 1

    def snapshot(self, **labels: object) -> HistogramSeries:
        """The (live) series for *labels*; empty if never observed."""
        key = _label_key(self.labelnames, labels)
        return self._series.get(key, HistogramSeries(len(self.buckets)))

    def series(self) -> Iterator[tuple[tuple[str, ...], HistogramSeries]]:
        yield from self._series.items()


class Registry:
    """Owns every instrument of one telemetry sink, keyed by name."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(self, cls: type, name: str, **kwargs) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TelemetryError(
                    f"instrument {name} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            return existing
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        counter = self._get_or_create(
            Counter, name, description=description, unit=unit, labelnames=labelnames
        )
        assert isinstance(counter, Counter)
        return counter

    def gauge(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        gauge = self._get_or_create(
            Gauge, name, description=description, unit=unit, labelnames=labelnames
        )
        assert isinstance(gauge, Gauge)
        return gauge

    def histogram(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DURATION_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` (buckets fixed on creation)."""
        histogram = self._get_or_create(
            Histogram, name, description=description, unit=unit,
            labelnames=labelnames, buckets=buckets,
        )
        assert isinstance(histogram, Histogram)
        return histogram

    def instruments(self) -> list[Instrument]:
        """All instruments, name-sorted (the exporters' stable order)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> Instrument:
        """Look up one instrument by name.

        Raises :class:`TelemetryError` naming the registered instruments on
        a miss, so a typo'd metric name fails loudly instead of silently
        reading zeros.  Use ``name in registry`` to probe optionally.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            known = ", ".join(sorted(self._instruments)) or "<none>"
            raise TelemetryError(
                f"unknown instrument {name!r}; registered instruments: {known}"
            )
        return instrument

    def __contains__(self, name: object) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

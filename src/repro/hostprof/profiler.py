""":class:`HostProfiler` — where does the simulator's *own* wall time go?

The profiler rides the same nullable-hook pattern the telemetry sink uses
on the DES hot paths: ``Environment.host_profiler`` defaults to ``None``
and every instrumented site pays one identity check when profiling is off.
When attached, the kernel reports each event dispatch and process switch,
the fabric reports flow-rate recomputation rounds, the MPI layer reports
generator hops, and the telemetry sink reports span/sample emission.

Two kinds of data come out:

* **deterministic counts** — events, switches, flow rounds, hops, span
  emissions, and the heap-depth/active-flow high-water marks.  These are
  functions of the workload alone, so CI gates them exactly
  (``BENCH_HOST.json``).
* **wall-time attribution** — a self-time state machine charges each
  host-clock interval to the subsystem that was running (event dispatch
  vs. generator execution vs. everything else), and inclusive
  :meth:`~HostProfiler.section` timers cover coarse driver phases.  Wall
  times are machine-dependent and therefore only ever advisory.

The clock is injectable (tests pass a fake), and all readings stay inside
the instance: callers outside ``repro.hostprof`` consume them through
methods, never through module-level clock reads.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.hostprof.clock import HostClock, read_clock

#: Attribution buckets for the self-time state machine.
MODE_DISPATCH = "sim.dispatch"
MODE_PROCESS = "process.run"
MODE_OTHER = "host.other"


class HostProfiler:
    """Low-overhead host-side profiler for one simulation run.

    Attach with :meth:`repro.sim.core.Environment.set_host_profiler`; the
    kernel, fabric, MPI, and telemetry hooks then report into it.  One
    profiler observes one run (or one driver phase sequence) — counts are
    cumulative from construction.
    """

    def __init__(self, clock: HostClock | None = None) -> None:
        self._clock = clock if clock is not None else read_clock
        #: Monotonic activity counters; all deterministic for a fixed workload.
        self.counters: dict[str, int] = {
            "events": 0,
            "process_switches": 0,
            "processes": 0,
            "fabric_flow_rounds": 0,
            "mpi_hops": 0,
            "telemetry_spans": 0,
            "telemetry_samples": 0,
        }
        #: Peak structure sizes observed (deterministic too).
        self.high_water: dict[str, int] = {
            "heap_depth": 0,
            "active_flows": 0,
        }
        #: Exclusive (self-time) wall seconds per attribution mode.
        self.wall: dict[str, float] = {
            MODE_DISPATCH: 0.0,
            MODE_PROCESS: 0.0,
            MODE_OTHER: 0.0,
        }
        #: Inclusive section timers: name -> {"seconds", "calls"}.
        self.sections: dict[str, dict[str, float]] = {}
        self._mode = MODE_OTHER
        self._mark = self._clock()

    # -- self-time state machine --------------------------------------------

    def _charge(self, mode: str) -> None:
        """Charge the interval since the last transition to the old mode."""
        now = self._clock()
        self.wall[self._mode] += now - self._mark
        self._mode = mode
        self._mark = now

    def finish(self) -> None:
        """Flush the open interval (call once when the observed run ends)."""
        self._charge(MODE_OTHER)

    # -- DES kernel hooks -----------------------------------------------------

    def event_dispatched(self, heap_depth: int) -> None:
        """One event popped off the kernel queue (*heap_depth* before the pop)."""
        self.counters["events"] += 1
        if heap_depth > self.high_water["heap_depth"]:
            self.high_water["heap_depth"] = heap_depth
        self._charge(MODE_DISPATCH)

    def process_resumed(self) -> None:
        """A generator process is about to run."""
        self.counters["process_switches"] += 1
        self._charge(MODE_PROCESS)

    def process_spawned(self) -> None:
        """A new process was created on the environment."""
        self.counters["processes"] += 1

    # -- subsystem hooks -------------------------------------------------------

    def flow_round(self, active_flows: int) -> None:
        """The fabric recomputed a flow's share (*active_flows* now live)."""
        self.counters["fabric_flow_rounds"] += 1
        if active_flows > self.high_water["active_flows"]:
            self.high_water["active_flows"] = active_flows

    def mpi_hop(self) -> None:
        """One MPI-layer generator hop (send/recv/collective step)."""
        self.counters["mpi_hops"] += 1

    def span_emitted(self) -> None:
        """The telemetry sink finished (allocated) one span record."""
        self.counters["telemetry_spans"] += 1

    def sample_emitted(self) -> None:
        """The telemetry sink appended one time-series sample."""
        self.counters["telemetry_samples"] += 1

    # -- inclusive sections ----------------------------------------------------

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Inclusive wall timer for a coarse driver phase (build/run/report)."""
        start = self._clock()
        try:
            yield
        finally:
            entry = self.sections.setdefault(name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += self._clock() - start
            entry["calls"] += 1

    # -- reports ---------------------------------------------------------------

    def deterministic_counts(self) -> dict[str, int]:
        """The exactly-reproducible fields (what BENCH_HOST.json hard-gates)."""
        counts = dict(self.counters)
        counts["heap_depth_high_water"] = self.high_water["heap_depth"]
        counts["active_flows_high_water"] = self.high_water["active_flows"]
        return counts

    def report(self) -> dict[str, Any]:
        """Everything measured, as plain data (counts exact, wall advisory)."""
        return {
            "counts": self.deterministic_counts(),
            "wall_seconds": dict(self.wall),
            "sections": {
                name: dict(entry) for name, entry in sorted(self.sections.items())
            },
        }

    def hotspot_rows(self) -> list[tuple[str, int, float]]:
        """(subsystem, calls, exclusive wall seconds), hottest first.

        Counter-only subsystems (fabric, MPI, telemetry) execute inside
        ``process.run`` and carry no exclusive wall time of their own; they
        appear with 0.0 so the call volume still ranks.
        """
        rows = [
            (MODE_DISPATCH, self.counters["events"], self.wall[MODE_DISPATCH]),
            (MODE_PROCESS, self.counters["process_switches"],
             self.wall[MODE_PROCESS]),
            (MODE_OTHER, 0, self.wall[MODE_OTHER]),
            ("network.flow_rounds", self.counters["fabric_flow_rounds"], 0.0),
            ("mpi.hops", self.counters["mpi_hops"], 0.0),
            ("telemetry.spans", self.counters["telemetry_spans"], 0.0),
            ("telemetry.samples", self.counters["telemetry_samples"], 0.0),
        ]
        rows.sort(key=lambda row: (-row[2], -row[1], row[0]))
        return rows


def format_hotspot_table(profiler: HostProfiler) -> str:
    """The per-subsystem hotspot table ``repro profile`` prints.

    Wall columns are advisory (machine-dependent); the calls column is
    deterministic for a fixed workload.
    """
    rows = profiler.hotspot_rows()
    total = sum(seconds for _, _, seconds in rows)
    lines = [
        f"{'subsystem':<22} {'calls':>12} {'wall_s':>10} {'share':>7}",
        "-" * 54,
    ]
    for subsystem, calls, seconds in rows:
        share = (seconds / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"{subsystem:<22} {calls:>12} {seconds:>10.4f} {share:>6.1f}%"
        )
    lines.append("-" * 54)
    total_share = 100.0 if total > 0 else 0.0
    lines.append(f"{'total':<22} {'':>12} {total:>10.4f} {total_share:>6.1f}%")
    return "\n".join(lines)

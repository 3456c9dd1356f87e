"""Campaign-level host observability: where do sweep wall-hours go?

A :class:`CampaignHostRecorder` rides the supervisor's decision points —
submit and completion — and derives, per spec, how long it sat on the host
(wall), how long a worker actually chewed on it (busy, measured in the
worker process itself), and the difference (queue wait).  Workers get
dense lanes in first-seen order, which makes the utilization timeline
renderable as a Chrome trace with one lane per worker — reusing the
simulated-time exporters on a *separate clock domain* (the trace header
says so: ``timebase: host-monotonic``).

Everything here is advisory by construction: the recorder observes the
campaign, never steers it, so a sweep's tables and caches are
byte-identical with or without one attached.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.hostprof.clock import HostClock, read_clock


class CampaignHostRecorder:
    """Per-spec wall/queue-wait/busy timings for one campaign.

    All host-clock reads stay behind instance methods (the clock is
    injectable for deterministic tests); timestamps are seconds since the
    recorder was constructed, so traces start near the origin.
    """

    def __init__(self, clock: HostClock | None = None) -> None:
        self._clock = clock if clock is not None else read_clock
        self._t0 = self._clock()
        #: digest -> timing record (insertion = submission order).
        self.records: dict[str, dict[str, Any]] = {}
        #: worker pid -> dense lane index, first-seen order.
        self.worker_lanes: dict[int, int] = {}

    def _now(self) -> float:
        return self._clock() - self._t0

    # -- supervisor hooks ------------------------------------------------------

    def spec_submitted(self, digest: str, label: str) -> None:
        """A spec entered the execution queue (or started, when serial)."""
        self.records[digest] = {
            "label": label,
            "submitted": self._now(),
            "finished": None,
            "wall_seconds": None,
            "busy_seconds": None,
            "queue_wait_seconds": None,
            "worker": None,
        }

    def spec_done(
        self, digest: str, worker_pid: int, busy_seconds: float | None = None
    ) -> None:
        """A spec completed on *worker_pid*.

        *busy_seconds* is the worker-side measurement (a
        :class:`~repro.hostprof.clock.Stopwatch` around the task body);
        when the transport did not carry one, busy defaults to the full
        wall interval and the queue wait reads as zero.
        """
        record = self.records.get(digest)
        if record is None:  # done without submit: synthesize a zero-start row
            self.spec_submitted(digest, digest)
            record = self.records[digest]
        lane = self.worker_lanes.setdefault(worker_pid, len(self.worker_lanes))
        finished = self._now()
        wall = max(0.0, finished - record["submitted"])
        busy = wall if busy_seconds is None else min(max(0.0, busy_seconds), wall)
        record.update(
            finished=finished,
            wall_seconds=wall,
            busy_seconds=busy,
            queue_wait_seconds=max(0.0, wall - busy),
            worker=lane,
        )

    # -- outputs ---------------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Surface the timings as ``campaign_host_*`` Registry metrics."""
        wall = registry.gauge(
            "campaign_host_wall_seconds",
            "host wall time from submission to completion, per spec",
            unit="s", labelnames=("spec",),
        )
        wait = registry.gauge(
            "campaign_host_queue_wait_seconds",
            "host time a spec waited for a worker, per spec",
            unit="s", labelnames=("spec",),
        )
        busy = registry.gauge(
            "campaign_host_worker_busy_seconds",
            "summed task-execution wall time, per worker lane",
            unit="s", labelnames=("worker",),
        )
        lanes = registry.gauge(
            "campaign_host_workers",
            "distinct worker processes that completed at least one spec",
        )
        per_worker: dict[int, float] = {}
        for record in self.records.values():
            if record["finished"] is None:
                continue
            wall.set(record["wall_seconds"], spec=record["label"])
            wait.set(record["queue_wait_seconds"], spec=record["label"])
            lane = record["worker"]
            per_worker[lane] = per_worker.get(lane, 0.0) + record["busy_seconds"]
        for lane, seconds in sorted(per_worker.items()):
            busy.set(seconds, worker=f"worker{lane}")
        lanes.set(len(self.worker_lanes))

    def to_trace_document(self) -> dict[str, Any]:
        """Chrome trace-event JSON: one lane per worker, host timebase.

        Reuses :func:`repro.telemetry.exporters.to_chrome_trace` by
        staging the busy intervals on a throwaway (unbound) sink, then
        re-stamps the header for the host clock domain so nobody mistakes
        the lanes for simulated time.
        """
        from repro.telemetry.exporters import to_chrome_trace
        from repro.telemetry.sink import Telemetry

        staging = Telemetry(sample_interval=0.0)
        for record in self.records.values():
            if record["finished"] is None:
                continue
            finished = record["finished"]
            start = max(0.0, finished - record["busy_seconds"])
            staging.record_span(
                f"worker{record['worker']}", record["label"], "campaign",
                start, finished,
                queue_wait_seconds=record["queue_wait_seconds"],
            )
        document = to_chrome_trace(staging)
        document["otherData"] = {
            "generator": "repro.hostprof",
            "timebase": "host-monotonic",
        }
        return document


def write_host_trace(recorder: CampaignHostRecorder, stream: IO[str]) -> None:
    """Serialize the recorder's worker-lane trace byte-stably."""
    json.dump(recorder.to_trace_document(), stream,
              sort_keys=True, separators=(",", ":"))
    stream.write("\n")

"""Binds a :class:`FaultSchedule` to a live cluster and fires the faults.

The injector owns the seeded RNG streams (loss draws, straggler magnitudes)
and the crash processes; the fabric, MPI world, and job query it through
narrow hooks so that with an empty schedule every hook returns the neutral
element and the run is bit-for-bit identical to an uninjected one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, NodeFailure
from repro.faults.model import FaultSchedule, NodeCrash
from repro.telemetry.sink import NULL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.job import Job
    from repro.sim import Process

# Fixed offsets carving independent, reproducible streams out of one seed.
_LOSS_STREAM = 1
_STRAGGLER_STREAM = 2


class FaultInjector:
    """Executes a schedule against one cluster.

    Lifecycle: construct with a schedule and cluster, optionally
    :meth:`bind_job` (enables rank death and straggler jitter), then
    :meth:`arm` once to attach to the fabric and start the crash processes.
    """

    def __init__(self, schedule: FaultSchedule, cluster: "Cluster") -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"FaultInjector needs a FaultSchedule, got {schedule!r}"
            )
        for crash in schedule.crashes:
            if crash.node_id >= cluster.node_count:
                raise ConfigurationError(
                    f"crash targets node {crash.node_id} but the cluster has "
                    f"{cluster.node_count} nodes"
                )
        self.schedule = schedule
        self.cluster = cluster
        self.env = cluster.env
        self._loss_rng = np.random.default_rng(schedule.seed + _LOSS_STREAM)
        self._straggler_rng = np.random.default_rng(schedule.seed + _STRAGGLER_STREAM)
        # Straggler multipliers are drawn eagerly, in schedule order, so
        # they do not depend on the order ranks first compute.
        self._straggler: dict[int, float] = {}
        for spec in schedule.stragglers:
            draw = abs(float(self._straggler_rng.normal(spec.mean, spec.std)))
            self._straggler[spec.rank] = self._straggler.get(spec.rank, 1.0) * (1.0 + draw)
        self._job: "Job | None" = None
        self._rank_procs: dict[int, list[tuple[int, "Process"]]] = {}
        self._armed = False

    # -- wiring ----------------------------------------------------------------

    def bind_job(self, job: "Job") -> None:
        """Attach the job whose ranks this injector may kill or slow down."""
        self._job = job

    def register_rank(self, rank: int, node_id: int, process: "Process") -> None:
        """Record that *rank*'s generator runs on *node_id* (crash targeting)."""
        self._rank_procs.setdefault(node_id, []).append((rank, process))

    def arm(self) -> None:
        """Attach to the fabric and start one crash process per NodeCrash.

        Idempotent: a second call is a no-op, so a Job can arm an injector
        the caller already armed manually.
        """
        if self._armed:
            return
        self._armed = True
        self.cluster.fabric.set_fault_injector(self)
        for crash in self.schedule.crashes:
            self.env.process(self._crash_process(crash))
        if self._job is not None and (
            self._job.tracer is not None or self._job.telemetry.enabled
        ):
            for window in self.schedule.degradations + self.schedule.flaps:
                self.env.process(self._window_marker(window))

    # -- hooks queried by the fabric / job -------------------------------------

    def rate_multiplier(self, node_id: int) -> float:
        """Link rate multiplier for *node_id* at the current simulated time."""
        return self.schedule.rate_multiplier(node_id, self.env.now)

    def message_dropped(self, src_id: int, dst_id: int) -> bool:
        """Draw whether a src->dst transfer starting now is lost.

        The RNG is only consumed when the loss probability is non-zero, so a
        schedule without loss terms leaves the stream untouched.
        """
        probability = self.schedule.loss_probability(src_id, dst_id, self.env.now)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self._loss_rng.random() < probability)

    def straggler_multiplier(self, rank: int) -> float:
        """Persistent compute slowdown for *rank* (1.0 when not a straggler)."""
        return self._straggler.get(rank, 1.0)

    # -- internals ------------------------------------------------------------

    def _telemetry(self):
        return self._job.telemetry if self._job is not None else NULL

    def _ranks_on(self, node_id: int) -> list[tuple[int, "Process"]]:
        return self._rank_procs.get(node_id, [])

    def _crash_process(self, crash: NodeCrash):
        if crash.at > 0.0:
            yield self.env.timeout(crash.at)
        node = self.cluster.nodes[crash.node_id]
        if node.failed:
            return
        node.fail()
        telemetry = self._telemetry()
        telemetry.instant(
            "faults", f"crash:node{crash.node_id}", "fault",
            node=crash.node_id,
        )
        telemetry.counter(
            "faults_activated_total", "fault events fired by the injector",
            labelnames=("type",),
        ).inc(type="crash")
        # Only a bound Job registers ranks, so residents imply self._job.
        residents = self._ranks_on(crash.node_id)
        for rank, _proc in residents:
            self._job.world.mark_rank_failed(rank)
        for rank, proc in residents:
            self._job.mark(rank, "fault:crash", self.env.now)
            if proc.is_alive:
                proc.throw(
                    NodeFailure(
                        crash.node_id,
                        f"node {crash.node_id} crashed at t={self.env.now:.6f} "
                        f"(rank {rank} died)",
                    )
                )

    def _window_marker(self, window):
        """Trace markers bracketing a degradation/flap window (per rank).

        With telemetry attached a finite window also lands as one async span
        on the ``faults`` track (an infinite window gets an instant marker —
        a span with no end would never be emitted).
        """
        label = "fault:flap" if not hasattr(window, "multiplier") else "fault:nic"
        kind = label.split(":", 1)[1]
        if window.start > 0.0:
            yield self.env.timeout(window.start)
        for rank, _proc in self._ranks_on(window.node_id):
            self._job.mark(rank, f"{label}:start", self.env.now)
        telemetry = self._telemetry()
        telemetry.counter(
            "faults_activated_total", "fault events fired by the injector",
            labelnames=("type",),
        ).inc(type=kind)
        remaining = window.end - self.env.now
        if np.isfinite(remaining) and remaining > 0.0:
            with telemetry.async_span(
                "faults", f"{label}:node{window.node_id}", "fault",
                node=window.node_id,
            ):
                yield self.env.timeout(remaining)
            for rank, _proc in self._ranks_on(window.node_id):
                self._job.mark(rank, f"{label}:end", self.env.now)
        else:
            telemetry.instant(
                "faults", f"{label}:node{window.node_id}", "fault",
                node=window.node_id,
            )

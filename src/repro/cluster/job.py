"""Job launcher: runs one workload generator per MPI rank on a cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metering import EnergyReport, Metering
from repro.cuda.events import Profiler
from repro.cuda.runtime import CudaContext
from repro.errors import (
    ConfigurationError,
    MessageLostError,
    MPITimeoutError,
    NodeFailure,
    RankFailedError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSchedule
from repro.hardware.cpu import CoreExecution, WorkloadCPUProfile
from repro.hardware.node import Node
from repro.mpi import Communicator, CommWorld, RetryPolicy
from repro.telemetry.sampler import UtilizationSampler
from repro.telemetry.sink import NULL
from repro.units import mflops_per_watt as units_mflops_per_watt

#: The typed failures a degraded-mode job absorbs instead of propagating.
FAULT_ERRORS = (NodeFailure, RankFailedError, MPITimeoutError, MessageLostError)


@dataclass
class RankCounters:
    """PMU-style accumulators for one rank (perf-like totals)."""

    cycles: float = 0.0
    instructions: float = 0.0
    instructions_speculative: float = 0.0
    branches: float = 0.0
    branch_mispredictions: float = 0.0
    mem_ops: float = 0.0
    l1d_misses: float = 0.0
    l2_misses: float = 0.0
    l2_accesses: float = 0.0
    frontend_stall_cycles: float = 0.0
    backend_stall_cycles: float = 0.0
    cpu_flops: float = 0.0
    compute_seconds: float = 0.0
    gpu_seconds: float = 0.0

    def absorb(self, run: CoreExecution) -> None:
        """Fold one core-execution block into the totals."""
        self.cycles += run.cycles
        self.instructions += run.instructions_retired
        self.instructions_speculative += run.instructions_speculative
        self.branches += run.branches
        self.branch_mispredictions += run.branch_mispredictions
        self.mem_ops += run.mem_ops
        self.l1d_misses += run.l1d_misses
        self.l2_misses += run.l2_misses
        self.l2_accesses += run.l2_accesses
        self.frontend_stall_cycles += run.frontend_stall_cycles
        self.backend_stall_cycles += run.backend_stall_cycles
        self.cpu_flops += run.flops
        self.compute_seconds += run.seconds


class RankContext:
    """Everything one rank needs: comm, CUDA, CPU charging, tracing."""

    def __init__(
        self,
        job: "Job",
        rank: int,
        node: Node,
        comm: Communicator,
        cuda: CudaContext | None,
    ) -> None:
        self.job = job
        self.rank = rank
        self.node = node
        self.comm = comm
        self.cuda = cuda
        self.env = node.env
        self.counters = RankCounters()

    @property
    def size(self) -> int:
        """World size."""
        return self.comm.size

    def cpu_compute(self, profile: WorkloadCPUProfile, instructions: float,
                    state: str = "compute"):
        """Generator: run *instructions* on one core of this rank's node.

        Acquires a core slot (ranks beyond the core count contend), charges
        time and power, and accumulates PMU counters.  ``state`` labels the
        trace burst; use ``"overlap"`` for work that runs concurrently with
        other local work so the sequential replay engine skips it.
        """
        node = self.node
        sharers = self.job.ranks_on_node(node.node_id)
        with node.cores.request() as slot:
            yield slot
            run = node.cpu_model.execute(profile, instructions, active_sharers=sharers)
            start = self.env.now
            yield self.env.timeout(run.seconds * self.job.jitter(self.rank))
            node.power.add_cpu_busy(self.env.now - start, start=start)
        self.counters.absorb(run)
        node.dram.record_cpu_traffic(run.l2_misses * node.spec.caches.l2.line_bytes)
        self.job.record_state(self.rank, state, start, self.env.now)
        return run

    def gpu_kernel(self, kernel, *, bypass_cache: bool = False, stream=None):
        """Generator: launch a kernel on this rank's node GPU."""
        if self.cuda is None:
            raise ConfigurationError("this node has no GPU")
        start = self.env.now
        record = yield from self.cuda.launch(kernel, bypass_cache=bypass_cache, stream=stream)
        self.counters.gpu_seconds += record.seconds
        self.job.record_state(self.rank, "gpu", start, self.env.now)
        return record


@dataclass
class JobResult:
    """Everything measured about one job run."""

    elapsed_seconds: float
    energy: EnergyReport
    rank_values: list[Any]
    counters: list[RankCounters]
    comm_seconds: list[float]
    network_bytes: float
    gpu_dram_bytes: float
    gpu_flops: float
    cpu_flops: float
    gpu_profilers: list[Profiler]
    #: rank -> failure description, for ranks that died or hung during a
    #: degraded-mode run (empty on a healthy run).
    failures: dict[int, str] = field(default_factory=dict)
    #: Total MPI send retries across all ranks (lost-message recovery).
    comm_retries: int = 0
    #: Intra-node (loopback) payload bytes — DRAM copies that never touch
    #: the wire, so they are NOT part of network_bytes.
    loopback_bytes: float = 0.0

    @property
    def failed_ranks(self) -> tuple[int, ...]:
        """Ranks that did not complete, ascending."""
        return tuple(sorted(self.failures))

    @property
    def completed(self) -> bool:
        """True when every rank finished its program."""
        return not self.failures

    @property
    def total_flops(self) -> float:
        """All FLOPs retired (CPU + GPU)."""
        return self.gpu_flops + self.cpu_flops

    @property
    def throughput_flops(self) -> float:
        """Sustained FLOP/s over the run."""
        return self.total_flops / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def average_power_watts(self) -> float:
        """Mean cluster power over the run."""
        return self.energy.average_power_watts

    @property
    def energy_joules(self) -> float:
        """Total cluster energy over the run."""
        return self.energy.total_joules

    def mflops_per_watt(self) -> float:
        """The paper's energy-efficiency metric."""
        if self.average_power_watts <= 0:
            return 0.0
        return units_mflops_per_watt(self.throughput_flops, self.average_power_watts)


class Job:
    """Launches ``ranks_per_node`` workload processes on every cluster node.

    ``workload`` is a callable ``(ctx: RankContext) -> generator``; all ranks
    run the same program (SPMD), differentiated by ``ctx.rank``.
    """

    def __init__(
        self,
        cluster: Cluster,
        ranks_per_node: int = 1,
        tracer: Any = None,
        pin_affinity: bool = True,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        faults: FaultSchedule | FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        on_fault: str = "raise",
        telemetry: Any = None,
    ) -> None:
        if ranks_per_node < 1:
            raise ConfigurationError("ranks_per_node must be >= 1")
        if on_fault not in ("raise", "tolerate"):
            raise ConfigurationError(
                f"on_fault must be 'raise' or 'tolerate', got {on_fault!r}"
            )
        self.cluster = cluster
        self.ranks_per_node = ranks_per_node
        self.tracer = tracer
        self.pin_affinity = pin_affinity
        self.on_fault = on_fault
        self.telemetry = telemetry if telemetry is not None else NULL
        if self.telemetry.enabled:
            # One sink observes the whole stack: kernel, fabric, MPI, CUDA,
            # rank states (via the tracer bridge when a tracer is attached).
            self.telemetry.bind_env(cluster.env)
            cluster.env.set_telemetry(self.telemetry)
            cluster.fabric.set_telemetry(self.telemetry)
            if tracer is not None:
                tracer.bind_telemetry(self.telemetry)
        # OS-noise stream: an injected generator wins (lets a driver share
        # one seeded stream across jobs); otherwise seeded privately so two
        # jobs with the same seed draw identical jitter.
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._migration_penalty: dict[int, float] = {}
        self.size = cluster.node_count * ranks_per_node
        self._rank_to_node = [r // ranks_per_node for r in range(self.size)]
        if isinstance(faults, FaultSchedule):
            self._injector: FaultInjector | None = FaultInjector(faults, cluster)
        else:
            self._injector = faults
            if faults is not None and faults.cluster is not cluster:
                raise ConfigurationError(
                    "fault injector is bound to a different cluster"
                )
        # The world's backoff-jitter stream keys on the fault seed so one
        # schedule fully determines a degraded run.
        world_seed = (
            self._injector.schedule.seed + 3 if self._injector is not None else seed
        )
        self.world = CommWorld(
            cluster.env, cluster.fabric, self._rank_to_node, tracer=tracer,
            retry=retry, seed=world_seed, telemetry=self.telemetry,
        )
        if self._injector is not None:
            self._injector.bind_job(self)
        self._cuda: dict[int, CudaContext] = {}
        for node in cluster.nodes:
            if node.has_gpu:
                context = CudaContext(
                    node, pcie_bandwidth=cluster.spec.pcie_bandwidth
                )
                context.set_telemetry(self.telemetry)
                self._cuda[node.node_id] = context

    def ranks_on_node(self, node_id: int) -> int:
        """How many ranks share *node_id* (cache/contention input)."""
        return sum(1 for n in self._rank_to_node if n == node_id)

    def record_state(self, rank: int, state: str, start: float, end: float) -> None:
        """One compute/GPU/copy burst: a single emission path for both consumers.

        With a tracer attached the record flows through it (and the tracer
        mirrors it onto any bound telemetry sink); tracerless telemetry runs
        get the span directly.  Either way exactly one span lands per burst.
        """
        if self.tracer is not None:
            self.tracer.record_state(rank, state, start, end)
        else:
            self.telemetry.record_span(f"rank{rank}", state, "rank", start, end)

    def mark(self, rank: int, label: str, time: float) -> None:
        """A phase/iteration boundary, dispatched like :meth:`record_state`."""
        if self.tracer is not None:
            self.tracer.mark(rank, label, time)
        else:
            self.telemetry.record_span(f"rank{rank}", label, "rank", time, time,
                                       kind="instant")

    def cuda_context(self, node_id: int) -> CudaContext | None:
        """The shared CUDA context of a node, if it has a GPU."""
        return self._cuda.get(node_id)

    def jitter(self, rank: int) -> float:
        """OS-noise multiplier for a compute block.

        With pinned affinity jitter is negligible.  Unpinned, each rank
        draws a *persistent* migration penalty for the run (a thread that
        keeps bouncing between cores stays slow) plus small per-block noise
        — which is why the paper saw the run-to-run standard deviation
        collapse ~30x when it fixed task affinity on the ThunderX.

        An injected straggler fault multiplies on top of OS noise (the
        multiplier is exactly 1.0 for non-straggler ranks, preserving the
        empty-schedule no-op).
        """
        straggler = (
            self._injector.straggler_multiplier(rank)
            if self._injector is not None
            else 1.0
        )
        if self.pin_affinity:
            if rank not in self._migration_penalty:
                self._migration_penalty[rank] = abs(float(self._rng.normal(0.0, 0.002)))
            return (1.0 + self._migration_penalty[rank]) * straggler
        if rank not in self._migration_penalty:
            self._migration_penalty[rank] = abs(float(self._rng.normal(0.04, 0.06)))
        return (
            1.0
            + self._migration_penalty[rank]
            + abs(float(self._rng.normal(0.0, 0.01)))
        ) * straggler

    def contexts(self) -> list[RankContext]:
        """Build the per-rank contexts (exposed for custom drivers)."""
        ctxs = []
        for rank in range(self.size):
            node = self.cluster.nodes[self._rank_to_node[rank]]
            ctxs.append(
                RankContext(
                    self,
                    rank,
                    node,
                    self.world.communicator(rank),
                    self._cuda.get(node.node_id),
                )
            )
        return ctxs

    def run(self, workload: Callable[[RankContext], Any]) -> JobResult:
        """Execute the SPMD *workload* and measure everything.

        With ``on_fault="raise"`` (the default) the first injected failure
        propagates to the caller as its typed exception.  With
        ``on_fault="tolerate"`` failed ranks are recorded in
        :attr:`JobResult.failures` and the surviving ranks run to completion
        (or to deadlock on a dead peer, which is also recorded).
        """
        env = self.cluster.env
        start = env.now
        contexts = self.contexts()
        procs = [env.process(workload(ctx)) for ctx in contexts]
        if self._injector is not None:
            for rank, proc in enumerate(procs):
                self._injector.register_rank(rank, self._rank_to_node[rank], proc)
            self._injector.arm()
        sampler = None
        if self.telemetry.enabled:
            self.telemetry.instant("job", "job:start", "job", ranks=self.size)
            if self.telemetry.sample_interval > 0:
                sampler = UtilizationSampler(self.telemetry, self.cluster)
                sampler.start()
        failures: dict[int, str] = {}
        try:
            if self.on_fault == "tolerate":
                self._drive_tolerant(procs, failures)
            else:
                for proc in procs:
                    env.run(until=proc)
        finally:
            if sampler is not None:
                sampler.stop()
                # Flush the trailing partial interval: the job almost never
                # ends exactly on a sampling tick.
                sampler.finish()
        elapsed = env.now - start
        if self.telemetry.enabled:
            self.telemetry.instant("job", "job:end", "job",
                                   elapsed=elapsed, failures=len(failures))
            self.telemetry.gauge(
                "job_elapsed_seconds", "wall (simulated) duration of the run",
                unit="seconds",
            ).set(elapsed)

        metering = Metering(self.cluster)
        energy = metering.report(elapsed)
        gpu_flops = sum(
            ctx.profiler.total_flops for ctx in self._cuda.values()
        )
        gpu_dram = sum(
            node.dram.traffic.gpu_bytes + node.dram.traffic.copy_bytes
            for node in self.cluster.nodes
        )
        return JobResult(
            elapsed_seconds=elapsed,
            energy=energy,
            rank_values=[
                p.value if (p.triggered and p.ok) else None for p in procs
            ],
            counters=[ctx.counters for ctx in contexts],
            comm_seconds=[s.comm_seconds for s in self.world.stats],
            network_bytes=self.cluster.fabric.total_bytes,
            gpu_dram_bytes=gpu_dram,
            gpu_flops=gpu_flops,
            cpu_flops=sum(ctx.counters.cpu_flops for ctx in contexts),
            gpu_profilers=[c.profiler for c in self._cuda.values()],
            failures=failures,
            comm_retries=sum(s.retries for s in self.world.stats),
            loopback_bytes=self.cluster.fabric.loopback_bytes,
        )

    def _drive_tolerant(self, procs: list, failures: dict[int, str]) -> None:
        """Drive every rank, absorbing injected faults instead of raising.

        ``env.run(until=proc)`` surfaces the failure of *any* process, not
        just the target, so each caught fault is attributed by scanning for
        the proc that actually holds that exception.  When the event queue
        drains while some procs are still pending (survivors blocked forever
        on a dead peer), those ranks are recorded as hung.  Non-fault
        exceptions (genuine bugs) still propagate.
        """
        env = self.cluster.env

        def _attribute(exc: BaseException) -> None:
            # An unmatched exception is an orphan: a helper process (e.g. a
            # sendrecv leg) failing after its rank already died.  Absorb it —
            # the owning rank's own failure is recorded separately.
            for rank, proc in enumerate(procs):
                if rank in failures or not proc.triggered or proc.ok:
                    continue
                if proc.value is exc:
                    failures[rank] = str(exc)
                    return

        while True:
            pending = [p for p in procs if not p.triggered]
            if not pending:
                return
            try:
                env.run(until=pending[0])
            except FAULT_ERRORS as exc:
                _attribute(exc)
            except SimulationError:
                # Queue drained with procs still pending: survivors are
                # deadlocked on dead peers.
                for rank, proc in enumerate(procs):
                    if not proc.triggered and rank not in failures:
                        failures[rank] = "hung (blocked on a failed rank)"
                return

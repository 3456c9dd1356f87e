"""Workload framework: the SPMD program abstraction and decomposition helpers."""

from __future__ import annotations

import abc
from typing import Any

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobResult, RankContext
from repro.cuda.memory_models import MemoryManager, MemoryModel
from repro.errors import ConfigurationError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.tracing import Tracer


def block_partition(total: int, parts: int, index: int) -> int:
    """Size of block *index* when *total* items split across *parts* ranks."""
    if parts < 1 or not 0 <= index < parts:
        raise ConfigurationError(f"bad partition: {total}/{parts}[{index}]")
    base, rem = divmod(total, parts)
    return base + (1 if index < rem else 0)


class Workload(abc.ABC):
    """An SPMD program runnable on any cluster.

    Subclasses define :meth:`program` (the per-rank generator body) and
    :attr:`cpu_profile`.  :meth:`run_on` is the standard measurement entry
    point used by the benchmark harness.
    """

    #: Benchmark tag, e.g. ``"hpl"`` or ``"tealeaf3d"``.
    name: str = "workload"
    #: True when the heavy compute runs on the GPGPU.
    uses_gpu: bool = False
    #: Floating-point precision of the GPU kernels (``"double"`` or
    #: ``"single"``); the roofline's compute roof is that precision's peak.
    precision: str = "double"
    #: Default MPI ranks per node (GPGPU codes use 1, NPB uses all cores).
    default_ranks_per_node: int = 1

    @property
    @abc.abstractmethod
    def cpu_profile(self) -> WorkloadCPUProfile:
        """Architecture-independent CPU behaviour of this workload."""

    @abc.abstractmethod
    def program(self, ctx: RankContext) -> Any:
        """The per-rank simulation generator."""

    def run_on(
        self,
        cluster: Cluster,
        ranks_per_node: int | None = None,
        tracer: Tracer | None = None,
        **job_kwargs: Any,
    ) -> JobResult:
        """Launch this workload on *cluster* and return the measurements."""
        rpn = ranks_per_node or self.default_ranks_per_node
        job = Job(cluster, ranks_per_node=rpn, tracer=tracer, **job_kwargs)
        if tracer is not None and tracer.n_ranks != job.size:
            raise ConfigurationError(
                f"tracer sized for {tracer.n_ranks} ranks, job has {job.size}"
            )
        return job.run(self.program)


class GpuIterativeWorkload(Workload):
    """Shared machinery for the GPGPU-accelerated iterative solvers.

    The concrete solvers (jacobi, tealeaf, cloverleaf) supply per-iteration
    GPU work, halo sizes, and reduction counts; this base provides the
    standard iteration loop: stage halo in, launch kernel(s), stage halo
    out, exchange halos, reduce.
    """

    uses_gpu = True
    default_ranks_per_node = 1
    #: CUDA memory-management model under test (Table III swaps this).
    memory_model: MemoryModel = MemoryModel.HOST_DEVICE

    #: Orchestration instructions the host core spends per iteration.
    host_instructions_per_iteration: float = 2.0e5

    #: Fixed per-iteration driver cost: kernel-launch latencies and
    #: host<->device synchronization that do not shrink with node count.
    #: This is the Ser-limiting term the paper blames for the tealeaf and
    #: cloverleaf scalability ceilings (SIII-B.4).
    driver_overhead_seconds_per_iteration: float = 3.0e-4

    #: What-if extension: the paper notes GPUDirect is NOT supported on the
    #: TX1, forcing halo data through host staging each iteration.  Setting
    #: this True models a GPUDirect-capable SoC: halo staging copies (and
    #: their share of the driver sync) disappear.  See
    #: `repro.bench.ablations.gpudirect_ablation`.
    gpudirect: bool = False

    def __init__(
        self,
        memory_model: MemoryModel | str | None = None,
        gpudirect: bool = False,
    ) -> None:
        if memory_model is not None:
            # The canonical string ("zero-copy") rebuilds the same workload
            # as the enum, so every spec revives from its canonical form.
            try:
                self.memory_model = MemoryModel(memory_model)
            except ValueError:
                raise ConfigurationError(
                    f"unknown memory model {memory_model!r}; known models: "
                    f"{', '.join(m.value for m in MemoryModel)}"
                ) from None
        self.gpudirect = gpudirect

    # Per-rank geometry hooks -------------------------------------------------

    @abc.abstractmethod
    def iterations(self) -> int:
        """Number of outer iterations to run (and trace-mark)."""

    @abc.abstractmethod
    def local_bytes(self, size: int, rank: int) -> float:
        """Resident working-set bytes of this rank's partition."""

    @abc.abstractmethod
    def kernel_flops(self, size: int, rank: int) -> float:
        """GPU FLOPs per iteration for this rank."""

    @abc.abstractmethod
    def kernel_dram_bytes(self, size: int, rank: int) -> float:
        """GPU DRAM traffic per iteration for this rank."""

    @abc.abstractmethod
    def halo_bytes(self, size: int, rank: int) -> float:
        """Bytes exchanged with EACH neighbour per iteration."""

    def reductions_per_iteration(self) -> int:
        """Number of 8-byte allreduces per iteration (dot products etc.)."""
        return 0

    def halo_shifts(self, size: int, rank: int) -> tuple[int, ...]:
        """Ring shift distances for the halo exchange (1-D decomposition).

        Each shift ``s`` becomes a send to ``rank+s`` paired with a receive
        from ``rank-s`` — the classic deadlock-free shift exchange.
        """
        if size == 1:
            return ()
        return (1, -1)

    def halo_exchanges_per_iteration(self) -> int:
        """How many full halo exchanges one iteration performs (tealeaf's CG
        touches more than one vector per iteration)."""
        return 1

    # The shared program ------------------------------------------------------------

    def program(self, ctx: RankContext):
        from repro.cuda.memory_models import MemoryModel as _MM
        from repro.cuda.runtime import KernelSpec  # local to avoid cycles

        size, rank = ctx.size, ctx.rank
        job = ctx.job
        manager = MemoryManager(ctx.cuda, self.memory_model)

        def staged(generator):
            """Run a staging generator and trace its duration as a copy."""
            t0 = ctx.env.now
            yield from generator
            if ctx.env.now > t0:
                job.record_state(rank, "copy", t0, ctx.env.now)

        resident = manager.allocate(self.local_bytes(size, rank))
        yield from staged(manager.stage_input(resident))

        halo = self.halo_bytes(size, rank)
        kernel = KernelSpec(
            name=f"{self.name}-sweep",
            flops=self.kernel_flops(size, rank),
            dram_bytes=self.kernel_dram_bytes(size, rank),
        )
        bypass = self.memory_model is _MM.ZERO_COPY
        for iteration in range(self.iterations()):
            job.mark(rank, "iteration", ctx.env.now)
            yield from ctx.cpu_compute(
                self.cpu_profile, self.host_instructions_per_iteration
            )
            overhead = self.driver_overhead_seconds_per_iteration
            if self.gpudirect:
                # GPUDirect: the NIC DMAs straight into device memory — no
                # per-iteration host staging and half the driver sync.
                overhead *= 0.5
            if overhead > 0.0:
                t0 = ctx.env.now
                yield ctx.env.timeout(overhead)
                job.record_state(rank, "copy", t0, ctx.env.now)
            if not self.gpudirect:
                yield from staged(manager.stage_input(resident, nbytes=halo))
            # Launch through the rank context so time, power, and trace
            # states are all recorded.
            yield from ctx.gpu_kernel(kernel, bypass_cache=bypass)
            if not self.gpudirect:
                yield from staged(manager.stage_output(resident, nbytes=halo))
            shifts = self.halo_shifts(size, rank)
            for rep in range(self.halo_exchanges_per_iteration()):
                for step, shift in enumerate(shifts):
                    tag = 10 + 10 * rep + step
                    yield from ctx.comm.sendrecv(
                        None,
                        dest=(rank + shift) % size,
                        source=(rank - shift) % size,
                        sendtag=tag,
                        recvtag=tag,
                        nbytes=halo,
                    )
            for r in range(self.reductions_per_iteration()):
                yield from ctx.comm.allreduce(0.0, tag=20_000 + 10 * r)
        job.mark(rank, "iteration", ctx.env.now)
        yield from staged(manager.stage_output(resident))
        manager.free(resident)
        return self.iterations()

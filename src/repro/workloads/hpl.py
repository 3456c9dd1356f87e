"""The hpl benchmark: High-Performance Linpack (solve Ax = b).

Right-looking blocked LU over panels in a block-cyclic column distribution:
the panel owner factorizes on the CPU, broadcasts the panel, everyone swaps
pivot rows with a partner and runs the trailing DGEMM update on the GPGPU.
Three modes reproduce the paper's §III-B.6 experiments:

* ``mode="gpu"`` (default) — the GPGPU-accelerated version (one CPU core
  drives communication and transfers).
* ``mode="cpu"`` — the HPCC CPU version, all cores via 4 ranks/node.
* ``gpu_work_ratio`` in (0, 1] — Fig. 7's split of the trailing update
  between the GPGPU and one CPU core, run concurrently.

The validation-scale factorization is `repro.workloads.kernels.linalg`.
"""

from __future__ import annotations

from repro.cuda.runtime import KernelSpec
from repro.errors import ConfigurationError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.units import doubles, mib
from repro.workloads.base import Workload

#: Effective DGEMM arithmetic intensity measured at DRAM on the TX1's
#: 256 KB-L2 Maxwell: small tiles re-stream operands (FLOP/byte).
DGEMM_OI = 5.0

#: CPU DGEMM: fused multiply-adds, 2 FLOPs per instruction via NEON.
_CPU_PROFILE = WorkloadCPUProfile(
    name="hpl-cpu",
    branch_fraction=0.06,
    branch_entropy=0.05,  # blocked loops: highly predictable
    # Register-tiled DGEMM issues ~2 loads per 8 FLOPs.
    memory_fraction=0.20,
    # Blocked DGEMM reuses an L2-resident tile; the hot set is the block.
    working_set_per_rank_bytes=mib(0.75),
    flops_per_instruction=2.0,
)

#: The communication/driver core of the GPU version.
_DRIVER_PROFILE = WorkloadCPUProfile(
    name="hpl-driver",
    branch_fraction=0.12,
    branch_entropy=0.2,
    memory_fraction=0.30,
    working_set_per_rank_bytes=mib(1),
    flops_per_instruction=0.1,
)


class HplWorkload(Workload):
    """Blocked LU (PA = LU) across the cluster."""

    name = "hpl"
    uses_gpu = True

    def __init__(
        self,
        n: int = 16384,
        nb: int = 256,
        mode: str = "gpu",
        gpu_work_ratio: float = 1.0,
    ) -> None:
        if n < nb or nb < 1:
            raise ConfigurationError("need n >= nb >= 1")
        if mode not in ("gpu", "cpu"):
            raise ConfigurationError(f"unknown hpl mode {mode!r}")
        if not 0.0 < gpu_work_ratio <= 1.0:
            raise ConfigurationError("gpu_work_ratio must be in (0, 1]")
        self.n = n
        self.nb = nb
        self.mode = mode
        self.gpu_work_ratio = gpu_work_ratio

    @property
    def uses_gpu(self) -> bool:  # type: ignore[override]
        return self.mode == "gpu"

    @property
    def default_ranks_per_node(self) -> int:  # type: ignore[override]
        return 1 if self.mode == "gpu" else 4

    @property
    def cpu_profile(self) -> WorkloadCPUProfile:
        return _CPU_PROFILE if self.mode == "cpu" else _DRIVER_PROFILE

    # -- cost math -----------------------------------------------------------------

    def panels(self) -> int:
        """Number of nb-wide panels."""
        return self.n // self.nb

    def trailing_rows(self, k: int) -> int:
        """Rows remaining below/right of panel *k*."""
        return self.n - (k + 1) * self.nb

    def panel_flops(self, k: int) -> float:
        """Unblocked panel factorization cost (runs on the owner's CPU)."""
        m = self.n - k * self.nb
        return float(m) * self.nb * self.nb

    def update_flops(self, k: int, size: int) -> float:
        """Per-rank trailing DGEMM FLOPs at panel *k*."""
        m = self.trailing_rows(k)
        return 2.0 * self.nb * float(m) * (float(m) / size) if m > 0 else 0.0

    def total_flops(self) -> float:
        """The official 2/3 n^3 + O(n^2) count (approximately)."""
        return (2.0 / 3.0) * self.n**3

    # -- the SPMD program -------------------------------------------------------------

    def program(self, ctx):
        size, rank = ctx.size, ctx.rank
        env = ctx.env
        # HPL runs a ~square 2-D process grid: broadcasts travel along one
        # grid dimension, so per-rank volumes scale with 1/sqrt(P).
        grid = max(1.0, float(size) ** 0.5)

        def factorize(k: int, state: str = "overlap"):
            instr = self.panel_flops(k) / _CPU_PROFILE.flops_per_instruction
            yield from ctx.cpu_compute(_CPU_PROFILE, instr, state=state)

        # Panel 0 has nothing to hide behind: factorize synchronously.
        pending_fact = (
            env.process(factorize(0, state="compute")) if rank == 0 % size else None
        )
        for k in range(self.panels()):
            if rank == 0:
                ctx.job.mark(0, "panel", env.now)
            owner = k % size
            m = self.trailing_rows(k)
            # The owner must finish the (look-ahead) factorization first.
            if rank == owner and pending_fact is not None:
                yield pending_fact
                pending_fact = None
            # Panel broadcast: this rank-row share of (m + nb) x nb of L.
            panel_bytes = doubles(self.nb * float(m + self.nb)) / grid
            yield from ctx.comm.bcast(None, root=owner, tag=1000 + 100 * k,
                                      nbytes=panel_bytes)
            if m <= 0:
                continue
            # Pivot-row swap with a ring partner, then the U broadcast that
            # spreads the solved U block along the process row.
            swap_bytes = doubles(self.nb * (float(m) / size))
            if size > 1:
                yield from ctx.comm.sendrecv(
                    None, dest=(rank + 1) % size, source=(rank - 1) % size,
                    sendtag=500 + k, recvtag=500 + k, nbytes=swap_bytes,
                )
                yield from ctx.comm.bcast(
                    None, root=owner, tag=1000 + 100 * k + 50,
                    nbytes=doubles(self.nb * float(m)) / grid,
                )
            # Look-ahead: the next panel's owner factorizes while everyone
            # (including it) runs the trailing DGEMM.
            if self.mode == "gpu" and k + 1 < self.panels() and rank == (k + 1) % size:
                pending_fact = env.process(factorize(k + 1))
            flops = self.update_flops(k, size)
            yield from self._trailing_update(ctx, flops)
        if pending_fact is not None:
            yield pending_fact
        return self.total_flops()

    def _trailing_update(self, ctx, flops: float):
        if self.mode == "cpu":
            instr = flops / _CPU_PROFILE.flops_per_instruction
            yield from ctx.cpu_compute(_CPU_PROFILE, instr)
            return
        ratio = self.gpu_work_ratio
        gpu_flops = flops * ratio
        cpu_flops = flops * (1.0 - ratio)
        kernel = KernelSpec(
            name="hpl-dgemm",
            flops=gpu_flops,
            dram_bytes=gpu_flops / DGEMM_OI,
        )
        procs = [ctx.env.process(ctx.gpu_kernel(kernel))]
        if cpu_flops > 0.0:
            instr = cpu_flops / _CPU_PROFILE.flops_per_instruction
            procs.append(ctx.env.process(ctx.cpu_compute(_CPU_PROFILE, instr)))
        for proc in procs:
            yield proc
        # Driver-core overhead for transfers/communication bookkeeping.
        yield from ctx.cpu_compute(_DRIVER_PROFILE, 2.0e5)


class HplCollocatedWorkload(Workload):
    """Table IV's collocation: the CPU hpl on 3 cores runs at the same time
    as the GPGPU hpl (1 driver core + GPU), one instance of each per node."""

    name = "hpl-collocated"
    uses_gpu = True
    default_ranks_per_node = 1

    def __init__(self, n: int = 16384, nb: int = 256) -> None:
        self.gpu_part = HplWorkload(n=n, nb=nb, mode="gpu")
        # The CPU instance solves its own (smaller) problem on 3 cores; the
        # per-rank share is one third of a node's 4-core run.
        self.cpu_part = HplWorkload(n=n, nb=nb, mode="cpu")

    @property
    def cpu_profile(self) -> WorkloadCPUProfile:
        return _CPU_PROFILE

    def program(self, ctx):
        def cpu_core_share():
            # One CPU core's slice of the CPU-hpl trailing updates.
            for k in range(self.cpu_part.panels()):
                flops = self.cpu_part.update_flops(k, ctx.size) / 4.0
                instr = flops / _CPU_PROFILE.flops_per_instruction
                yield from ctx.cpu_compute(_CPU_PROFILE, instr, state="overlap")

        cores = [ctx.env.process(cpu_core_share()) for _ in range(3)]
        gpu_flops = yield from self.gpu_part.program(ctx)
        for core in cores:
            yield core
        return gpu_flops

"""The hpl benchmark: High-Performance Linpack (solve Ax = b).

Right-looking blocked LU over panels in a block-cyclic column distribution:
the panel owner factorizes on the CPU, broadcasts the panel, everyone swaps
pivot rows with a partner and runs the trailing DGEMM update on the GPGPU.
The modes reproduce the paper's §III-B.6 experiments:

* ``mode="gpu"`` (default) — the GPGPU-accelerated version (one CPU core
  drives communication and transfers).
* ``mode="cpu"`` — the HPCC CPU version, all cores via 4 ranks/node.
* ``gpu_work_ratio`` in (0, 1] — Fig. 7's split of the trailing update
  between the GPGPU and one CPU core, run concurrently.
* ``mode="collocated"`` — Table IV: the GPGPU version runs while the other
  three cores of every node run their share of the CPU version.
* ``bcast="binomial"`` — the panel and U broadcasts stay on the binomial
  tree instead of switching to scatter+allgather for large messages.

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
        bcast: str = "scatter-allgather",
    ) -> None:
        if n < nb or nb < 1:
            raise ConfigurationError("need n >= nb >= 1")
        if mode not in ("gpu", "cpu", "collocated"):
            raise ConfigurationError(f"unknown hpl mode {mode!r}")
        if not 0.0 < gpu_work_ratio <= 1.0:
            raise ConfigurationError("gpu_work_ratio must be in (0, 1]")
        if mode == "collocated" and gpu_work_ratio < 1.0:
            raise ConfigurationError(
                "collocated hpl keeps the whole trailing update on the "
                "GPGPU; gpu_work_ratio must be 1.0"
            )
        if bcast not in ("scatter-allgather", "binomial"):
            raise ConfigurationError(f"unknown hpl bcast algorithm {bcast!r}")
        self.n = n
        self.nb = nb
        self.mode = mode
        self.gpu_work_ratio = gpu_work_ratio
        self.bcast = bcast

    @property
    def uses_gpu(self) -> bool:  # type: ignore[override]
        return self.mode != "cpu"

    @property
    def default_ranks_per_node(self) -> int:  # type: ignore[override]
        return 4 if self.mode == "cpu" else 1

    @property
    def cpu_profile(self) -> WorkloadCPUProfile:
        return _DRIVER_PROFILE if self.mode == "gpu" else _CPU_PROFILE

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
        cores = (
            [env.process(self._cpu_core_share(ctx)) for _ in range(3)]
            if self.mode == "collocated" else []
        )
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
                                      nbytes=panel_bytes, algorithm=self.bcast)
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
                    algorithm=self.bcast,
                )
            # Look-ahead: the next panel's owner factorizes while everyone
            # (including it) runs the trailing DGEMM.
            if self.mode != "cpu" and k + 1 < self.panels() and rank == (k + 1) % size:
                pending_fact = env.process(factorize(k + 1))
            flops = self.update_flops(k, size)
            yield from self._trailing_update(ctx, flops)
        if pending_fact is not None:
            yield pending_fact
        for core in cores:
            yield core
        return self.total_flops()

    def _cpu_core_share(self, ctx):
        """One CPU core's slice of the CPU hpl's trailing updates.

        Each core updates what one rank of the 4-rank-per-node CPU version
        would: a quarter of its node's share.  Three such cores run beside
        the GPGPU version's driver core.
        """
        for k in range(self.panels()):
            flops = self.update_flops(k, ctx.size) / 4.0
            instr = flops / _CPU_PROFILE.flops_per_instruction
            yield from ctx.cpu_compute(_CPU_PROFILE, instr, state="overlap")

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

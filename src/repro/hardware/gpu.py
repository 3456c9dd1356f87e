"""Analytical GPU model (integrated TX1 Maxwell, discrete GTX 980).

Kernel execution time is roofline-bounded::

    t = max(flops / (efficiency * peak_flops),
            dram_bytes / effective_memory_bandwidth)

with the effective memory bandwidth degraded when the kernel bypasses the L2
(the paper's zero-copy finding: on the TX1, zero-copy disables caching to keep
coherence, collapsing L2 utilization and read throughput and inflating memory
stalls).  The model also produces nvprof-style metrics (L2 utilization, L2
read throughput, memory-stall fraction) so Table III can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cache import CacheLevel


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPGPU."""

    name: str
    sm_count: int
    cuda_cores: int
    frequency_hz: float
    l2_bytes: float
    # Dedicated GDDR bandwidth for discrete cards; for integrated GPUs this is
    # the GPU's share of the LPDDR4 bus measured with `stream`.
    memory_bandwidth: float
    # Maxwell retires 1/32 DP FLOP per SP lane per cycle.
    dp_ratio: float = 1.0 / 32.0
    # Fraction of DRAM traffic absorbed by L2 when caching is enabled.
    l2_hit_fraction: float = 0.55
    # Bandwidth penalty multiplier when the cache hierarchy is bypassed
    # (zero-copy on TX1): uncoalesced, uncached word-granularity accesses.
    bypass_bandwidth_factor: float = 0.45
    # Reconstructed Maxwell L2 sector bandwidth: each SM can pull one 32 B
    # sector per cycle from the L2 crossbar, so the L2 ceiling of the
    # hierarchical roofline is sm_count * frequency * 32 B.
    l2_bytes_per_cycle_per_sm: float = 32.0
    # Power-law exponent of the L2 miss model (see repro.hardware.cache);
    # used when a kernel does not declare its own L2-level traffic.
    l2_miss_exponent: float = 0.5

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.cuda_cores <= 0:
            raise ConfigurationError(f"{self.name}: SM/core counts must be positive")
        if not (self.frequency_hz > 0 and self.memory_bandwidth > 0):
            raise ConfigurationError(f"{self.name}: frequency/bandwidth must be positive")
        if not 0.0 < self.dp_ratio <= 1.0:
            raise ConfigurationError(f"{self.name}: dp_ratio must be in (0, 1]")
        if not 0.0 <= self.l2_hit_fraction < 1.0:
            raise ConfigurationError(f"{self.name}: l2_hit_fraction must be in [0, 1)")
        if not 0.0 < self.bypass_bandwidth_factor <= 1.0:
            raise ConfigurationError(f"{self.name}: bypass factor must be in (0, 1]")
        if self.l2_bytes_per_cycle_per_sm <= 0:
            raise ConfigurationError(
                f"{self.name}: l2_bytes_per_cycle_per_sm must be positive"
            )
        if self.l2_miss_exponent <= 0:
            raise ConfigurationError(f"{self.name}: l2_miss_exponent must be > 0")

    @property
    def peak_sp_flops(self) -> float:
        """Peak single-precision FLOP/s (2 FLOP per core-cycle: FMA)."""
        return 2.0 * self.cuda_cores * self.frequency_hz

    @property
    def peak_dp_flops(self) -> float:
        """Peak double-precision FLOP/s."""
        return self.peak_sp_flops * self.dp_ratio

    @property
    def l2_bandwidth(self) -> float:
        """Aggregate L2 read bandwidth (the hierarchical roofline's L2 roof)."""
        return self.sm_count * self.frequency_hz * self.l2_bytes_per_cycle_per_sm


@dataclass(frozen=True)
class GPUKernelCost:
    """Outcome of one kernel launch on the model."""

    seconds: float
    flops: float
    dram_bytes: float
    compute_seconds: float
    memory_seconds: float
    l2_utilization: float
    l2_read_throughput: float
    memory_stall_fraction: float
    #: L2-level request traffic of the launch (0 when the cache is bypassed);
    #: the hierarchical roofline's per-level byte counter.
    l2_bytes: float = 0.0

    @property
    def achieved_flops(self) -> float:
        """Sustained FLOP/s of the launch."""
        return self.flops / self.seconds if self.seconds > 0 else 0.0

    @property
    def memory_bound(self) -> bool:
        """True if the memory roof, not the compute roof, set the time."""
        return self.memory_seconds >= self.compute_seconds


class GPUModel:
    """Roofline-bounded kernel cost model with cache-bypass support."""

    def __init__(self, spec: GPUSpec, sustained_efficiency: float = 0.70) -> None:
        if not 0.0 < sustained_efficiency <= 1.0:
            raise ConfigurationError("sustained_efficiency must be in (0, 1]")
        self.spec = spec
        self.sustained_efficiency = sustained_efficiency
        # The GPU L2 as a power-law cache level (repro.hardware.cache): its
        # base miss ratio is pinned so that a working set filling the L2
        # reproduces the calibrated flat hit fraction.
        self.l2_level = CacheLevel(
            name=f"{spec.name}-L2",
            size_bytes=spec.l2_bytes,
            line_bytes=64,
            latency_cycles=1.0,
            miss_exponent=spec.l2_miss_exponent,
            base_miss_ratio=1.0 - spec.l2_hit_fraction,
        )

    def l2_request_bytes(self, dram_bytes: float) -> float:
        """Estimated L2-level traffic behind *dram_bytes* of DRAM traffic.

        Every DRAM byte is an L2 miss, so the request stream the L2 served
        is ``dram_bytes / miss_ratio``; the miss ratio comes from the cache
        model's power law with the launch's DRAM footprint as the working
        set (cache-resident kernels miss rarely and hammer the L2 instead;
        streaming kernels saturate at miss ratio 1, where L2 traffic equals
        DRAM traffic).  Workloads that know their reuse structure can carry
        explicit per-level bytes on the kernel spec instead.
        """
        if dram_bytes <= 0.0:
            return 0.0
        miss = self.l2_level.miss_ratio(dram_bytes)
        return dram_bytes / miss if miss > 0.0 else 0.0

    def kernel_cost(
        self,
        flops: float,
        dram_bytes: float,
        *,
        precision: str = "double",
        bypass_cache: bool = False,
        l2_bytes: float | None = None,
    ) -> GPUKernelCost:
        """Time and metrics for a kernel doing *flops* over *dram_bytes*.

        ``dram_bytes`` is the kernel's DRAM-visible traffic under normal
        caching; with ``bypass_cache`` the L2 filter disappears and every
        access goes to memory at degraded bandwidth.  ``l2_bytes`` is the
        launch's declared L2-level request traffic; when omitted it is
        estimated from the cache model's miss ratio
        (:meth:`l2_request_bytes`).
        """
        if flops < 0 or dram_bytes < 0:
            raise ConfigurationError("flops/dram_bytes must be non-negative")
        if l2_bytes is not None and l2_bytes < 0:
            raise ConfigurationError("l2_bytes must be non-negative")
        spec = self.spec
        if precision == "double":
            peak = spec.peak_dp_flops
        elif precision == "single":
            peak = spec.peak_sp_flops
        else:
            raise ConfigurationError(f"unknown precision {precision!r}")

        compute_seconds = flops / (peak * self.sustained_efficiency) if flops else 0.0

        if bypass_cache:
            effective_bw = spec.memory_bandwidth * spec.bypass_bandwidth_factor
            memory_traffic = dram_bytes / (1.0 - spec.l2_hit_fraction)
            l2_utilization = 0.0
            l2_read_throughput = 0.0
            l2_traffic = 0.0  # the L2 is out of the access path
        else:
            l2_traffic = (
                l2_bytes if l2_bytes is not None
                else self.l2_request_bytes(dram_bytes)
            )
            effective_bw = spec.memory_bandwidth
            memory_traffic = dram_bytes
            l2_utilization = 1.0
            # L2 absorbs l2_hit_fraction of the raw request stream; its read
            # throughput is the hit traffic it serves.
            l2_read_throughput = (
                dram_bytes / (1.0 - spec.l2_hit_fraction) * spec.l2_hit_fraction
            )

        memory_seconds = memory_traffic / effective_bw if memory_traffic else 0.0
        seconds = max(compute_seconds, memory_seconds)
        if seconds > 0:
            stall = max(0.0, memory_seconds - compute_seconds) / seconds
        else:
            stall = 0.0

        if seconds > 0 and l2_read_throughput > 0:
            l2_read_throughput /= seconds  # bytes -> bytes/s
        return GPUKernelCost(
            seconds=seconds,
            flops=flops,
            dram_bytes=dram_bytes,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            l2_utilization=l2_utilization,
            l2_read_throughput=l2_read_throughput,
            memory_stall_fraction=stall,
            l2_bytes=l2_traffic,
        )

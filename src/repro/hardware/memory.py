"""Shared DRAM model.

On the TX1 the 4 GB LPDDR4 is *physically shared* between CPU and GPU — the
defining property of the paper's unified-memory-architecture SoC.  The model
tracks capacity, exposes the stream-measured per-agent bandwidths, and keeps a
running account of traffic (used for Fig. 3's DRAM-traffic axis and the
extended Roofline's operational-intensity denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DRAMSpec:
    """Static description of a node's main memory."""

    name: str
    capacity_bytes: float
    cpu_bandwidth: float  # stream triad, CPU agent, bytes/s
    gpu_bandwidth: float  # stream, GPU agent, bytes/s
    unified: bool = True  # CPU and GPU share one physical memory?

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(f"{self.name}: capacity must be positive")
        if not (self.cpu_bandwidth > 0 and self.gpu_bandwidth > 0):
            raise ConfigurationError(f"{self.name}: bandwidths must be positive")


@dataclass
class DRAMTraffic:
    """Running totals of DRAM traffic, split by agent."""

    cpu_bytes: float = 0.0
    gpu_bytes: float = 0.0
    copy_bytes: float = 0.0  # host<->device memcpy traffic

    @property
    def total_bytes(self) -> float:
        """All DRAM traffic."""
        return self.cpu_bytes + self.gpu_bytes + self.copy_bytes


class DRAMModel:
    """Capacity accounting plus traffic metering for one node's DRAM."""

    def __init__(self, spec: DRAMSpec) -> None:
        self.spec = spec
        self._allocated = 0.0
        self.traffic = DRAMTraffic()

    @property
    def allocated_bytes(self) -> float:
        """Bytes currently allocated (host + device)."""
        return self._allocated

    @property
    def free_bytes(self) -> float:
        """Bytes still available."""
        return self.spec.capacity_bytes - self._allocated

    def allocate(self, nbytes: float) -> None:
        """Reserve *nbytes*; raises if the node would run out of memory."""
        if nbytes < 0:
            raise ConfigurationError("allocation must be non-negative")
        if nbytes > self.free_bytes:
            raise MemoryError(
                f"{self.spec.name}: out of memory "
                f"(want {nbytes:.3e} B, free {self.free_bytes:.3e} B)"
            )
        self._allocated += nbytes

    def release(self, nbytes: float) -> None:
        """Return *nbytes* to the pool."""
        if nbytes < 0:
            raise ConfigurationError("release must be non-negative")
        if nbytes > self._allocated + 1e-9:
            raise ConfigurationError("releasing more than allocated")
        self._allocated = max(0.0, self._allocated - nbytes)

    # -- traffic metering ------------------------------------------------------

    def record_cpu_traffic(self, nbytes: float) -> None:
        """Account CPU-agent DRAM traffic."""
        self.traffic.cpu_bytes += nbytes

    def record_gpu_traffic(self, nbytes: float) -> None:
        """Account GPU-agent DRAM traffic (Fig. 3 / roofline denominator)."""
        self.traffic.gpu_bytes += nbytes

    def record_copy_traffic(self, nbytes: float) -> None:
        """Account host<->device copy traffic."""
        self.traffic.copy_bytes += nbytes

    def copy_seconds(self, nbytes: float) -> float:
        """Duration of a host<->device copy of *nbytes*.

        On a unified-memory SoC the copy is memory-to-memory over the shared
        bus (read + write); on a discrete card it crosses PCIe — modelled by
        the spec's gpu_bandwidth for simplicity, with the PCIe case handled by
        the CUDA runtime layer which knows the bus.
        """
        if nbytes < 0:
            raise ConfigurationError("copy size must be non-negative")
        bw = min(self.spec.cpu_bandwidth, self.spec.gpu_bandwidth)
        return 2.0 * nbytes / bw if self.spec.unified else nbytes / bw

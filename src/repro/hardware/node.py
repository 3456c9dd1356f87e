"""Node assembly: cores + caches + GPU + DRAM + NIC + power as one unit."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cache import CacheHierarchy
from repro.hardware.cpu import CPUCoreModel, CPUCoreSpec
from repro.hardware.gpu import GPUModel, GPUSpec
from repro.hardware.memory import DRAMModel, DRAMSpec
from repro.hardware.nic import NICSpec
from repro.hardware.power import PowerModel, PowerSpec
from repro.sim import Environment, Resource, Slot


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node (an SoC board or a server)."""

    name: str
    cpu: CPUCoreSpec
    caches: CacheHierarchy
    core_count: int
    dram: DRAMSpec
    power: PowerSpec
    gpu: GPUSpec | None = None
    gpu_sustained_efficiency: float = 0.70

    def __post_init__(self) -> None:
        if self.core_count < 1:
            raise ConfigurationError(f"{self.name}: need at least one core")

    @property
    def peak_dp_flops(self) -> float:
        """Peak node DP FLOP/s: all cores plus GPU if present."""
        cpu_peak = self.core_count * self.cpu.dp_flops_per_cycle * self.cpu.frequency_hz
        gpu_peak = self.gpu.peak_dp_flops if self.gpu else 0.0
        return cpu_peak + gpu_peak


class Node:
    """A live node inside a simulation environment.

    Exposes the shared resources ranks contend for:

    * ``cores`` — one slot per CPU core,
    * ``gpu_engine`` — the single kernel-execution engine (kernels from
      different processes serialize, as on real hardware without MPS),
    * ``copy_engine`` — the DMA/copy path,
    * ``nic_tx`` / ``nic_rx`` — serialization at the network interface:
      each a FIFO :class:`~repro.sim.Slot` held by one wire
      :class:`~repro.network.Flow` at a time.
    """

    def __init__(
        self,
        env: Environment,
        spec: NodeSpec,
        node_id: int,
        nic: NICSpec,
    ) -> None:
        self.env = env
        self.spec = spec
        self.node_id = node_id
        self.nic = nic

        self.cpu_model = CPUCoreModel(spec.cpu, spec.caches)
        self.gpu_model = (
            GPUModel(spec.gpu, spec.gpu_sustained_efficiency) if spec.gpu else None
        )
        self.dram = DRAMModel(spec.dram)
        self.power = PowerModel(spec.power)

        self.cores = Resource(env, capacity=spec.core_count)
        self.gpu_engine = Resource(env, capacity=1) if spec.gpu else None
        self.copy_engine = Resource(env, capacity=1)
        self.nic_tx = Slot(env)
        self.nic_rx = Slot(env)

        self.network_bytes_sent = 0.0
        self.network_bytes_received = 0.0
        # Intra-node (loopback) traffic never touches the NIC; it is
        # recorded apart from the wire counters above.
        self.loopback_bytes = 0.0
        # Health state: set by the fault-injection layer; a failed node's
        # NIC refuses transfers and its resident ranks are dead.
        self.failed = False
        self.failed_at: float | None = None

    @property
    def is_healthy(self) -> bool:
        """True while the node has not been failed by fault injection."""
        return not self.failed

    def fail(self) -> None:
        """Mark this node as crashed at the current simulated time."""
        if not self.failed:
            self.failed = True
            self.failed_at = self.env.now

    @property
    def has_gpu(self) -> bool:
        """True if this node carries a GPGPU."""
        return self.gpu_model is not None

    def require_gpu(self) -> GPUModel:
        """The GPU model, or a configuration error if the node has none."""
        if self.gpu_model is None:
            raise ConfigurationError(f"node {self.spec.name}#{self.node_id} has no GPU")
        return self.gpu_model

    def record_send(self, nbytes: float) -> None:
        """Account bytes leaving this node on the wire."""
        self.network_bytes_sent += nbytes

    def record_receive(self, nbytes: float) -> None:
        """Account bytes arriving at this node from the wire."""
        self.network_bytes_received += nbytes

    def record_loopback(self, nbytes: float) -> None:
        """Account an intra-node transfer (DRAM copy, no NIC involvement)."""
        self.loopback_bytes += nbytes

    def __repr__(self) -> str:
        return f"<Node {self.spec.name}#{self.node_id} nic={self.nic.name}>"

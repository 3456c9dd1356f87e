"""The extended Roofline for integrated-GPGPU clusters (Eqs. 1-3)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class LimitingFactor(enum.Enum):
    """Which ceiling caps the attainable performance."""

    COMPUTE = "compute"
    OPERATIONAL = "operational"  # the DRAM->GPGPU bandwidth roof
    NETWORK = "network"  # the NIC bandwidth roof


@dataclass(frozen=True)
class ExtendedRoofline:
    """Per-node ceilings of the proposed cluster organization.

    ``peak_flops`` is the node's GPGPU peak (the paper's computation term is
    GPGPU floating-point work), ``memory_bandwidth`` the DRAM->GPGPU stream
    bandwidth, and ``network_bandwidth`` the NIC's achievable rate.
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    network_bandwidth: float

    def __post_init__(self) -> None:
        if not (
            self.peak_flops > 0
            and self.memory_bandwidth > 0
            and self.network_bandwidth > 0
        ):
            raise ConfigurationError(f"{self.name}: all peaks must be positive")

    def attainable(self, operational_intensity: float, network_intensity: float) -> float:
        """Eq. 3: min of the three roofs."""
        if not (operational_intensity > 0 and network_intensity > 0):
            raise ConfigurationError("intensities must be positive")
        return min(
            self.peak_flops,
            self.memory_bandwidth * operational_intensity,
            self.network_bandwidth * network_intensity,
        )

    def limiting_factor(
        self, operational_intensity: float, network_intensity: float
    ) -> LimitingFactor:
        """Which roof binds at this (OI, NI) point.

        Ties between a bandwidth roof and the compute roof report the
        bandwidth roof (the actionable constraint); the paper's Table II
        column reports only ``operational`` or ``network`` for its
        benchmarks, all of which sit below the compute roof.
        """
        mem = self.memory_bandwidth * operational_intensity
        net = self.network_bandwidth * network_intensity
        if net <= mem and net <= self.peak_flops:
            return LimitingFactor.NETWORK
        if mem <= net and mem <= self.peak_flops:
            return LimitingFactor.OPERATIONAL
        return LimitingFactor.COMPUTE

    def memory_ridge(self) -> float:
        """OI where the memory roof reaches peak compute."""
        return self.peak_flops / self.memory_bandwidth

    def network_ridge(self) -> float:
        """NI where the network roof reaches peak compute."""
        return self.peak_flops / self.network_bandwidth


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's measured position in the extended model (Table II row)."""

    name: str
    operational_intensity: float  # FLOP/byte, Eq. 1
    network_intensity: float  # FLOP/byte, Eq. 2
    throughput: float  # achieved FLOP/s (per node)
    model: ExtendedRoofline

    @property
    def attainable(self) -> float:
        """The model's bound at this point."""
        return self.model.attainable(self.operational_intensity, self.network_intensity)

    @property
    def percent_of_peak(self) -> float:
        """Achieved / attainable, as a percentage (Table II's column)."""
        bound = self.attainable
        return 100.0 * self.throughput / bound if bound > 0 else 0.0

    @property
    def limit(self) -> LimitingFactor:
        """Table II's limit column: which *intensity* roof is lower.

        The paper's "limit" column picks between operational and network
        only — "the limiting intensity specifies which intensity ... limits
        the theoretical peak performance the most" — so the flat compute
        roof is not a candidate here, and the network loses ties.
        """
        mem = self.model.memory_bandwidth * self.operational_intensity
        net = self.model.network_bandwidth * self.network_intensity
        return LimitingFactor.NETWORK if net < mem else LimitingFactor.OPERATIONAL

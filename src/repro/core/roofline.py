"""The classic (Williams et al.) Roofline model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RooflineModel:
    """Peak compute and memory-bandwidth ceilings for one chip."""

    name: str
    peak_flops: float  # FLOP/s
    memory_bandwidth: float  # bytes/s

    def __post_init__(self) -> None:
        if not (self.peak_flops > 0 and self.memory_bandwidth > 0):
            raise ConfigurationError(f"{self.name}: peaks must be positive")

    def attainable(self, operational_intensity: float) -> float:
        """Attainable FLOP/s at the given operational intensity (FLOP/byte)."""
        if not operational_intensity > 0:
            raise ConfigurationError("operational intensity must be positive")
        return min(self.peak_flops, self.memory_bandwidth * operational_intensity)

    @property
    def ridge_point(self) -> float:
        """Intensity (FLOP/byte) where the memory roof meets the compute roof."""
        return self.peak_flops / self.memory_bandwidth

    def is_memory_bound(self, operational_intensity: float) -> bool:
        """True when the memory ceiling limits this intensity."""
        return operational_intensity < self.ridge_point

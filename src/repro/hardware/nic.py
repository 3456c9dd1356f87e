"""Network interface controller specifications.

Two NICs matter to the paper: the TX1's on-board 1 GbE and the Startech
PEX10000SFP 10 GbE card in the PCIe x4 slot.  The 10 GbE card cannot reach
line rate on the TX1 — the paper measures ~3.3 Gb/s with iperf — so the spec
carries both the *line rate* and the *achievable rate* plus latency and the
card's power adder (~5 W, which Figs. 1–2's energy accounting must include).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NICSpec:
    """Static description of a network interface."""

    name: str
    line_rate: float  # bytes/s nominal (1 or 10 Gb/s)
    achievable_rate: float  # bytes/s sustained (iperf-measured)
    latency_one_way: float  # seconds, NIC+stack one-way latency contribution
    power_watts: float  # power adder at full utilization
    # Per-message CPU cost (interrupt + stack); mobile cores pay this.
    cpu_overhead_per_message: float = 5.0e-6
    # Draw when the link is up but idle (EEE/power states).
    idle_power_watts: float | None = None

    @property
    def idle_watts(self) -> float:
        """Idle draw; defaults to half the active figure."""
        return self.power_watts * 0.5 if self.idle_power_watts is None else self.idle_power_watts

    def power_at(self, utilization: float) -> float:
        """Draw at a given link utilization in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization must be in [0, 1], got {utilization}")
        return self.idle_watts + (self.power_watts - self.idle_watts) * utilization

    def __post_init__(self) -> None:
        if not (self.line_rate > 0 and self.achievable_rate > 0):
            raise ConfigurationError(f"{self.name}: rates must be positive")
        if self.achievable_rate > self.line_rate + 1e-9:
            raise ConfigurationError(f"{self.name}: achievable rate exceeds line rate")
        if not (self.latency_one_way >= 0 and self.power_watts >= 0):
            raise ConfigurationError(f"{self.name}: latency/power must be non-negative")

    def transfer_seconds(self, nbytes: float) -> float:
        """Serialization time of *nbytes* at the achievable rate (no latency)."""
        if nbytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        return nbytes / self.achievable_rate

"""Hierarchical Roofline: one bandwidth ceiling per memory level.

The extended model (`repro.core.extended`) bounds a node with a single
DRAM ceiling and a single network ceiling.  The hierarchical model keeps
the same algebra but carries one ceiling per memory level — L2 and DRAM
today, extensible to any `repro.hardware.cache.CacheHierarchy` — so a
placement can name the *binding level* rather than just "memory-bound"
(cf. hierarchical Roofline analysis, arxiv 2009.05257)::

    OI_level   = FLOPs / bytes moved through that level
    attainable = min(peak, min_level(bw_level * OI_level), net_bw * NI)

Levels are ordered nearest-to-compute first (L2 before DRAM); ties in the
binding decision resolve toward the nearer level, mirroring the flat
model's memory-wins-ties convention.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.core.extended import ExtendedRoofline
from repro.errors import AnalysisError, ConfigurationError
from repro.hardware.cache import CacheHierarchy

#: Canonical level names used by cluster-derived hierarchies.
L2_LEVEL = "l2"
DRAM_LEVEL = "dram"
#: The network roof is not a memory level but competes in the binding
#: decision under this name.
NETWORK_LEVEL = "network"


@dataclass(frozen=True)
class LevelCeiling:
    """One memory level's bandwidth roof."""

    name: str
    bandwidth: float  # bytes/s the level can stream to the compute units

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("ceiling needs a level name")
        if not self.bandwidth > 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")


@dataclass(frozen=True)
class HierarchicalRoofline:
    """Per-node ceilings with one bandwidth roof per memory level.

    ``levels`` is ordered nearest-to-compute first and must contain a
    ``dram`` level so the model stays cross-checkable against the flat
    :class:`~repro.core.extended.ExtendedRoofline` (same DRAM and network
    roofs by construction).
    """

    name: str
    peak_flops: float
    levels: tuple[LevelCeiling, ...]
    network_bandwidth: float

    def __post_init__(self) -> None:
        if not (self.peak_flops > 0 and self.network_bandwidth > 0):
            raise ConfigurationError(f"{self.name}: all peaks must be positive")
        if not self.levels:
            raise ConfigurationError(f"{self.name}: need at least one memory level")
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"{self.name}: duplicate level names {names}")
        if DRAM_LEVEL not in names:
            raise ConfigurationError(
                f"{self.name}: a {DRAM_LEVEL!r} level is required for the "
                "flat-model cross-check"
            )
        if NETWORK_LEVEL in names:
            raise ConfigurationError(
                f"{self.name}: {NETWORK_LEVEL!r} is reserved for the NIC roof"
            )

    @property
    def level_names(self) -> tuple[str, ...]:
        """Level names, nearest-to-compute first."""
        return tuple(lvl.name for lvl in self.levels)

    def level(self, name: str) -> LevelCeiling:
        """The ceiling of one level, by name."""
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise AnalysisError(f"{self.name}: no memory level {name!r}")

    def attainable(
        self, intensities: Mapping[str, float], network_intensity: float
    ) -> float:
        """The hierarchical bound: min over compute, every level, and the NIC.

        ``intensities`` maps every level name to its measured operational
        intensity; a missing level is an analysis error, not silently a
        non-binding roof.
        """
        bound = min(self.peak_flops, self._network_roof(network_intensity))
        for _, roof in self._level_roofs(intensities):
            bound = min(bound, roof)
        return bound

    def binding_level(
        self, intensities: Mapping[str, float], network_intensity: float
    ) -> str:
        """Which bandwidth roof binds: a level name or ``"network"``.

        Like Table II's limit column (``RooflinePoint.limit``), only
        bandwidth roofs compete: the compute roof is not a candidate.  Ties
        resolve toward the level nearest to compute, and the network loses
        all ties, so a single-level hierarchy degenerates to the flat
        memory-wins rule.  An infinite intensity (a silent axis) never
        binds.
        """
        best_name = None
        best_roof = float("inf")
        for lvl, roof in self._level_roofs(intensities):
            if roof < best_roof:
                best_name, best_roof = lvl.name, roof
        if self._network_roof(network_intensity) < best_roof:
            return NETWORK_LEVEL
        if best_name is None:
            raise AnalysisError(f"{self.name}: every bandwidth roof is silent")
        return best_name

    def _level_roofs(
        self, intensities: Mapping[str, float]
    ) -> Iterator[tuple[LevelCeiling, float]]:
        """``(level, bw_level * OI_level)`` per level, nearest-first."""
        for lvl in self.levels:
            if lvl.name not in intensities:
                raise AnalysisError(
                    f"{self.name}: no measured intensity for level {lvl.name!r}"
                )
            oi = intensities[lvl.name]
            if not oi > 0:
                raise ConfigurationError("intensities must be positive")
            yield lvl, lvl.bandwidth * oi

    def _network_roof(self, network_intensity: float) -> float:
        if not network_intensity > 0:
            raise ConfigurationError("intensities must be positive")
        return self.network_bandwidth * network_intensity

    def ridge_point(self, name: str) -> float:
        """OI where *name*'s roof reaches peak compute."""
        return self.peak_flops / self.level(name).bandwidth

    def network_ridge(self) -> float:
        """NI where the network roof reaches peak compute."""
        return self.peak_flops / self.network_bandwidth

    def flat(self) -> ExtendedRoofline:
        """The equivalent flat model (DRAM + network roofs only).

        A :class:`~repro.core.model_io.Placement`'s flat point is placed
        against this, so both views share their DRAM and network roofs.
        """
        return ExtendedRoofline(
            name=self.name,
            peak_flops=self.peak_flops,
            memory_bandwidth=self.level(DRAM_LEVEL).bandwidth,
            network_bandwidth=self.network_bandwidth,
        )


def levels_from_cache_hierarchy(
    caches: CacheHierarchy,
    frequency_hz: float,
    dram_bandwidth: float,
) -> tuple[LevelCeiling, ...]:
    """CPU-side ceilings from a measured cache hierarchy (extensibility path).

    Each cache level's streaming bandwidth is modeled as one line per
    ``latency_cycles`` per sharer — the rate a pointer-chasing sweep
    sustains — and the DRAM ceiling closes the hierarchy.  The GPU path
    does not use this (its L2 roof comes from the SM sector rate on
    :class:`~repro.hardware.gpu.GPUSpec`); this exists so ThunderX-class
    CPU nodes can get a hierarchy from the same catalog data.
    """
    if frequency_hz <= 0:
        raise ConfigurationError("frequency_hz must be positive")
    ceilings = []
    for level in caches.levels():
        bandwidth = (
            level.shared_by * frequency_hz * level.line_bytes / level.latency_cycles
        )
        ceilings.append(LevelCeiling(name=level.name.lower(), bandwidth=bandwidth))
    ceilings.append(LevelCeiling(name=DRAM_LEVEL, bandwidth=dram_bandwidth))
    return tuple(ceilings)

"""Placing measured runs under the extended Roofline (Eqs. 1-3).

This module owns the placement decision.  A run's whole-job counters are
one :class:`RunTotals` record, whatever they were read from; :func:`place`
turns a record into intensities, roofs and the binding ceiling, flat
(Table II) and per level (Roofline 2.0) in one :class:`Placement`.  The
compute roof follows the workload's kernel precision
(:attr:`repro.workloads.base.Workload.precision`), so a single-precision
CNN is held to the SP peak and a DP solver to the DP peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.job import JobResult
from repro.core.extended import ExtendedRoofline, RooflinePoint
from repro.core.hierarchy import (
    DRAM_LEVEL,
    L2_LEVEL,
    HierarchicalRoofline,
    LevelCeiling,
)
from repro.errors import AnalysisError, ConfigurationError


def hierarchical_roofline_for_cluster(
    cluster: Cluster, *, precision: str
) -> HierarchicalRoofline:
    """Per-level ceilings for *cluster*: GPU L2, DRAM, and the NIC.

    The L2 roof is the GPU's aggregate sector bandwidth
    (:attr:`~repro.hardware.gpu.GPUSpec.l2_bandwidth`); the DRAM roof is
    the DRAM->GPGPU stream bandwidth of the flat model.  The compute roof
    is the GPU's ``"double"`` or ``"single"`` precision peak.
    """
    gpu = cluster.spec.node_spec.gpu
    if gpu is None:
        raise AnalysisError("the roofline needs a GPGPU-bearing node")
    if precision == "double":
        peak = gpu.peak_dp_flops
    elif precision == "single":
        peak = gpu.peak_sp_flops
    else:
        raise ConfigurationError(f"unknown precision {precision!r}")
    return HierarchicalRoofline(
        name=cluster.spec.name,
        peak_flops=peak,
        levels=(
            LevelCeiling(name=L2_LEVEL, bandwidth=gpu.l2_bandwidth),
            LevelCeiling(name=DRAM_LEVEL, bandwidth=gpu.memory_bandwidth),
        ),
        network_bandwidth=cluster.spec.nic.achievable_rate,
    )


def roofline_for_cluster(cluster: Cluster) -> ExtendedRoofline:
    """Per-node flat ceilings (DP compute, DRAM, NIC) for *cluster* (Fig. 4)."""
    return hierarchical_roofline_for_cluster(cluster, precision="double").flat()


@dataclass(frozen=True)
class RunTotals:
    """Whole-job counters behind Eqs. 1-3.

    ``dram_bytes`` is the DRAM traffic to the GPGPU (kernel traffic plus
    host<->device staging, the paper's "data transferred through the DRAM
    to the GPGPU"); ``l2_bytes`` is kernel traffic at the GPU L2 (copies
    reach DRAM by DMA, past the L2); ``network_bytes`` is what the NICs
    carried.  An axis with no bytes has infinite intensity: its roof never
    binds.
    """

    flops: float
    dram_bytes: float
    l2_bytes: float
    network_bytes: float
    elapsed_seconds: float

    @classmethod
    def of(cls, result: JobResult) -> RunTotals:
        """The totals a :class:`~repro.cluster.job.JobResult` carries."""
        return cls(
            flops=result.gpu_flops,
            dram_bytes=result.gpu_dram_bytes,
            l2_bytes=sum(p.total_l2_bytes for p in result.gpu_profilers),
            network_bytes=result.network_bytes,
            elapsed_seconds=result.elapsed_seconds,
        )

    def _per_byte(self, nbytes: float) -> float:
        return self.flops / nbytes if nbytes > 0 else math.inf

    @property
    def operational_intensity(self) -> float:
        """Eq. 1: FLOPs per DRAM->GPGPU byte."""
        return self._per_byte(self.dram_bytes)

    @property
    def l2_intensity(self) -> float:
        """Eq. 1 at the GPU L2: FLOPs per L2 byte."""
        return self._per_byte(self.l2_bytes)

    @property
    def network_intensity(self) -> float:
        """Eq. 2: FLOPs per wire byte."""
        return self._per_byte(self.network_bytes)

    @property
    def level_intensities(self) -> dict[str, float]:
        """Operational intensity per GPU memory level, nearest-first."""
        return {L2_LEVEL: self.l2_intensity, DRAM_LEVEL: self.operational_intensity}


def _headroom(roofs: list[float]) -> float:
    """Second-lowest bandwidth roof over the lowest (>= 1)."""
    roofs = sorted(roofs)
    return roofs[1] / roofs[0] if roofs[0] > 0 else math.inf


@dataclass(frozen=True)
class Placement:
    """One run under its cluster's ceilings, flat and per level.

    ``point`` is the flat Table II view (DRAM + network roofs, the
    ``limit`` column); the remaining fields are the Roofline 2.0 view over
    every memory level.  ``point.model`` is ``hier.flat()``, so the two
    views share their compute, DRAM and network roofs.
    """

    point: RooflinePoint
    totals: RunTotals
    hier: HierarchicalRoofline
    #: The binding bandwidth roof: a level name or ``"network"``.
    binding_level: str
    #: The hierarchical bound at this run's intensities, per node.
    attainable_flops: float

    @property
    def level_intensities(self) -> dict[str, float]:
        """Operational intensity per memory level, nearest-first."""
        return self.totals.level_intensities

    @property
    def network_intensity(self) -> float:
        """Eq. 2 for this run."""
        return self.point.network_intensity

    @property
    def percent_of_roof(self) -> float:
        """Attained throughput as a percentage of the hierarchical bound."""
        bound = self.attainable_flops
        return 100.0 * self.point.throughput / bound if bound > 0 else 0.0

    @property
    def binding_headroom(self) -> float:
        """Second-lowest bandwidth roof over the binding one, all levels.

        > 1 means the binding level is comfortably the bottleneck; ~1 means
        the run sits near a crossover and a small change migrates it.
        """
        roofs = [
            self.hier.level(name).bandwidth * oi
            for name, oi in self.level_intensities.items()
        ]
        roofs.append(self.hier.network_bandwidth * self.network_intensity)
        return _headroom(roofs)

    @property
    def flat_headroom(self) -> float:
        """The same ratio over the flat model's DRAM and network roofs."""
        model = self.point.model
        return _headroom([
            model.memory_bandwidth * self.point.operational_intensity,
            model.network_bandwidth * self.point.network_intensity,
        ])


def place(
    totals: RunTotals,
    cluster: Cluster,
    *,
    precision: str,
    name: str = "run",
) -> Placement:
    """Place *totals* under *cluster*'s ceilings (throughput per node).

    *precision* is the workload's kernel precision
    (:attr:`~repro.workloads.base.Workload.precision`); it has no default,
    so no caller is held to the DP peak by omission.
    """
    if not totals.elapsed_seconds > 0:
        raise AnalysisError(f"{name}: run has no duration")
    if not totals.flops > 0:
        raise AnalysisError(f"{name}: no GPU FLOPs measured")
    hier = hierarchical_roofline_for_cluster(cluster, precision=precision)
    point = RooflinePoint(
        name=name,
        operational_intensity=totals.operational_intensity,
        network_intensity=totals.network_intensity,
        throughput=(totals.flops / totals.elapsed_seconds) / cluster.node_count,
        model=hier.flat(),
    )
    levels = totals.level_intensities
    return Placement(
        point=point,
        totals=totals,
        hier=hier,
        binding_level=hier.binding_level(levels, point.network_intensity),
        attainable_flops=hier.attainable(levels, point.network_intensity),
    )


def measure_roofline_point(
    name: str,
    result: JobResult,
    cluster: Cluster,
    *,
    precision: str,
) -> RooflinePoint:
    """The flat Eq. 1/2 point of a measured run (Fig. 4, Table II)."""
    return place(RunTotals.of(result), cluster, precision=precision, name=name).point

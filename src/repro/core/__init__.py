"""The paper's primary contribution: the extended Roofline model.

The classic Roofline bounds a chip's attainable performance by
``min(peak_compute, memory_bandwidth × operational_intensity)``.  For an
integrated-GPGPU cluster the paper adds a third ceiling — the network — and a
second intensity axis::

    operational intensity = FLOPs / bytes moved DRAM -> GPGPU          (Eq. 1)
    network intensity     = FLOPs / bytes moved over the NIC           (Eq. 2)
    attainable            = min(peak, mem_bw * OI, net_bw * NI)        (Eq. 3)

`repro.core.roofline` implements the classic model, `repro.core.extended`
the extension and `repro.core.hierarchy` its per-level form.
`repro.core.model_io` places measured runs: one totals record, one
placement function, used by every view (Table II, Roofline 2.0, reports,
ridgeline, campaign rows).  `repro.core.report` renders Fig. 4-style plots
and the Table II report as text.
"""

from repro.core.roofline import RooflineModel
from repro.core.extended import ExtendedRoofline, LimitingFactor, RooflinePoint
from repro.core.hierarchy import (
    DRAM_LEVEL,
    L2_LEVEL,
    NETWORK_LEVEL,
    HierarchicalRoofline,
    LevelCeiling,
    levels_from_cache_hierarchy,
)
from repro.core.model_io import (
    Placement,
    RunTotals,
    hierarchical_roofline_for_cluster,
    measure_roofline_point,
    place,
    roofline_for_cluster,
)
from repro.core.report import render_roofline_ascii, render_table2

__all__ = [
    "DRAM_LEVEL",
    "ExtendedRoofline",
    "HierarchicalRoofline",
    "L2_LEVEL",
    "LevelCeiling",
    "LimitingFactor",
    "NETWORK_LEVEL",
    "Placement",
    "RooflineModel",
    "RooflinePoint",
    "RunTotals",
    "hierarchical_roofline_for_cluster",
    "levels_from_cache_hierarchy",
    "measure_roofline_point",
    "place",
    "render_roofline_ascii",
    "render_table2",
    "roofline_for_cluster",
]

"""Trace-driven bottleneck attribution and the perf-regression baseline.

``repro.insight`` answers the questions the paper answers by hand.  From
a run's :class:`~repro.tracing.Trace`: where the wall time went (critical
path over the per-rank op streams, stitched through FIFO-matched message
edges), and how the η = LB · Ser · Trf factors derived directly from those
ops compare with the replay engine's (cross-check).  From a
:class:`~repro.telemetry.Telemetry` sink's measured instruments: which
roofline ceiling binds the run.  On top sits the benchmark-regression
baseline: a committed JSON of headline numbers plus a ``--check`` that
fails CI on drift.
"""

from repro.insight.baseline import (
    BASELINE_SCHEMA,
    BASELINE_WORKLOADS,
    DEFAULT_TOLERANCE,
    Drift,
    collect_baseline,
    compare_baseline,
    format_drift_report,
    load_baseline,
    write_baseline,
)
from repro.insight.critical_path import (
    SEGMENT_KINDS,
    CriticalPath,
    CriticalSegment,
    critical_path,
    critical_path_of_streams,
)
from repro.insight.decompose import (
    EfficiencyCrossCheck,
    RankActivity,
    SpanBreakdown,
    cross_check,
    decompose,
    decompose_streams,
)
from repro.insight.ops import OpStreams, RankOp, extract_ops, match_messages
from repro.insight.report import (
    RENDERERS,
    ROOFLINE_MODES,
    InsightReport,
    build_report,
    render_json,
    render_markdown,
    render_text,
    to_dict,
)
from repro.insight.ridgeline import (
    MigrationRow,
    RankPoint,
    RidgelinePlacement,
    ceiling_migration_sweep,
    format_migration_sweep,
    format_ridgeline,
    format_ridgeline_markdown,
    render_ridgeline_svg,
    ridgeline_from_run,
    ridgeline_to_dict,
)
from repro.insight.roofline import (
    HierarchicalPlacement,
    MeasuredIntensities,
    RooflinePlacement,
    export_placement_gauges,
    intensities_from_run,
    intensities_from_telemetry,
    place_hier_from_run,
    place_run,
    place_run_hier,
)

__all__ = [
    "BASELINE_SCHEMA",
    "BASELINE_WORKLOADS",
    "DEFAULT_TOLERANCE",
    "RENDERERS",
    "ROOFLINE_MODES",
    "SEGMENT_KINDS",
    "CriticalPath",
    "CriticalSegment",
    "Drift",
    "EfficiencyCrossCheck",
    "HierarchicalPlacement",
    "InsightReport",
    "MeasuredIntensities",
    "MigrationRow",
    "OpStreams",
    "RankActivity",
    "RankOp",
    "RankPoint",
    "RidgelinePlacement",
    "RooflinePlacement",
    "SpanBreakdown",
    "build_report",
    "ceiling_migration_sweep",
    "collect_baseline",
    "compare_baseline",
    "critical_path",
    "critical_path_of_streams",
    "cross_check",
    "decompose",
    "decompose_streams",
    "export_placement_gauges",
    "extract_ops",
    "format_drift_report",
    "format_migration_sweep",
    "format_ridgeline",
    "format_ridgeline_markdown",
    "intensities_from_run",
    "intensities_from_telemetry",
    "load_baseline",
    "match_messages",
    "place_hier_from_run",
    "place_run",
    "place_run_hier",
    "render_json",
    "render_markdown",
    "render_ridgeline_svg",
    "render_text",
    "ridgeline_from_run",
    "ridgeline_to_dict",
    "to_dict",
    "write_baseline",
]

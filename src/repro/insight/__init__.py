"""Trace-driven bottleneck attribution and the perf-regression baseline.

``repro.insight`` answers the questions the paper answers by hand.  From
a run's :class:`~repro.tracing.Trace`: where the wall time went (critical
path over the per-rank op streams, stitched through FIFO-matched message
edges), and how the η = LB · Ser · Trf factors derived directly from those
ops compare with the replay engine's (cross-check).  Where the run sits
under the roofline is :func:`repro.core.place`'s answer; reports fold the
run's totals from its :class:`~repro.cluster.job.JobResult` in completion
order (:func:`completion_totals`).  On top sits the benchmark-regression
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
from repro.insight.roofline import completion_totals

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
    "InsightReport",
    "MigrationRow",
    "OpStreams",
    "RankActivity",
    "RankOp",
    "RankPoint",
    "RidgelinePlacement",
    "SpanBreakdown",
    "build_report",
    "ceiling_migration_sweep",
    "collect_baseline",
    "compare_baseline",
    "completion_totals",
    "critical_path",
    "critical_path_of_streams",
    "cross_check",
    "decompose",
    "decompose_streams",
    "extract_ops",
    "format_drift_report",
    "format_migration_sweep",
    "format_ridgeline",
    "format_ridgeline_markdown",
    "load_baseline",
    "match_messages",
    "render_json",
    "render_markdown",
    "render_ridgeline_svg",
    "render_text",
    "ridgeline_from_run",
    "ridgeline_to_dict",
    "to_dict",
    "write_baseline",
]

"""The per-workload performance report: text, JSON, and Markdown.

``python -m repro report <workload>`` runs the workload once traced (a
memory-tier hit when it already ran), then folds the three analyses —
critical path, roofline placement, LB · Ser · Trf decomposition — into one
deterministic report.
Identical runs render byte-identical output in all three formats (fixed
float formatting, sorted keys, no wall-clock or host fields), so reports
can be diffed across builds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core import Placement, place
from repro.errors import ConfigurationError
from repro.insight.critical_path import SEGMENT_KINDS, CriticalPath, critical_path_of_streams
from repro.insight.decompose import EfficiencyCrossCheck, decompose_streams
from repro.insight.ops import extract_ops
from repro.insight.ridgeline import (
    RidgelinePlacement,
    format_ridgeline_markdown,
    ridgeline_from_run,
    ridgeline_to_dict,
)
from repro.insight.roofline import completion_totals
from repro.scalability import parallel_efficiency
from repro.units import to_gbyte_s, to_gflops

#: Roofline view selector for ``build_report`` / ``repro report --roofline``.
ROOFLINE_MODES = ("flat", "hier", "2d")


@dataclass(frozen=True)
class InsightReport:
    """Everything one report renders."""

    workload: str
    nodes: int
    network: str
    system: str
    runtime_seconds: float
    throughput_flops: float
    average_power_watts: float
    path: CriticalPath
    efficiency: EfficiencyCrossCheck
    #: ``None`` for CPU-only workloads (no GPGPU ceilings to place under).
    placement: Placement | None
    #: One of :data:`ROOFLINE_MODES`: which views of the placement render.
    roofline: str = "flat"
    #: Per-rank 2D placement; set for GPGPU runs with ``roofline == "2d"``.
    ridgeline: RidgelinePlacement | None = None


def build_report(
    workload: str,
    nodes: int = 4,
    network: str = "10G",
    system: str = "tx1",
    roofline: str = "flat",
) -> InsightReport:
    """Run *workload* traced and assemble its report.

    ``roofline`` widens the roofline section: ``"flat"`` keeps the single
    DRAM + network placement, ``"hier"`` adds the per-level hierarchy and
    its binding level, ``"2d"`` additionally places every rank on the
    OI × NI plane (and lets the CLI render the figure).
    """
    from repro.bench.runner import run_workload
    from repro.workloads import ALL_NAMES, GPGPU_NAMES

    if workload not in ALL_NAMES:
        raise ConfigurationError(
            f"unknown workload {workload!r}; known workloads: "
            f"{', '.join(sorted(ALL_NAMES))}"
        )
    if roofline not in ROOFLINE_MODES:
        raise ConfigurationError(
            f"unknown roofline mode {roofline!r}; choose from "
            f"{', '.join(ROOFLINE_MODES)}"
        )
    run = run_workload(
        workload, nodes=nodes, network=network, system=system, traced=True,
    )
    streams = extract_ops(run.trace)
    efficiency = EfficiencyCrossCheck(
        span=decompose_streams(streams),
        replay=parallel_efficiency(run.trace, rank_to_node=run.rank_to_node),
    )
    placement = None
    ridgeline = None
    if workload in GPGPU_NAMES:
        placement = place(
            completion_totals(run.result), run.cluster,
            precision=run.workload.precision, name=workload,
        )
        if roofline == "2d":
            ridgeline = ridgeline_from_run(run, name=workload)
    return InsightReport(
        workload=workload,
        nodes=run.cluster.node_count,
        network=network,
        system=system,
        runtime_seconds=run.result.elapsed_seconds,
        throughput_flops=run.result.throughput_flops,
        average_power_watts=run.result.average_power_watts,
        path=critical_path_of_streams(streams),
        efficiency=efficiency,
        placement=placement,
        roofline=roofline,
        ridgeline=ridgeline,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _hier_placement(report: InsightReport) -> Placement | None:
    """The placement whose per-level view renders (``roofline != "flat"``)."""
    return report.placement if report.roofline != "flat" else None


def to_dict(report: InsightReport) -> dict[str, Any]:
    """The machine-readable form (JSON-safe, deterministically ordered)."""
    path = report.path
    breakdown = path.breakdown
    replay = report.efficiency.replay
    span = report.efficiency.span
    document: dict[str, Any] = {
        "workload": report.workload,
        "config": {
            "nodes": report.nodes,
            "network": report.network,
            "system": report.system,
        },
        "runtime_seconds": report.runtime_seconds,
        "throughput_gflops": to_gflops(report.throughput_flops),
        "average_power_watts": report.average_power_watts,
        "critical_path": {
            "duration_seconds": path.duration,
            "segments": len(path.segments),
            "ranks_visited": list(path.rank_visits),
            "dominant": path.dominant_kind,
            "breakdown_seconds": {k: breakdown[k] for k in SEGMENT_KINDS},
            "breakdown_fractions": {
                k: path.fraction(k) for k in SEGMENT_KINDS
            },
        },
        "efficiency": {
            "load_balance": replay.load_balance,
            "serialization": replay.serialization,
            "transfer": replay.transfer,
            "eta": replay.efficiency,
            "span_load_balance": span.load_balance,
            "span_eta": span.efficiency,
            "lb_delta": report.efficiency.lb_delta,
            "eta_delta": report.efficiency.eta_delta,
            "consistent": report.efficiency.consistent(),
        },
    }
    placement = report.placement
    if placement is not None:
        point = placement.point
        document["roofline"] = {
            "operational_intensity": point.operational_intensity,
            "network_intensity": point.network_intensity,
            "throughput_per_node_gflops": to_gflops(point.throughput),
            "attainable_gflops": to_gflops(point.attainable),
            "percent_of_roof": point.percent_of_peak,
            "binding": point.limit.value,
            "binding_headroom": placement.flat_headroom,
            "ceilings": {
                "peak_gflops": to_gflops(point.model.peak_flops),
                "memory_gbyte_s": to_gbyte_s(point.model.memory_bandwidth),
                "network_gbyte_s": to_gbyte_s(point.model.network_bandwidth),
            },
        }
    hier = _hier_placement(report)
    if hier is not None:
        document["roofline_hier"] = {
            "binding_level": hier.binding_level,
            "level_intensities": hier.level_intensities,
            "network_intensity": hier.network_intensity,
            "attainable_gflops": to_gflops(hier.attainable_flops),
            "percent_of_roof": hier.percent_of_roof,
            "binding_headroom": hier.binding_headroom,
            "ceilings": {
                lvl.name: to_gbyte_s(lvl.bandwidth) for lvl in hier.hier.levels
            },
        }
    if report.ridgeline is not None:
        document["ridgeline"] = ridgeline_to_dict(report.ridgeline)
    return document


def render_json(report: InsightReport) -> str:
    """JSON rendering (sorted keys, newline-terminated, byte-stable)."""
    return json.dumps(to_dict(report), indent=2, sort_keys=True) + "\n"


def render_text(report: InsightReport) -> str:
    """Plain-text rendering for the terminal."""
    lines = [
        f"{report.workload} on {report.nodes}x {report.system} ({report.network})",
        f"  runtime     : {report.runtime_seconds:12.4f} s",
        f"  throughput  : {to_gflops(report.throughput_flops):12.2f} GFLOPS",
        f"  avg power   : {report.average_power_watts:12.1f} W",
        "",
        "critical path (where the wall time went):",
    ]
    path = report.path
    breakdown = path.breakdown
    for kind in SEGMENT_KINDS:
        seconds = breakdown[kind]
        if seconds <= 0:
            continue
        lines.append(
            f"  {kind:<8}: {seconds:10.4f} s  {100.0 * path.fraction(kind):5.1f} %"
        )
    lines.append(
        f"  path: {len(path.segments)} segments across "
        f"{len(path.rank_visits)} rank(s); dominant: {path.dominant_kind}"
    )
    lines.append("")
    replay = report.efficiency.replay
    lines.append("parallel efficiency (eta = LB x Ser x Trf):")
    lines.append(
        f"  LB={replay.load_balance:.4f}  Ser={replay.serialization:.4f}  "
        f"Trf={replay.transfer:.4f}  eta={replay.efficiency:.4f}"
    )
    lines.append(
        f"  span cross-check: LB={report.efficiency.span.load_balance:.4f} "
        f"(delta {report.efficiency.lb_delta:.4f}), "
        f"eta={report.efficiency.span.efficiency:.4f} "
        f"(delta {report.efficiency.eta_delta:.4f}) -> "
        f"{'consistent' if report.efficiency.consistent() else 'INCONSISTENT'}"
    )
    placement = report.placement
    if placement is not None:
        point = placement.point
        lines.append("")
        lines.append("roofline placement (measured intensities vs ceilings):")
        lines.append(
            f"  OI={point.operational_intensity:.3f} F/B  "
            f"NI={point.network_intensity:.2f} F/B  "
            f"{to_gflops(point.throughput):.2f} GFLOPS/node"
        )
        lines.append(
            f"  binding ceiling: {point.limit.value} "
            f"({point.percent_of_peak:.1f} % of "
            f"{to_gflops(point.attainable):.2f} GFLOPS roof, "
            f"headroom x{placement.flat_headroom:.2f})"
        )
    hier = _hier_placement(report)
    if hier is not None:
        lines.append("")
        lines.append("hierarchical roofline (per-level ceilings):")
        intensities = hier.level_intensities
        for lvl in hier.hier.levels:
            marker = "*" if hier.binding_level == lvl.name else " "
            lines.append(
                f" {marker} {lvl.name:<8}: OI={intensities[lvl.name]:10.3f} F/B  "
                f"roof {to_gbyte_s(lvl.bandwidth):7.1f} GB/s"
            )
        marker = "*" if hier.binding_level == "network" else " "
        lines.append(
            f" {marker} network : NI={hier.network_intensity:10.2f} F/B  "
            f"roof {to_gbyte_s(hier.hier.network_bandwidth):7.2f} GB/s"
        )
        lines.append(
            f"  binding level: {hier.binding_level} "
            f"({hier.percent_of_roof:.1f} % of "
            f"{to_gflops(hier.attainable_flops):.2f} GFLOPS bound, "
            f"headroom x{hier.binding_headroom:.2f})"
        )
    if report.ridgeline is not None:
        from repro.insight.ridgeline import format_ridgeline

        lines.append("")
        lines.append(format_ridgeline(report.ridgeline).rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_markdown(report: InsightReport) -> str:
    """Markdown rendering for CI artifacts and docs."""
    path = report.path
    replay = report.efficiency.replay
    lines = [
        f"# Performance report: `{report.workload}`",
        "",
        f"Configuration: {report.nodes} node(s), {report.system}, "
        f"{report.network} network.",
        "",
        "| metric | value |",
        "|---|---|",
        f"| runtime | {report.runtime_seconds:.4f} s |",
        f"| throughput | {to_gflops(report.throughput_flops):.2f} GFLOPS |",
        f"| average power | {report.average_power_watts:.1f} W |",
        "",
        "## Critical path",
        "",
        f"{len(path.segments)} segments across {len(path.rank_visits)} "
        f"rank(s); dominant component: **{path.dominant_kind}**.",
        "",
        "| component | seconds | share |",
        "|---|---|---|",
    ]
    breakdown = path.breakdown
    for kind in SEGMENT_KINDS:
        seconds = breakdown[kind]
        if seconds <= 0:
            continue
        lines.append(
            f"| {kind} | {seconds:.4f} | {100.0 * path.fraction(kind):.1f} % |"
        )
    lines += [
        "",
        "## Parallel efficiency",
        "",
        "| LB | Ser | Trf | eta | span LB | span eta | consistent |",
        "|---|---|---|---|---|---|---|",
        f"| {replay.load_balance:.4f} | {replay.serialization:.4f} "
        f"| {replay.transfer:.4f} | {replay.efficiency:.4f} "
        f"| {report.efficiency.span.load_balance:.4f} "
        f"| {report.efficiency.span.efficiency:.4f} "
        f"| {'yes' if report.efficiency.consistent() else 'NO'} |",
    ]
    placement = report.placement
    if placement is not None:
        point = placement.point
        lines += [
            "",
            "## Roofline placement",
            "",
            f"Binding ceiling: **{point.limit.value}** "
            f"({point.percent_of_peak:.1f} % of the "
            f"{to_gflops(point.attainable):.2f} GFLOPS roof; "
            f"headroom x{placement.flat_headroom:.2f}).",
            "",
            "| OI (F/B) | NI (F/B) | GFLOPS/node | peak | mem roof | net roof |",
            "|---|---|---|---|---|---|",
            f"| {point.operational_intensity:.3f} "
            f"| {point.network_intensity:.2f} "
            f"| {to_gflops(point.throughput):.2f} "
            f"| {to_gflops(point.model.peak_flops):.1f} GFLOPS "
            f"| {to_gbyte_s(point.model.memory_bandwidth):.1f} GB/s "
            f"| {to_gbyte_s(point.model.network_bandwidth):.2f} GB/s |",
        ]
    hier = _hier_placement(report)
    if hier is not None:
        intensities = hier.level_intensities
        lines += [
            "",
            "## Roofline 2.0 (hierarchical)",
            "",
            f"Binding level: **{hier.binding_level}** "
            f"({hier.percent_of_roof:.1f} % of the "
            f"{to_gflops(hier.attainable_flops):.2f} GFLOPS bound; "
            f"headroom x{hier.binding_headroom:.2f}).",
            "",
            "| level | intensity (F/B) | roof (GB/s) | binding |",
            "|---|---|---|---|",
        ]
        for lvl in hier.hier.levels:
            binds = "yes" if hier.binding_level == lvl.name else "no"
            lines.append(
                f"| {lvl.name} | {intensities[lvl.name]:.3f} "
                f"| {to_gbyte_s(lvl.bandwidth):.1f} | {binds} |"
            )
        binds = "yes" if hier.binding_level == "network" else "no"
        lines.append(
            f"| network | {hier.network_intensity:.2f} "
            f"| {to_gbyte_s(hier.hier.network_bandwidth):.2f} | {binds} |"
        )
    if report.ridgeline is not None:
        lines += [
            "",
            "## Ridgeline (per-rank 2D placement)",
            "",
        ]
        lines += format_ridgeline_markdown(report.ridgeline)
    return "\n".join(lines) + "\n"


#: Renderer registry for the CLI.
RENDERERS = {
    "text": render_text,
    "json": render_json,
    "md": render_markdown,
}

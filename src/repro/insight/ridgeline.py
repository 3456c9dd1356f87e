"""Ridgeline: per-rank 2D roofline placement for distributed runs.

The flat and hierarchical placements collapse a job to one point; the
Ridgeline view (arxiv 2209.01368) keeps the distributed structure by
placing *every rank* on the operational-intensity × network-intensity
plane, colored by how busy the rank was.  A tight cluster of points means
the job is balanced; a rank drifting left (low OI) or down (low NI,
chatty) names the straggler and its cause.

Everything here derives from an :class:`~repro.bench.runner.ExperimentRun`
— trace states for attribution and utilization, per-node GPU profilers
for FLOPs and per-level bytes, trace comm/recv records for per-rank wire
traffic — so the same figure comes out of a cold run, a parallel campaign
worker, or a warm store revival, byte for byte.  Rendering uses fixed
float formats and no wall-clock state, so outputs are diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core import (
    DRAM_LEVEL,
    L2_LEVEL,
    HierarchicalRoofline,
    Placement,
    RunTotals,
    place,
)
from repro.errors import AnalysisError
from repro.units import to_gflops

#: Binding label for a rank that retired no GPU work.
IDLE = "idle"


@dataclass(frozen=True, kw_only=True)
class RankPoint(RunTotals):
    """One rank's totals and its position on the 2D intensity plane.

    Intensities are the :class:`~repro.core.model_io.RunTotals` ones:
    ``inf`` on an axis the rank never touched.
    """

    rank: int
    node: int
    #: Fraction of the run the rank spent in useful states (compute/gpu/copy).
    utilization: float
    #: Binding bandwidth ceiling for this rank's intensities (level name,
    #: ``"network"``, or ``"idle"`` when the rank retired no GPU work).
    binding: str = IDLE


@dataclass(frozen=True)
class RidgelinePlacement:
    """A whole run on the 2D plane: one point per rank plus the job point."""

    name: str
    points: tuple[RankPoint, ...]
    job: Placement

    @property
    def hier(self) -> HierarchicalRoofline:
        """The per-level ceilings every point sits under."""
        return self.job.hier

    @property
    def binding_level(self) -> str:
        """The job-level binding ceiling."""
        return self.job.binding_level

    def spread(self) -> float:
        """Max/min finite per-rank network intensity (imbalance indicator)."""
        finite = [
            p.network_intensity
            for p in self.points
            if p.network_bytes > 0 and p.flops > 0
        ]
        if len(finite) < 2:
            return 1.0
        low, high = min(finite), max(finite)
        return high / low if low > 0 else math.inf


def ridgeline_from_run(run, name: str = "run") -> RidgelinePlacement:
    """Build the per-rank 2D placement of a traced GPGPU run.

    FLOPs and per-level bytes are attributed node-exactly (each GPU node
    has its own profiler) and split across a node's ranks by their GPU
    busy seconds from the trace (an even split when none of the node's
    ranks recorded GPU time); wire bytes are per-rank exact from the
    trace's comm and recv records.  The job and every busy rank are placed
    by :func:`repro.core.place`.
    """
    if run.trace is None:
        raise AnalysisError(
            "ridgeline needs a traced run: pass traced=True to run_workload"
        )
    precision = run.workload.precision
    job = place(
        RunTotals.of(run.result), run.cluster, precision=precision, name=name
    )
    trace = run.trace
    elapsed = run.result.elapsed_seconds

    # Profilers are listed in node order over the GPU-bearing nodes.
    gpu_node_ids = [
        node.node_id for node in run.cluster.nodes if node.spec.gpu is not None
    ]
    profilers = dict(zip(gpu_node_ids, run.result.gpu_profilers))

    node_ranks: dict[int, list[int]] = {}
    for rank, node_id in enumerate(run.rank_to_node):
        node_ranks.setdefault(node_id, []).append(rank)

    rx_bytes: dict[int, float] = {}
    for rank, _, nbytes, _, _, _ in zip(*trace.recvs.columns):
        rx_bytes[rank] = rx_bytes.get(rank, 0.0) + nbytes

    points = []
    for rank, node_id in enumerate(run.rank_to_node):
        profiler = profilers.get(node_id)
        siblings = node_ranks[node_id]
        gpu_seconds = {
            r: trace.compute_seconds(r, states=("gpu",)) for r in siblings
        }
        total_gpu = sum(gpu_seconds.values())
        if total_gpu > 0:
            share = gpu_seconds[rank] / total_gpu
        else:
            share = 1.0 / len(siblings)
        if profiler is not None:
            flops = share * profiler.total_flops
            dram = share * (profiler.total_dram_bytes + profiler.copy_bytes)
            l2 = share * profiler.total_l2_bytes
        else:
            flops = dram = l2 = 0.0
        point = RankPoint(
            flops=flops,
            dram_bytes=dram,
            l2_bytes=l2,
            network_bytes=trace.bytes_sent(rank) + rx_bytes.get(rank, 0.0),
            elapsed_seconds=elapsed,
            rank=rank,
            node=node_id,
            utilization=min(1.0, trace.compute_seconds(rank) / elapsed),
        )
        if flops > 0:
            binding = place(point, run.cluster, precision=precision).binding_level
            point = replace(point, binding=binding)
        points.append(point)
    return RidgelinePlacement(name=name, points=tuple(points), job=job)


# ---------------------------------------------------------------------------
# Rendering: text, JSON-safe dict, Markdown, SVG
# ---------------------------------------------------------------------------


def _fmt_intensity(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.3f}"


def _json_intensity(value: float) -> float | None:
    return None if math.isinf(value) else value


def format_ridgeline(placement: RidgelinePlacement) -> str:
    """Fixed-width per-rank table for the terminal."""
    lines = [
        f"ridgeline: {placement.name} on {placement.hier.name} "
        f"(job binding: {placement.binding_level})",
        f"{'rank':>4} {'node':>4} {'OI(F/B)':>10} {'OI_l2':>10} "
        f"{'NI(F/B)':>12} {'util':>6} {'GFLOPS':>9} binding",
    ]
    for p in placement.points:
        gflops = to_gflops(p.flops / p.elapsed_seconds)
        lines.append(
            f"{p.rank:>4} {p.node:>4} "
            f"{_fmt_intensity(p.operational_intensity):>10} "
            f"{_fmt_intensity(p.l2_intensity):>10} "
            f"{_fmt_intensity(p.network_intensity):>12} "
            f"{100.0 * p.utilization:>5.1f}% {gflops:>9.3f} {p.binding}"
        )
    lines.append(
        f"NI spread (max/min): {_fmt_intensity(placement.spread())}"
    )
    return "\n".join(lines) + "\n"


def ridgeline_to_dict(placement: RidgelinePlacement) -> dict:
    """JSON-safe form (infinite intensities become ``null``)."""
    job = placement.job
    return {
        "name": placement.name,
        "model": {
            "name": placement.hier.name,
            "peak_gflops": to_gflops(placement.hier.peak_flops),
            "levels": [
                {"name": lvl.name, "bandwidth": lvl.bandwidth}
                for lvl in placement.hier.levels
            ],
            "network_bandwidth": placement.hier.network_bandwidth,
        },
        "binding_level": placement.binding_level,
        "level_intensities": job.level_intensities,
        "network_intensity": job.network_intensity,
        "ni_spread": _json_intensity(placement.spread()),
        "ranks": [
            {
                "rank": p.rank,
                "node": p.node,
                "operational_intensity": _json_intensity(
                    p.operational_intensity
                ),
                "l2_intensity": _json_intensity(p.l2_intensity),
                "network_intensity": _json_intensity(p.network_intensity),
                "utilization": p.utilization,
                "binding": p.binding,
            }
            for p in placement.points
        ],
    }


def format_ridgeline_markdown(placement: RidgelinePlacement) -> list[str]:
    """Markdown lines for embedding into the insight report."""
    lines = [
        f"Per-rank 2D placement (job binding: **{placement.binding_level}**; "
        f"NI spread x{_fmt_intensity(placement.spread())}).",
        "",
        "| rank | node | OI (F/B) | OI_l2 (F/B) | NI (F/B) | util | binding |",
        "|---|---|---|---|---|---|---|",
    ]
    for p in placement.points:
        lines.append(
            f"| {p.rank} | {p.node} "
            f"| {_fmt_intensity(p.operational_intensity)} "
            f"| {_fmt_intensity(p.l2_intensity)} "
            f"| {_fmt_intensity(p.network_intensity)} "
            f"| {100.0 * p.utilization:.1f} % | {p.binding} |"
        )
    return lines


def _utilization_color(utilization: float) -> str:
    """Cold blue (idle) -> warm red (busy), linearly in RGB."""
    t = min(1.0, max(0.0, utilization))
    low = (69, 117, 180)  # #4575b4
    high = (215, 48, 39)  # #d73027
    rgb = tuple(round(low[i] + t * (high[i] - low[i])) for i in range(3))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _decade_bounds(values: list[float]) -> tuple[int, int]:
    positive = [v for v in values if v > 0 and not math.isinf(v)]
    if not positive:
        return (0, 1)
    low = math.floor(math.log10(min(positive)))
    high = math.ceil(math.log10(max(positive)))
    if high <= low:
        high = low + 1
    return (low, high)


def render_ridgeline_svg(
    placement: RidgelinePlacement, width: int = 640, height: int = 480
) -> str:
    """A deterministic SVG of the 2D plane (no external plotting deps).

    X is DRAM-level operational intensity, Y network intensity, both
    log-scaled; dashed verticals mark each memory level's ridge point and
    the dashed horizontal the network ridge; rank points are colored by
    utilization.  Ranks with infinite NI (no wire traffic) are clipped to
    the top edge and drawn hollow.
    """
    margin = 56
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    hier = placement.hier

    xs = [p.operational_intensity for p in placement.points]
    xs += [hier.ridge_point(name) for name in hier.level_names]
    ys = [p.network_intensity for p in placement.points]
    ys.append(hier.network_ridge())
    x_lo, x_hi = _decade_bounds(xs)
    y_lo, y_hi = _decade_bounds(ys)

    def x_px(value: float) -> float:
        t = (math.log10(value) - x_lo) / (x_hi - x_lo)
        return margin + min(1.0, max(0.0, t)) * plot_w

    def y_px(value: float) -> float:
        if math.isinf(value):
            return float(margin)
        t = (math.log10(value) - y_lo) / (y_hi - y_lo)
        return height - margin - min(1.0, max(0.0, t)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">'
        f"ridgeline: {placement.name} ({hier.name}) — binding: "
        f"{placement.binding_level}</text>",
    ]
    # Axes frame and decade gridlines.
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for decade in range(x_lo, x_hi + 1):
        px = x_px(10.0 ** decade)
        parts.append(
            f'<line x1="{px:.1f}" y1="{margin}" x2="{px:.1f}" '
            f'y2="{height - margin}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">'
            f"1e{decade}</text>"
        )
    for decade in range(y_lo, y_hi + 1):
        py = y_px(10.0 ** decade)
        parts.append(
            f'<line x1="{margin}" y1="{py:.1f}" x2="{width - margin}" '
            f'y2="{py:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">1e{decade}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">'
        "operational intensity (FLOP/DRAM byte)</text>"
    )
    parts.append(
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="11" '
        f'transform="rotate(-90 14 {height / 2:.1f})">'
        "network intensity (FLOP/wire byte)</text>"
    )
    # Ridge lines: where each bandwidth roof reaches peak compute.
    for name in hier.level_names:
        px = x_px(hier.ridge_point(name))
        parts.append(
            f'<line x1="{px:.1f}" y1="{margin}" x2="{px:.1f}" '
            f'y2="{height - margin}" stroke="#888888" stroke-width="1" '
            f'stroke-dasharray="5,3"/>'
        )
        parts.append(
            f'<text x="{px + 3:.1f}" y="{margin + 12}" '
            f'font-family="monospace" font-size="10" fill="#555555">'
            f"{name} ridge</text>"
        )
    net_py = y_px(hier.network_ridge())
    parts.append(
        f'<line x1="{margin}" y1="{net_py:.1f}" x2="{width - margin}" '
        f'y2="{net_py:.1f}" stroke="#888888" stroke-width="1" '
        f'stroke-dasharray="5,3"/>'
    )
    parts.append(
        f'<text x="{width - margin - 3}" y="{net_py - 4:.1f}" '
        f'text-anchor="end" font-family="monospace" font-size="10" '
        f'fill="#555555">network ridge</text>'
    )
    # One point per rank, colored by utilization.
    for p in placement.points:
        if p.flops <= 0:
            continue
        px = x_px(p.operational_intensity)
        py = y_px(p.network_intensity)
        color = _utilization_color(p.utilization)
        if math.isinf(p.network_intensity):
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="none" '
                f'stroke="{color}" stroke-width="2">'
                f"<title>rank {p.rank}: NI=inf, util="
                f"{100.0 * p.utilization:.1f}%</title></circle>"
            )
        else:
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="{color}" '
                f'stroke="#333333" stroke-width="0.5">'
                f"<title>rank {p.rank}: OI="
                f"{p.operational_intensity:.3f}, NI="
                f"{p.network_intensity:.3f}, util="
                f"{100.0 * p.utilization:.1f}%</title></circle>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Ceiling-migration sweep (the Roofline 2.0 demo)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MigrationRow:
    """One batch size's hierarchical placement in a sweep."""

    batch_size: int
    placement: Placement

    @property
    def binding_level(self) -> str:
        """The binding ceiling at this batch size."""
        return self.placement.binding_level


def ceiling_migration_sweep(
    network: str = "alexnet",
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    nodes: int = 4,
    link: str = "10G",
    system: str = "tx1",
    use_cache: bool = True,
) -> list[MigrationRow]:
    """Sweep a CNN preset over batch size and place each run hierarchically.

    With caching on (the default), repeated sweeps warm-start from the
    campaign store; batching amortizes the weights' DRAM traffic but not
    their L2 traffic, so the binding ceiling migrates from DRAM toward L2
    as the batch grows (AlexNet's 244 MB of weights make the crossover
    land around batch 4 on the TX1).
    """
    from repro.bench.runner import run_workload

    rows = []
    for batch in batch_sizes:
        run = run_workload(
            network,
            nodes=nodes,
            network=link,
            system=system,
            use_cache=use_cache,
            batch_size=batch,
        )
        placement = place(
            RunTotals.of(run.result), run.cluster,
            precision=run.workload.precision, name=f"{network}-b{batch}",
        )
        rows.append(MigrationRow(batch_size=batch, placement=placement))
    return rows


def format_migration_sweep(network: str, rows: list[MigrationRow]) -> str:
    """Markdown table of a migration sweep (deterministic)."""
    lines = [
        f"### Ceiling migration: `{network}` over batch size",
        "",
        "| batch | OI_l2 (F/B) | OI_dram (F/B) | NI (F/B) | "
        "attainable (GFLOPS/node) | binding |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        p = row.placement
        intensities = p.level_intensities
        lines.append(
            f"| {row.batch_size} "
            f"| {intensities[L2_LEVEL]:.3f} "
            f"| {intensities[DRAM_LEVEL]:.3f} "
            f"| {p.network_intensity:.1f} "
            f"| {to_gflops(p.attainable_flops):.2f} "
            f"| **{row.binding_level}** |"
        )
    migrations = sum(
        1
        for prev, cur in zip(rows, rows[1:])
        if prev.binding_level != cur.binding_level
    )
    lines.append("")
    lines.append(
        f"The binding ceiling changes {migrations} time(s) across the sweep."
    )
    return "\n".join(lines) + "\n"

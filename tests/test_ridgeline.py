"""Roofline 2.0: hierarchical ceilings, 2D ridgeline, ceiling migration."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.bench.runner import run_workload
from repro.campaign.runner import (
    build_campaign,
    format_campaign_stats,
    format_campaign_table,
    run_campaign,
)
from repro.campaign.serialize import run_from_payload, run_to_payload
from repro.campaign.spec import RunSpec
from repro.cli import main
from repro.bench.experiments import roofline_points
from repro.campaign.store import ResultStore
from repro.core import (
    DRAM_LEVEL,
    L2_LEVEL,
    NETWORK_LEVEL,
    HierarchicalRoofline,
    LevelCeiling,
    RunTotals,
    hierarchical_roofline_for_cluster,
    levels_from_cache_hierarchy,
    place,
    roofline_for_cluster,
)
from repro.cluster.job import JobResult
from repro.cluster.metering import EnergyReport
from repro.cuda.events import KernelRecord, Profiler
from repro.errors import AnalysisError, ConfigurationError, CudaError
from repro.hardware.catalog import TX1_CACHES, TX1_GPU, ghz
from repro.hardware.gpu import GPUModel
from repro.insight import (
    build_report,
    ceiling_migration_sweep,
    completion_totals,
    format_migration_sweep,
    format_ridgeline,
    format_ridgeline_markdown,
    render_ridgeline_svg,
    ridgeline_from_run,
    ridgeline_to_dict,
)
from repro.telemetry import to_prometheus_text
from repro.workloads import GPGPU_NAMES

# ---------------------------------------------------------------------------
# HierarchicalRoofline: construction and per-level algebra
# ---------------------------------------------------------------------------


def _toy_hier(peak=100.0, l2_bw=40.0, dram_bw=10.0, net_bw=1.0):
    return HierarchicalRoofline(
        name="toy",
        peak_flops=peak,
        levels=(
            LevelCeiling(name=L2_LEVEL, bandwidth=l2_bw),
            LevelCeiling(name=DRAM_LEVEL, bandwidth=dram_bw),
        ),
        network_bandwidth=net_bw,
    )


def test_level_ceiling_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        LevelCeiling(name="", bandwidth=1.0)
    with pytest.raises(ConfigurationError):
        LevelCeiling(name="l2", bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        LevelCeiling(name="dram", bandwidth=math.nan)
    with pytest.raises(ConfigurationError):
        _toy_hier(net_bw=math.nan)
    with pytest.raises(ConfigurationError):
        _toy_hier(peak=math.nan)


def test_hierarchy_requires_a_dram_level():
    with pytest.raises(ConfigurationError):
        HierarchicalRoofline(
            name="x", peak_flops=1.0,
            levels=(LevelCeiling(name="l2", bandwidth=1.0),),
            network_bandwidth=1.0,
        )


def test_hierarchy_rejects_reserved_and_duplicate_names():
    with pytest.raises(ConfigurationError):
        HierarchicalRoofline(
            name="x", peak_flops=1.0,
            levels=(
                LevelCeiling(name=NETWORK_LEVEL, bandwidth=1.0),
                LevelCeiling(name=DRAM_LEVEL, bandwidth=1.0),
            ),
            network_bandwidth=1.0,
        )
    with pytest.raises(ConfigurationError):
        HierarchicalRoofline(
            name="x", peak_flops=1.0,
            levels=(
                LevelCeiling(name=DRAM_LEVEL, bandwidth=1.0),
                LevelCeiling(name=DRAM_LEVEL, bandwidth=2.0),
            ),
            network_bandwidth=1.0,
        )


def test_attainable_is_min_over_all_roofs():
    hier = _toy_hier()
    # L2 roof 40*1=40, DRAM roof 10*2=20, network 1*1000=1000, peak 100.
    bound = hier.attainable({L2_LEVEL: 1.0, DRAM_LEVEL: 2.0}, 1000.0)
    assert bound == 20.0
    # Raise DRAM OI until the L2 roof binds instead.
    bound = hier.attainable({L2_LEVEL: 1.0, DRAM_LEVEL: 100.0}, 1000.0)
    assert bound == 40.0


def test_attainable_missing_level_is_an_analysis_error():
    hier = _toy_hier()
    with pytest.raises(AnalysisError):
        hier.attainable({DRAM_LEVEL: 1.0}, 1.0)


def test_attainable_rejects_nonpositive_intensities():
    hier = _toy_hier()
    with pytest.raises(ConfigurationError):
        hier.attainable({L2_LEVEL: 0.0, DRAM_LEVEL: 1.0}, 1.0)
    with pytest.raises(ConfigurationError):
        hier.attainable({L2_LEVEL: 1.0, DRAM_LEVEL: 1.0}, 0.0)
    # NaN is not an intensity: it must not drop out of the min.
    nan_level = {L2_LEVEL: math.nan, DRAM_LEVEL: 2.0}
    with pytest.raises(ConfigurationError):
        hier.attainable(nan_level, 1000.0)
    with pytest.raises(ConfigurationError):
        hier.binding_level(nan_level, 1000.0)
    with pytest.raises(ConfigurationError):
        hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 1.0}, math.nan)


def test_binding_level_picks_lowest_bandwidth_roof():
    hier = _toy_hier()
    assert hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 2.0}, 1000.0) == DRAM_LEVEL
    assert hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 100.0}, 1000.0) == L2_LEVEL
    assert hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 100.0}, 5.0) == NETWORK_LEVEL
    # A silent axis (infinite intensity) never binds.
    assert hier.binding_level({L2_LEVEL: math.inf, DRAM_LEVEL: 2.0}, math.inf) == DRAM_LEVEL
    with pytest.raises(AnalysisError, match="silent"):
        hier.binding_level({L2_LEVEL: math.inf, DRAM_LEVEL: math.inf}, math.inf)


def test_binding_ties_resolve_toward_compute_and_network_loses():
    hier = _toy_hier(l2_bw=40.0, dram_bw=10.0, net_bw=1.0)
    # L2 roof = 40*1 = 40, DRAM roof = 10*4 = 40: nearest level wins.
    assert hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 4.0}, 1000.0) == L2_LEVEL
    # Network roof exactly ties the binding level: the level still wins.
    assert hier.binding_level({L2_LEVEL: 1.0, DRAM_LEVEL: 4.0}, 40.0) == L2_LEVEL


def test_ridge_points():
    hier = _toy_hier()
    assert hier.ridge_point(L2_LEVEL) == 100.0 / 40.0
    assert hier.ridge_point(DRAM_LEVEL) == 10.0
    assert hier.network_ridge() == 100.0


def test_flat_projection_matches_the_extended_model():
    run = run_workload("cloverleaf", nodes=4)
    hier = hierarchical_roofline_for_cluster(run.cluster, precision="double")
    assert hier.flat() == roofline_for_cluster(run.cluster)
    assert hier.level(DRAM_LEVEL).bandwidth == TX1_GPU.memory_bandwidth


def test_levels_from_cache_hierarchy_closes_with_dram():
    frequency = ghz(1.73)
    levels = levels_from_cache_hierarchy(TX1_CACHES, frequency, 25.6e9)
    names = [lvl.name for lvl in levels]
    assert names[-1] == DRAM_LEVEL
    assert all(name == name.lower() for name in names)
    first = TX1_CACHES.levels()[0]
    expected = (
        first.shared_by * frequency * first.line_bytes / first.latency_cycles
    )
    assert levels[0].bandwidth == expected


# ---------------------------------------------------------------------------
# GPU model: the L2 roof and per-kernel L2 traffic
# ---------------------------------------------------------------------------


def test_gpu_l2_bandwidth_is_sector_rate_times_sms():
    expected = TX1_GPU.sm_count * TX1_GPU.frequency_hz * 32.0
    assert TX1_GPU.l2_bandwidth == expected
    # The L2 roof sits well above the TX1's 20 GB/s DRAM share.
    assert TX1_GPU.l2_bandwidth > TX1_GPU.memory_bandwidth


def test_kernel_cost_honors_declared_l2_bytes():
    model = GPUModel(TX1_GPU)
    cost = model.kernel_cost(1e9, 1e8, l2_bytes=5e8)
    assert cost.l2_bytes == 5e8


def test_kernel_cost_falls_back_to_miss_ratio_estimate():
    model = GPUModel(TX1_GPU)
    cost = model.kernel_cost(1e9, 1e8)
    # L2 requests >= the DRAM traffic that missed through it.
    assert cost.l2_bytes >= 1e8
    assert cost.l2_bytes == model.l2_request_bytes(1e8)


def test_kernel_cost_bypass_has_no_l2_traffic():
    model = GPUModel(TX1_GPU)
    cost = model.kernel_cost(1e9, 1e8, bypass_cache=True)
    assert cost.l2_bytes == 0.0


def test_kernel_spec_rejects_negative_l2_bytes():
    from repro.cuda.runtime import KernelSpec

    with pytest.raises(CudaError):
        KernelSpec(name="k", flops=1.0, dram_bytes=1.0, l2_bytes=-1.0)


# ---------------------------------------------------------------------------
# Run totals: the record's guards and silent axes
# ---------------------------------------------------------------------------


def _record(flops=1.0, dram_bytes=1.0, network_bytes=1.0, elapsed=1.0):
    """A hand-built run record: one kernel on one node, no copies, and the
    wire bytes and runtime :func:`completion_totals` reads."""
    kernel = KernelRecord(
        name="k", start=0.0, end=elapsed, flops=flops, dram_bytes=dram_bytes,
        l2_utilization=0.0, l2_read_throughput=0.0, memory_stall_fraction=0.0,
        l2_bytes=1.0,
    )
    return JobResult(
        elapsed_seconds=elapsed,
        energy=EnergyReport(elapsed, 0.0, 0.0, 0.0),
        rank_values=[None],
        counters=[],
        comm_seconds=[0.0],
        network_bytes=network_bytes,
        gpu_dram_bytes=dram_bytes,
        gpu_flops=flops,
        cpu_flops=0.0,
        gpu_profilers=[Profiler(kernels=[kernel] if flops else [])],
    )


def test_operational_intensity_guard_names_the_record_fields():
    assert completion_totals(_record()).operational_intensity == 1.0
    with pytest.raises(AnalysisError, match="kernel dram_bytes and copy nbytes"):
        completion_totals(_record(dram_bytes=0.0))


def test_network_intensity_guard_names_the_record_field():
    with pytest.raises(AnalysisError, match="JobResult.network_bytes"):
        completion_totals(_record(network_bytes=0.0))


def test_kernel_and_runtime_guards_name_the_record_fields():
    with pytest.raises(AnalysisError, match="JobResult.gpu_profilers"):
        completion_totals(_record(flops=0.0))
    with pytest.raises(AnalysisError, match="JobResult.elapsed_seconds"):
        completion_totals(_record(elapsed=0.0))


def test_silent_axes_read_as_infinite_intensity():
    totals = RunTotals(
        flops=1.0, dram_bytes=1.0, l2_bytes=0.0, network_bytes=0.0,
        elapsed_seconds=1.0,
    )
    assert totals.l2_intensity == math.inf
    assert totals.network_intensity == math.inf
    run = run_workload("cloverleaf", nodes=2)
    placement = place(totals, run.cluster, precision="double")
    assert placement.binding_level == DRAM_LEVEL
    assert placement.point.limit.value == "operational"


# ---------------------------------------------------------------------------
# One placement: every view places the run the same way (acceptance)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", GPGPU_NAMES)
def test_dram_point_agrees_exactly_with_flat_placement(workload):
    run = run_workload(workload, nodes=4, traced=True)
    precision = run.workload.precision
    in_order = place(
        completion_totals(run.result), run.cluster,
        precision=precision, name=workload,
    )
    per_node = place(
        RunTotals.of(run.result), run.cluster, precision=precision, name=workload,
    )
    # Both views share one set of roofs.
    assert in_order.point.model == in_order.hier.flat()
    assert in_order.binding_level == per_node.binding_level
    # The two folds agree up to float association.
    for field in ("flops", "dram_bytes", "l2_bytes", "elapsed_seconds"):
        assert getattr(per_node.totals, field) == pytest.approx(
            getattr(in_order.totals, field), rel=1e-12
        )
    assert per_node.totals.network_bytes == in_order.totals.network_bytes


@pytest.fixture(scope="module")
def gpgpu_campaign(tmp_path_factory):
    specs = build_campaign(list(GPGPU_NAMES), nodes=(4,), networks=("10G",))
    store = ResultStore(tmp_path_factory.mktemp("store"))
    cold = run_campaign(specs, store=store)
    warm = run_campaign(specs, store=store)
    assert warm.cache_hits == len(GPGPU_NAMES)
    return cold, warm


@pytest.fixture(scope="module")
def fig4_points():
    return {point.name: point for point in roofline_points(nodes=4)["10G"]}


@pytest.mark.parametrize("workload", GPGPU_NAMES)
def test_every_view_places_the_run_the_same(workload, fig4_points, gpgpu_campaign):
    run = run_workload(workload, nodes=4, network="10G")
    placement = place(
        RunTotals.of(run.result), run.cluster,
        precision=run.workload.precision, name=workload,
    )
    assert fig4_points[workload] == placement.point
    assert 0.0 < placement.percent_of_roof <= 100.0
    cold, warm = gpgpu_campaign
    rows = [
        next(row for row in result.rows if row.workload == workload)
        for result in (cold, warm)
    ]
    assert [row.cached for row in rows] == [False, True]
    traced = run_workload(workload, nodes=4, network="10G", traced=True)
    bindings = {
        "run": placement.binding_level,
        "campaign (cold)": rows[0].binding_level,
        "campaign (warm)": rows[1].binding_level,
        "ridgeline job": ridgeline_from_run(traced, name=workload).binding_level,
    }
    assert set(bindings.values()) == {placement.binding_level}, bindings


def test_hier_placement_needs_a_gpu_cluster():
    run = run_workload("ep", nodes=2, system="thunderx")
    with pytest.raises(AnalysisError):
        hierarchical_roofline_for_cluster(run.cluster, precision="double")


# ---------------------------------------------------------------------------
# Ceiling migration over batch size (the Roofline 2.0 demo)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def alexnet_sweep():
    return ceiling_migration_sweep("alexnet", batch_sizes=(1, 2, 4, 32))


def test_alexnet_binding_migrates_from_dram_to_l2(alexnet_sweep):
    bindings = [row.binding_level for row in alexnet_sweep]
    assert bindings[0] == DRAM_LEVEL
    assert bindings[-1] == L2_LEVEL
    # Monotone migration: once the L2 roof takes over it keeps binding.
    first_l2 = bindings.index(L2_LEVEL)
    assert all(b == L2_LEVEL for b in bindings[first_l2:])


def test_alexnet_l2_intensity_is_batch_invariant(alexnet_sweep):
    l2 = [row.placement.level_intensities[L2_LEVEL] for row in alexnet_sweep]
    assert max(l2) - min(l2) < 1e-9
    dram = [
        row.placement.level_intensities[DRAM_LEVEL] for row in alexnet_sweep
    ]
    # Batching amortizes the weights' DRAM traffic: OI_dram strictly rises.
    assert all(b > a for a, b in zip(dram, dram[1:]))


def test_googlenet_stays_dram_bound():
    rows = ceiling_migration_sweep("googlenet", batch_sizes=(1, 32))
    assert [row.binding_level for row in rows] == [DRAM_LEVEL, DRAM_LEVEL]


def test_migration_sweep_formatting(alexnet_sweep):
    text = format_migration_sweep("alexnet", alexnet_sweep)
    assert "| **dram** |" in text
    assert "| **l2** |" in text
    assert "changes 1 time(s)" in text


def test_committed_sweep_report_shows_the_migration():
    report = Path(__file__).resolve().parent.parent / "docs/ROOFLINE2_SWEEP.md"
    text = report.read_text(encoding="utf-8")
    assert "| **dram** |" in text
    assert "| **l2** |" in text
    assert "The binding ceiling changes 1 time(s)" in text


def test_network_binds_the_communication_heavy_solver_on_1g():
    def binding(network):
        run = run_workload("hpl", nodes=4, network=network)
        return place(
            RunTotals.of(run.result), run.cluster,
            precision=run.workload.precision,
        ).binding_level

    assert binding("1G") == NETWORK_LEVEL
    assert binding("10G") != NETWORK_LEVEL


# ---------------------------------------------------------------------------
# Ridgeline: per-rank 2D placement
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clover_ridge():
    run = run_workload("cloverleaf", nodes=4, traced=True, use_cache=False)
    return run, ridgeline_from_run(run, name="cloverleaf")


def test_ridgeline_needs_a_trace():
    run = run_workload("cloverleaf", nodes=2)
    with pytest.raises(AnalysisError, match="traced"):
        ridgeline_from_run(run)


def test_ridgeline_has_one_point_per_rank(clover_ridge):
    run, placement = clover_ridge
    assert len(placement.points) == len(run.rank_to_node)
    assert [p.rank for p in placement.points] == list(
        range(len(placement.points))
    )


def test_ridgeline_conserves_flops_and_bytes(clover_ridge):
    run, placement = clover_ridge
    assert sum(p.flops for p in placement.points) == pytest.approx(
        run.result.gpu_flops
    )
    assert sum(p.dram_bytes for p in placement.points) == pytest.approx(
        run.result.gpu_dram_bytes
    )


def test_ridgeline_utilization_is_a_fraction(clover_ridge):
    _, placement = clover_ridge
    assert all(0.0 <= p.utilization <= 1.0 for p in placement.points)


def test_ridgeline_text_and_markdown_render(clover_ridge):
    _, placement = clover_ridge
    text = format_ridgeline(placement)
    assert "job binding:" in text
    assert "NI spread" in text
    markdown = "\n".join(format_ridgeline_markdown(placement))
    assert "| rank | node |" in markdown


def test_ridgeline_json_is_serializable(clover_ridge):
    _, placement = clover_ridge
    document = ridgeline_to_dict(placement)
    encoded = json.dumps(document)
    assert "Infinity" not in encoded
    assert document["binding_level"] == placement.binding_level
    assert len(document["ranks"]) == len(placement.points)


def test_ridgeline_svg_is_deterministic(clover_ridge):
    _, placement = clover_ridge
    svg = render_ridgeline_svg(placement)
    assert svg == render_ridgeline_svg(placement)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") >= len(
        [p for p in placement.points if p.flops > 0]
    )


def test_ridgeline_infinite_ni_ranks_are_hollow():
    # AlexNet's data-parallel ranks never touch MPI: NI is inf per rank.
    run = run_workload("alexnet", nodes=2, traced=True, use_cache=False)
    placement = ridgeline_from_run(run, name="alexnet")
    assert any(math.isinf(p.network_intensity) for p in placement.points)
    svg = render_ridgeline_svg(placement)
    assert 'fill="none"' in svg
    document = ridgeline_to_dict(placement)
    assert any(r["network_intensity"] is None for r in document["ranks"])


def test_ridgeline_identical_from_a_warm_store_revival(clover_ridge):
    run, placement = clover_ridge
    spec = RunSpec.normalize("cloverleaf", nodes=4)
    revived = run_from_payload(spec, run_to_payload(run))
    again = ridgeline_from_run(revived, name="cloverleaf")
    assert format_ridgeline(again) == format_ridgeline(placement)
    assert render_ridgeline_svg(again) == render_ridgeline_svg(placement)
    assert json.dumps(ridgeline_to_dict(again)) == json.dumps(
        ridgeline_to_dict(placement)
    )


# ---------------------------------------------------------------------------
# Reports, CLI, and exported gauges
# ---------------------------------------------------------------------------


def test_report_hier_mode_names_the_binding_level():
    report = build_report("cloverleaf", roofline="hier")
    assert report.roofline == "hier" and report.placement is not None
    assert report.ridgeline is None
    from repro.insight import render_markdown, render_text, to_dict

    assert "binding level:" in render_text(report)
    assert "Roofline 2.0 (hierarchical)" in render_markdown(report)
    document = to_dict(report)
    assert document["roofline_hier"]["binding_level"] in (
        L2_LEVEL, DRAM_LEVEL, NETWORK_LEVEL,
    )


def test_report_2d_mode_adds_the_ridgeline():
    report = build_report("cloverleaf", roofline="2d")
    assert report.ridgeline is not None
    from repro.insight import render_markdown

    assert "Ridgeline (per-rank 2D placement)" in render_markdown(report)


def test_report_rejects_unknown_roofline_mode():
    with pytest.raises(ConfigurationError):
        build_report("cloverleaf", roofline="3d")


@pytest.mark.xfail(strict=True, reason=(
    "known bug: a report places the run twice, from the telemetry sink "
    "and from the JobResult, and the two sums differ in the last bits"))
def test_hpl_report_places_the_run_once():
    report = build_report("hpl", nodes=2, roofline="2d")
    assert (report.placement.point.operational_intensity
            == report.ridgeline.job.point.operational_intensity)


def test_cli_report_writes_the_figure(tmp_path):
    figure = tmp_path / "ridge.svg"
    out = tmp_path / "report.md"
    assert main([
        "report", "cloverleaf", "--roofline", "2d",
        "--format", "md", "--out", str(out), "--figure-out", str(figure),
    ]) == 0
    assert "</svg>" in figure.read_text(encoding="utf-8")
    assert "Roofline 2.0" in out.read_text(encoding="utf-8")


def test_cli_figure_out_requires_2d_mode(tmp_path):
    figure = tmp_path / "ridge.svg"
    assert main([
        "report", "cloverleaf", "--figure-out", str(figure),
    ]) == 2
    assert not figure.exists()


def test_placement_gauges_reach_the_prometheus_export():
    # The campaign registry is where placements become gauges: one
    # binding flag and one intensity per roof, as the placement reads them.
    result = run_campaign(build_campaign(["cloverleaf"], nodes=(4,)), store=None)
    placement = result.rows[0].placement
    text = to_prometheus_text(result.registry)
    run_label = 'run="cloverleaf/tx1x4/10G"'
    intensities = {
        **placement.level_intensities, NETWORK_LEVEL: placement.network_intensity,
    }
    for level, intensity in intensities.items():
        flag = 1 if level == placement.binding_level else 0
        assert f"campaign_roofline_binding{{{run_label},level=\"{level}\"}} {flag}" in text
        assert f"campaign_roofline_intensity{{{run_label},level=\"{level}\"}} {intensity!r}" in text


# ---------------------------------------------------------------------------
# Campaign surface: summary extras, stat lines, registry gauges
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_campaign():
    specs = build_campaign(["alexnet", "hpl"], nodes=(4,), networks=("1G",))
    return run_campaign(specs, store=None)


def test_campaign_rows_carry_the_binding_level(mini_campaign):
    by_name = {row.workload: row for row in mini_campaign.rows}
    assert by_name["alexnet"].binding_level == L2_LEVEL
    assert by_name["hpl"].binding_level == NETWORK_LEVEL
    assert by_name["hpl"].gpu_l2_bytes > 0


def test_campaign_row_binding_matches_the_insight_placement(mini_campaign):
    run = run_workload("hpl", nodes=4, network="1G")
    placement = place(
        RunTotals.of(run.result), run.cluster, precision=run.workload.precision
    )
    by_name = {row.workload: row for row in mini_campaign.rows}
    assert by_name["hpl"].binding_level == placement.binding_level


def test_campaign_stats_print_one_roofline_line_per_gpu_run(mini_campaign):
    stats = format_campaign_stats(mini_campaign)
    lines = [l for l in stats.splitlines() if l.startswith("roofline:")]
    assert len(lines) == 2
    assert any("binds l2" in l for l in lines)
    assert any("binds network" in l for l in lines)


def test_campaign_registry_exports_roofline_gauges(mini_campaign):
    text = to_prometheus_text(mini_campaign.registry)
    assert 'campaign_roofline_binding{run="alexnet/tx1x4/1G",level="l2"} 1' in text
    assert "campaign_roofline_intensity" in text


def test_campaign_binding_identical_serial_parallel_and_warm(tmp_path):
    from repro.campaign.store import ResultStore

    specs = build_campaign(["cloverleaf"], nodes=(2,), networks=("10G",))
    store = ResultStore(tmp_path / "store")
    cold = run_campaign(specs, store=store)
    warm = run_campaign(specs, store=store)
    parallel = run_campaign(specs, jobs=2, store=None)
    assert warm.cache_hits == 1
    tables = {
        format_campaign_table(r) for r in (cold, warm, parallel)
    }
    assert len(tables) == 1
    bindings = {
        tuple(row.binding_level for row in r.rows)
        for r in (cold, warm, parallel)
    }
    assert len(bindings) == 1
    roofline_lines = {
        tuple(
            l for l in format_campaign_stats(r).splitlines()
            if l.startswith("roofline:")
        )
        for r in (cold, warm, parallel)
    }
    assert len(roofline_lines) == 1


def test_cpu_only_campaign_rows_stay_unplaced():
    specs = build_campaign(["ep"], nodes=(2,), system="thunderx")
    result = run_campaign(specs, store=None)
    assert result.rows[0].binding_level is None
    assert "roofline:" not in format_campaign_stats(result)

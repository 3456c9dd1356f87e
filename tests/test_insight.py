"""repro.insight: critical path, roofline placement, cross-check, baseline."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import cache_stats, run_workload
from repro.cli import main
from repro.core import measure_roofline_point
from repro.errors import AnalysisError, ConfigurationError
from repro.insight import (
    BASELINE_WORKLOADS,
    SEGMENT_KINDS,
    CriticalPath,
    OpStreams,
    RankOp,
    build_report,
    collect_baseline,
    compare_baseline,
    critical_path,
    critical_path_of_streams,
    cross_check,
    decompose,
    decompose_streams,
    extract_ops,
    format_drift_report,
    intensities_from_telemetry,
    load_baseline,
    match_messages,
    place_run,
    render_json,
    render_markdown,
    render_text,
    to_dict,
    write_baseline,
)
from repro.telemetry import Telemetry
from repro.tracing import CommRecord, RecvRecord, Trace


# ---------------------------------------------------------------------------
# Shared instrumented runs (one per workload, reused across the module)
# ---------------------------------------------------------------------------


def _instrumented_run(name: str, nodes: int = 4):
    telemetry = Telemetry(sample_interval=0.0)
    run = run_workload(name, nodes=nodes, traced=True, use_cache=False,
                       telemetry=telemetry)
    return run, telemetry


@pytest.fixture(scope="module")
def clover():
    return _instrumented_run("cloverleaf")


@pytest.fixture(scope="module")
def cg():
    return _instrumented_run("cg")


# ---------------------------------------------------------------------------
# Op extraction
# ---------------------------------------------------------------------------


def test_extract_ops_empty_trace_raises():
    with pytest.raises(AnalysisError):
        extract_ops(Trace(n_ranks=2))


def test_extract_ops_covers_all_ranks(clover):
    run, _ = clover
    streams = extract_ops(run.trace)
    assert streams.n_ranks == 4
    for rank in range(4):
        assert streams.rank_ops(rank)


def test_extract_ops_streams_are_time_ordered(clover):
    run, _ = clover
    streams = extract_ops(run.trace)
    for rank in range(streams.n_ranks):
        starts = [op.start for op in streams.rank_ops(rank)]
        assert starts == sorted(starts)


def test_extract_ops_classifies_kinds(clover):
    run, _ = clover
    kinds = {op.kind for op in extract_ops(run.trace).all_ops()}
    assert {"compute", "gpu", "copy", "send", "recv"} <= kinds


def test_extract_ops_sends_carry_peer_and_bytes(clover):
    run, _ = clover
    sends = [op for op in extract_ops(run.trace).all_ops() if op.kind == "send"]
    assert sends
    assert all(op.peer >= 0 and op.nbytes > 0 for op in sends)


def test_extract_ops_busy_matches_trace(clover):
    run, _ = clover
    streams = extract_ops(run.trace)
    trace_busy = run.trace.compute_seconds_all()
    for rank in range(streams.n_ranks):
        span_busy = sum(op.seconds for op in streams.rank_ops(rank)
                        if op.kind in ("compute", "gpu", "copy"))
        assert span_busy == pytest.approx(trace_busy[rank], rel=1e-9)


def _op(rank, kind, start, end, peer=-1, name=None):
    return RankOp(rank, kind, name or kind, start, end, peer=peer)


def _streams(*rank_op_lists):
    ops = {rank: sorted(op_list, key=lambda o: (o.start, o.end))
           for rank, op_list in enumerate(rank_op_lists)}
    t_end = max(op.end for op_list in ops.values() for op in op_list)
    return OpStreams(n_ranks=len(ops), ops=ops, t_start=0.0, t_end=t_end)


def test_match_messages_fifo_per_pair():
    streams = _streams(
        [_op(0, "send", 0.0, 1.0, peer=1), _op(0, "send", 2.0, 3.0, peer=1)],
        [_op(1, "recv", 0.5, 1.0, peer=0), _op(1, "recv", 2.5, 3.0, peer=0)],
    )
    matches = match_messages(streams)
    assert matches[(1, 0, 1.0)].start == 0.0
    assert matches[(1, 0, 3.0)].start == 2.0


def test_match_messages_unmatched_recv_absent():
    streams = _streams(
        [_op(0, "compute", 0.0, 1.0)],
        [_op(1, "recv", 0.0, 2.0, peer=0)],
    )
    assert match_messages(streams) == {}


@pytest.mark.xfail(strict=True, reason=(
    "known bug: zero-length receives are dropped before FIFO pairing, "
    "which shifts every later receive of the pair onto the wrong send"))
def test_match_messages_counts_instant_receives():
    # Rank 0 sends A then B to rank 1.  A has already landed when rank 1
    # posts its first receive, so that receive takes no time; the second
    # receive consumes B.
    trace = Trace(
        n_ranks=2,
        comms=[CommRecord(0, 1, 64.0, 0.0, 1.0, tag=0),
               CommRecord(0, 1, 64.0, 1.0, 2.0, tag=0)],
        recvs=[RecvRecord(1, 0, 64.0, 1.0, 1.0, tag=0),
               RecvRecord(1, 0, 64.0, 1.5, 2.0, tag=0)],
        t_end=2.0,
    )
    matches = match_messages(extract_ops(trace))
    assert matches[(1, 0, 2.0)].start == 1.0


# ---------------------------------------------------------------------------
# Critical path — synthetic streams
# ---------------------------------------------------------------------------


def test_path_single_rank_single_op():
    path = critical_path_of_streams(_streams([_op(0, "compute", 0.0, 5.0)]))
    assert len(path.segments) == 1
    assert path.segments[0].kind == "compute"
    assert path.duration == pytest.approx(5.0)


def test_path_fills_idle_gaps():
    path = critical_path_of_streams(_streams(
        [_op(0, "compute", 0.0, 1.0), _op(0, "compute", 3.0, 4.0)],
    ))
    assert [s.kind for s in path.segments] == ["compute", "idle", "compute"]
    assert path.breakdown["idle"] == pytest.approx(2.0)


def test_path_hops_message_edge_to_sender():
    # Rank 1 waits on rank 0's message, then computes; the path must cross.
    path = critical_path_of_streams(_streams(
        [_op(0, "compute", 0.0, 2.0), _op(0, "send", 2.0, 3.0, peer=1)],
        [_op(1, "recv", 0.0, 3.0, peer=0), _op(1, "compute", 3.0, 5.0)],
    ))
    kinds = [s.kind for s in path.segments]
    assert kinds == ["compute", "network", "compute"]
    assert path.rank_visits == (0, 1)
    assert path.duration == pytest.approx(5.0)


def test_path_unmatched_recv_becomes_wait():
    path = critical_path_of_streams(_streams(
        [_op(0, "compute", 0.0, 1.0)],
        [_op(1, "recv", 0.0, 4.0, peer=0), _op(1, "compute", 4.0, 5.0)],
    ))
    assert "wait" in {s.kind for s in path.segments}


def test_path_breakdown_sums_to_duration(clover):
    run, _ = clover
    path = critical_path(run.trace)
    assert sum(path.breakdown.values()) == pytest.approx(path.duration, rel=1e-9)


def test_path_segments_are_contiguous(clover):
    run, _ = clover
    path = critical_path(run.trace)
    for prev, cur in zip(path.segments, path.segments[1:]):
        assert cur.start == pytest.approx(prev.end, abs=1e-12)
        if cur.rank != prev.rank:
            # Ranks may only change across a message edge.
            assert cur.kind == "network" or prev.kind == "network"
    assert path.segments[0].start == pytest.approx(path.t_start)
    assert path.segments[-1].end == pytest.approx(path.t_end)


def test_path_is_deterministic(clover):
    run, _ = clover
    assert critical_path(run.trace) == critical_path(run.trace)
    run2, _ = _instrumented_run("cloverleaf")
    assert critical_path(run2.trace) == critical_path(run.trace)


def test_path_gpu_dominates_cloverleaf(clover):
    run, _ = clover
    assert critical_path(run.trace).dominant_kind == "gpu"


def test_path_network_dominates_cg(cg):
    run, _ = cg
    path = critical_path(run.trace)
    assert path.dominant_kind == "network"
    assert path.fraction("network") > 0.5


def test_path_fraction_rejects_unknown_kind():
    path = CriticalPath(segments=(), t_start=0.0, t_end=1.0)
    with pytest.raises(AnalysisError):
        path.fraction("teleport")


def test_segment_kinds_cover_report_order():
    assert SEGMENT_KINDS == ("compute", "gpu", "copy", "network", "wait", "idle")


# ---------------------------------------------------------------------------
# Roofline placement
# ---------------------------------------------------------------------------


def test_intensities_match_job_result(clover):
    run, telemetry = clover
    measured = intensities_from_telemetry(telemetry)
    assert measured.flops == pytest.approx(run.result.gpu_flops, rel=1e-12)
    assert measured.dram_bytes == pytest.approx(run.result.gpu_dram_bytes, rel=1e-12)
    assert measured.network_bytes == pytest.approx(run.result.network_bytes, rel=1e-12)
    assert measured.elapsed_seconds == pytest.approx(run.result.elapsed_seconds, rel=1e-12)


def test_intensities_require_gpu_kernels(cg):
    _, telemetry = cg
    with pytest.raises(AnalysisError):
        intensities_from_telemetry(telemetry)


@pytest.mark.parametrize("name", ("hpl", "jacobi", "cloverleaf", "tealeaf2d",
                                  "tealeaf3d"))
def test_placement_agrees_with_bench_roofline(name):
    run, telemetry = _instrumented_run(name)
    placement = place_run(telemetry, run.cluster, name=name)
    reference = measure_roofline_point(name, run.result, run.cluster)
    assert placement.binding == reference.limit
    assert placement.point.operational_intensity == pytest.approx(
        reference.operational_intensity, rel=1e-9)
    assert placement.point.network_intensity == pytest.approx(
        reference.network_intensity, rel=1e-9)


def test_placement_percent_of_roof_is_sane(clover):
    run, telemetry = clover
    placement = place_run(telemetry, run.cluster)
    assert 0.0 < placement.percent_of_roof <= 100.0
    assert placement.attainable_flops > 0


def test_placement_headroom_above_one(clover):
    run, telemetry = clover
    placement = place_run(telemetry, run.cluster)
    assert placement.binding_headroom >= 1.0


# ---------------------------------------------------------------------------
# Decomposition and the LB · Ser · Trf cross-check
# ---------------------------------------------------------------------------


def test_decompose_synthetic_fractions():
    breakdown = decompose_streams(_streams(
        [_op(0, "compute", 0.0, 6.0), _op(0, "send", 6.0, 8.0, peer=1)],
        [_op(1, "recv", 0.0, 8.0, peer=0), _op(1, "compute", 8.0, 10.0)],
    ))
    r0, r1 = breakdown.per_rank
    assert r0.busy_seconds == pytest.approx(6.0)
    assert r0.comm_seconds == pytest.approx(2.0)
    assert r0.idle_seconds == pytest.approx(2.0)
    assert r1.busy_seconds == pytest.approx(2.0)
    assert r1.comm_seconds == pytest.approx(8.0)
    assert sum(r0.fractions(breakdown.duration)) == pytest.approx(1.0)


def test_decompose_merges_overlapping_comm_intervals():
    breakdown = decompose_streams(_streams(
        [_op(0, "send", 0.0, 3.0, peer=1), _op(0, "recv", 1.0, 2.0, peer=1)],
        [_op(1, "compute", 0.0, 3.0)],
    ))
    assert breakdown.per_rank[0].comm_seconds == pytest.approx(3.0)


def test_decompose_balanced_run_has_lb_one():
    breakdown = decompose_streams(_streams(
        [_op(0, "compute", 0.0, 4.0)],
        [_op(1, "compute", 0.0, 4.0)],
    ))
    assert breakdown.load_balance == pytest.approx(1.0)
    assert breakdown.efficiency == pytest.approx(1.0)


def test_decompose_imbalance_lowers_lb():
    breakdown = decompose_streams(_streams(
        [_op(0, "compute", 0.0, 4.0)],
        [_op(1, "compute", 0.0, 2.0)],
    ))
    assert breakdown.load_balance == pytest.approx(0.75)


def test_cross_check_consistent_on_real_runs(clover, cg):
    for run, _ in (clover, cg):
        check = cross_check(run.trace, rank_to_node=run.rank_to_node)
        assert check.consistent(), (check.lb_delta, check.eta_delta)
        assert check.lb_delta < 1e-6
        assert check.eta_delta < 1e-6


def test_decompose_real_run_matches_trace_eta(clover):
    run, _ = clover
    span = decompose(run.trace)
    busy = run.trace.compute_seconds_all()
    eta = (sum(busy) / len(busy)) / run.result.elapsed_seconds
    assert span.efficiency == pytest.approx(eta, rel=1e-9)


# ---------------------------------------------------------------------------
# Baseline write / load / compare
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def jacobi_baseline():
    return collect_baseline(workloads=("jacobi",))


def test_baseline_round_trip(tmp_path, jacobi_baseline):
    path = write_baseline(tmp_path / "BENCH.json", jacobi_baseline)
    assert load_baseline(path) == jacobi_baseline


def test_baseline_write_is_byte_stable(tmp_path, jacobi_baseline):
    a = write_baseline(tmp_path / "a.json", jacobi_baseline)
    b = write_baseline(tmp_path / "b.json", collect_baseline(workloads=("jacobi",)))
    assert a.read_bytes() == b.read_bytes()


def test_baseline_rows_carry_all_metrics(jacobi_baseline):
    row = jacobi_baseline["metrics"]["jacobi"]
    assert {"runtime_seconds", "mflops_per_watt", "network_bytes",
            "load_balance", "serialization", "transfer", "limit",
            "percent_of_roof"} <= set(row)


def test_baseline_rows_carry_activity_counts(jacobi_baseline):
    # The same counts the retired host profiler recorded for jacobi@4/10G,
    # now read from the baseline run's own telemetry.
    row = jacobi_baseline["metrics"]["jacobi"]
    assert row["events"] == 8184
    assert row["processes"] == 484
    assert row["mpi_hops"] == 2400
    assert row["fabric_flow_rounds"] == 840
    assert row["telemetry_spans"] > 0
    for field in ("events", "processes", "mpi_hops", "fabric_flow_rounds",
                  "telemetry_spans"):
        assert type(row[field]) is int, field


def test_baseline_rejects_unknown_workload():
    with pytest.raises(ConfigurationError, match="known workloads"):
        collect_baseline(workloads=("doom3",))


def test_load_baseline_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_baseline(tmp_path / "nope.json")


def test_load_baseline_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "metrics": {}}))
    with pytest.raises(ConfigurationError, match="schema"):
        load_baseline(path)


def test_load_baseline_rejects_countless_schema_1(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 1, "metrics": {}}))
    with pytest.raises(ConfigurationError, match="schema 1") as err:
        load_baseline(path)
    assert "repro bench --baseline" in str(err.value)


def test_compare_identical_baselines_no_drift(jacobi_baseline):
    assert compare_baseline(jacobi_baseline, jacobi_baseline) == []


def test_compare_detects_numeric_drift(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    current["metrics"]["jacobi"]["runtime_seconds"] *= 1.01
    drifts = compare_baseline(jacobi_baseline, current, tolerance=1e-6)
    assert [d.metric for d in drifts] == ["runtime_seconds"]
    assert drifts[0].relative == pytest.approx(0.01, rel=1e-6)


def test_compare_respects_tolerance(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    current["metrics"]["jacobi"]["runtime_seconds"] *= 1.0 + 1e-9
    assert compare_baseline(jacobi_baseline, current, tolerance=1e-6) == []


def test_compare_flags_count_drift_exactly():
    # A drift of 1 in 8184 is far inside the float tolerance, but integer
    # counts ignore the tolerance.
    base = {"metrics": {"jacobi": {"events": 8184, "load_balance": 1.0}}}
    current = {"metrics": {"jacobi": {"events": 8185, "load_balance": 1.0}}}
    drifts = compare_baseline(base, current, tolerance=0.5)
    assert [d.metric for d in drifts] == ["events"]
    assert str(drifts[0]).startswith("jacobi.events: 8184 -> 8185")


def test_compare_float_drift_inside_tolerance_passes(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    current["metrics"]["jacobi"]["runtime_seconds"] *= 1.1
    assert compare_baseline(jacobi_baseline, current, tolerance=0.5) == []


def test_compare_flags_categorical_change(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    current["metrics"]["jacobi"]["limit"] = "network"
    drifts = compare_baseline(jacobi_baseline, current)
    assert len(drifts) == 1
    assert drifts[0].relative == float("inf")


def test_compare_flags_missing_workload(jacobi_baseline):
    drifts = compare_baseline(jacobi_baseline, {"metrics": {}})
    assert [d.metric for d in drifts] == ["(workload)"]


def test_compare_flags_missing_metric(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    del current["metrics"]["jacobi"]["limit"]
    drifts = compare_baseline(jacobi_baseline, current)
    assert [d.metric for d in drifts] == ["limit"]


def test_compare_rejects_negative_tolerance(jacobi_baseline):
    with pytest.raises(ConfigurationError):
        compare_baseline(jacobi_baseline, jacobi_baseline, tolerance=-1.0)


def test_format_drift_report_lists_each_drift(jacobi_baseline):
    current = json.loads(json.dumps(jacobi_baseline))
    current["metrics"]["jacobi"]["runtime_seconds"] *= 2
    text = format_drift_report(
        compare_baseline(jacobi_baseline, current), tolerance=1e-6)
    assert "jacobi.runtime_seconds" in text
    assert format_drift_report([], 1e-6).startswith("bench check: no drift")


def test_committed_seed_baseline_matches_current_measurement():
    """The committed BENCH_seed.json must reproduce exactly on this tree."""
    baseline = load_baseline("BENCH_seed.json")
    assert tuple(sorted(baseline["metrics"])) == tuple(sorted(BASELINE_WORKLOADS))
    config = baseline["config"]
    current = collect_baseline(
        workloads=("cloverleaf",), nodes=config["nodes"],
        network=config["network"],
    )
    partial = {"schema": baseline["schema"], "config": config,
               "metrics": {"cloverleaf": baseline["metrics"]["cloverleaf"]}}
    assert compare_baseline(partial, current) == []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_build_report_rejects_unknown_workload():
    with pytest.raises(ConfigurationError, match="known workloads"):
        build_report("doom3")


@pytest.fixture(scope="module")
def clover_report():
    return build_report("cloverleaf")


def test_report_renderers_are_byte_stable(clover_report):
    again = build_report("cloverleaf")
    assert render_text(clover_report) == render_text(again)
    assert render_json(clover_report) == render_json(again)
    assert render_markdown(clover_report) == render_markdown(again)


def test_report_json_parses_and_names_binding(clover_report):
    document = json.loads(render_json(clover_report))
    assert document["workload"] == "cloverleaf"
    assert document["roofline"]["binding"] == "operational"
    assert document["critical_path"]["dominant"] == "gpu"


def test_report_dict_breakdown_covers_duration(clover_report):
    document = to_dict(clover_report)
    seconds = document["critical_path"]["breakdown_seconds"]
    assert sum(seconds.values()) == pytest.approx(
        document["critical_path"]["duration_seconds"], rel=1e-9)


def test_report_text_names_sections(clover_report):
    text = render_text(clover_report)
    assert "critical path" in text
    assert "parallel efficiency" in text
    assert "roofline placement" in text
    assert "binding ceiling: operational" in text


def test_report_markdown_has_tables(clover_report):
    markdown = render_markdown(clover_report)
    assert "## Critical path" in markdown
    assert "## Roofline placement" in markdown
    assert "**operational**" in markdown


def test_report_cpu_workload_skips_roofline():
    report = build_report("cg", nodes=2)
    assert report.placement is None
    assert "roofline" not in json.loads(render_json(report))


def test_report_cpu_workload_warm_starts_from_run_cache():
    first = render_json(build_report("cg", nodes=2))
    hits = cache_stats()["memory_hits"]
    again = render_json(build_report("cg", nodes=2))
    assert cache_stats()["memory_hits"] > hits
    assert again == first


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_report_workload(capsys):
    assert main(["report", "cloverleaf"]) == 0
    out = capsys.readouterr().out
    assert "binding ceiling: operational" in out


def test_cli_report_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    assert main(["report", "cloverleaf", "--format", "md",
                 "--out", str(out_file)]) == 0
    assert "## Roofline placement" in out_file.read_text()


def test_cli_report_unknown_workload_exits_2(capsys):
    assert main(["report", "doom3"]) == 2
    assert "known workloads" in capsys.readouterr().err


def test_cli_telemetry_unknown_workload_exits_2(capsys):
    assert main(["telemetry", "doom3"]) == 2
    assert "known workloads" in capsys.readouterr().err


def test_cli_bench_write_then_check(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--baseline", str(path),
                 "--workloads", "jacobi"]) == 0
    assert main(["bench", "--check", "--baseline", str(path)]) == 0
    assert "no drift" in capsys.readouterr().out


def test_cli_bench_check_fails_on_drift(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--baseline", str(path),
                 "--workloads", "jacobi"]) == 0
    document = json.loads(path.read_text())
    document["metrics"]["jacobi"]["runtime_seconds"] *= 1.5
    path.write_text(json.dumps(document))
    assert main(["bench", "--check", "--baseline", str(path)]) == 1
    assert "drifted" in capsys.readouterr().out


def test_cli_bench_check_missing_baseline_exits_2(tmp_path, capsys):
    assert main(["bench", "--check",
                 "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "does not exist" in capsys.readouterr().err

"""repro.insight: critical path, roofline placement, cross-check, baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import cache_stats, run_workload
from repro.cli import main
from repro.core import RunTotals, measure_roofline_point, place
from repro.errors import AnalysisError, ConfigurationError
from repro.insight import (
    BASELINE_WORKLOADS,
    SEGMENT_KINDS,
    CriticalPath,
    CriticalSegment,
    OpStreams,
    RankActivity,
    RankOp,
    SpanBreakdown,
    build_report,
    collect_baseline,
    compare_baseline,
    completion_totals,
    critical_path,
    critical_path_of_streams,
    cross_check,
    decompose,
    decompose_streams,
    extract_ops,
    format_drift_report,
    load_baseline,
    match_messages,
    render_json,
    render_markdown,
    render_text,
    to_dict,
    write_baseline,
)
from repro.telemetry import Telemetry
from repro.tracing import CommRecord, RecvRecord, Trace, Tracer
from repro.workloads import GPGPU_NAMES


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


def test_path_hops_to_the_send_of_the_receive_it_reached():
    # Rank 1's two receives from rank 0 complete together at t=5: in FIFO
    # order the earlier-posted one consumes send A, the other send B.  The
    # walk reaches the earlier receive through rank 1's message to rank 2,
    # and must hop to A, not to B.
    path = critical_path_of_streams(_streams(
        [_op(0, "send", 0.0, 0.5, peer=1), _op(0, "send", 1.5, 2.0, peer=1)],
        [_op(1, "recv", 1.0, 5.0, peer=0), _op(1, "send", 2.5, 3.0, peer=2),
         _op(1, "recv", 3.0, 5.0, peer=0)],
        [_op(2, "recv", 2.5, 3.0, peer=1), _op(2, "compute", 3.0, 7.0)],
    ))
    assert path.segments == (
        CriticalSegment(1, "network", "msg r0->r1", 0.0, 2.5),
        CriticalSegment(2, "network", "msg r1->r2", 2.5, 3.0),
        CriticalSegment(2, "compute", "compute", 3.0, 7.0),
    )


def test_op_streams_views_are_read_only_and_rebuilt():
    streams = _streams([_op(0, "compute", 0.0, 1.0)], [_op(1, "recv", 0.0, 2.0, peer=0)])
    assert streams.rank_ops(0) == [_op(0, "compute", 0.0, 1.0)]
    assert streams.rank_ops(0) is not streams.rank_ops(0)
    assert streams.rank_ops(7) == []
    assert list(streams.ops) == [0, 1]
    with pytest.raises(TypeError):
        streams.ops[0] = []
    with pytest.raises(ValueError):
        streams.start[0] = 5.0
    assert [op.kind for op in streams.all_ops()] == ["compute", "recv"]


@pytest.mark.parametrize("ops, match", [
    ({0: [_op(1, "compute", 0.0, 1.0)]}, "listed under rank 0"),
    ({0: [_op(0, "teleport", 0.0, 1.0)]}, "unknown op kind"),
    ({0: [_op(0, "compute", 1.0, 0.5)]}, "ends before it starts"),
    ({0: [_op(0, "compute", 0.0, float("nan"))]}, "ends before it starts"),
    ({2: [_op(2, "compute", 0.0, 1.0)]}, "rank lies outside"),
    ({0: [_op(0, "send", 0.0, 1.0, peer=2)]}, "peer lies outside"),
    ({0: [_op(0, "recv", 0.0, 1.0)]}, "peer lies outside"),
])
def test_op_streams_reject_malformed_ops(ops, match):
    with pytest.raises(AnalysisError, match=match):
        OpStreams(n_ranks=2, ops=ops, t_start=0.0, t_end=1.0)


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
# Columnar op streams vs. a record-stream reference
# ---------------------------------------------------------------------------
#
# The reference keeps the object implementation the columns replaced: RankOp
# lists sorted by a tuple key, all_ops + record-at-a-time FIFO pairing, the
# linear covering-op scan and record sums.  Receives find their send by
# identity.


def _reference_key(op):
    return (op.start, op.end, op.rank, op.kind, op.name)


def reference_extract(trace):
    ops = [RankOp(r.rank, r.state, r.state, r.start, r.end)
           for r in trace.states if r.state in Trace.USEFUL_STATES]
    ops += [RankOp(c.src, "send", f"mpi.send->r{c.dst}", c.start, c.end,
                   peer=c.dst, nbytes=c.nbytes) for c in trace.comms]
    ops += [RankOp(r.rank, "recv", "mpi.recv", r.start, r.end,
                   peer=r.src, nbytes=r.nbytes) for r in trace.recvs]
    streams = {}
    for op in ops:
        if op.end > op.start:
            streams.setdefault(op.rank, []).append(op)
    for rank_ops in streams.values():
        rank_ops.sort(key=_reference_key)
    return streams


def reference_all_ops(ops):
    return sorted((op for rank in sorted(ops) for op in ops[rank]), key=_reference_key)


def _by_completion(op):
    return (op.end, op.start)


def reference_pairs(ops):
    """``(send, recv)`` per send in completion order; ``recv`` may be None."""
    merged = reference_all_ops(ops)
    queues = {}
    for recv in sorted((op for op in merged if op.kind == "recv"), key=_by_completion):
        queues.setdefault((recv.peer, recv.rank), []).append(recv)
    positions = {}
    pairs = []
    for send in sorted((op for op in merged if op.kind == "send"), key=_by_completion):
        link = (send.rank, send.peer)
        queue = queues.get(link, [])
        index = positions.get(link, 0)
        positions[link] = index + 1
        pairs.append((send, queue[index] if index < len(queue) else None))
    return pairs


def _reference_cover_key(op, t):
    return (min(op.end, t), op.kind == "recv", op.start, op.rank, op.name)


def reference_covering_op(ops, t):
    best = None
    for op in ops:
        if op.start < t and (best is None or _reference_cover_key(op, t)
                             > _reference_cover_key(best, t)):
            best = op
    return best


def reference_critical_path(ops, t_start):
    senders = {id(recv): send for send, recv in reference_pairs(ops) if recv is not None}
    last_end, start_rank = max(
        ((rank_ops[-1].end, -rank) for rank, rank_ops in ops.items() if rank_ops),
        default=(0.0, 0),
    )
    rank, t, segments = -start_rank, last_end, []
    while t > t_start:
        op = reference_covering_op(ops.get(rank, []), t)
        if op is None:
            segments.append(CriticalSegment(rank, "idle", "startup", t_start, t))
            t = t_start
        elif op.end < t:
            segments.append(CriticalSegment(rank, "idle", "idle", op.end, t))
            t = op.end
        elif op.kind == "recv":
            send = senders.get(id(op))
            if send is not None and send.rank != rank and send.start < t:
                segments.append(CriticalSegment(
                    rank, "network", f"msg r{send.rank}->r{rank}", send.start, t))
                rank, t = send.rank, send.start
            else:
                segments.append(CriticalSegment(rank, "wait", op.name, op.start, t))
                t = op.start
        else:
            kind = "network" if op.kind == "send" else op.kind
            segments.append(CriticalSegment(rank, kind, op.name, op.start, t))
            t = op.start
    segments.reverse()
    return CriticalPath(segments=tuple(segments), t_start=t, t_end=last_end)


def _reference_union_seconds(intervals):
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


def reference_decompose(ops, n_ranks, duration):
    activities = []
    for rank in range(n_ranks):
        rank_ops = ops.get(rank, [])
        busy = sum(op.seconds for op in rank_ops if op.kind in Trace.USEFUL_STATES)
        comm = _reference_union_seconds(
            [(op.start, op.end) for op in rank_ops if op.kind in ("send", "recv")])
        activities.append(RankActivity(rank, busy, comm, max(0.0, duration - busy - comm)))
    return SpanBreakdown(per_rank=tuple(activities), duration=duration)


def _assert_streams_match_reference(streams, ops):
    assert repr(streams.all_ops()) == repr(reference_all_ops(ops))
    for rank in range(streams.n_ranks):
        assert repr(streams.rank_ops(rank)) == repr(ops.get(rank, []))
    matches = {(recv.rank, recv.peer, recv.end): send
               for send, recv in reference_pairs(ops) if recv is not None}
    assert repr(sorted(match_messages(streams).items())) == repr(sorted(matches.items()))
    assert (repr(critical_path_of_streams(streams))
            == repr(reference_critical_path(ops, streams.t_start)))
    assert (repr(decompose_streams(streams))
            == repr(reference_decompose(ops, streams.n_ranks, streams.duration)))


def assert_columns_match_reference(trace):
    ops = reference_extract(trace)
    if not ops:
        with pytest.raises(AnalysisError):
            extract_ops(trace)
        return
    streams = extract_ops(trace)
    t_end = max(op.end for rank_ops in ops.values() for op in rank_ops)
    assert (streams.t_start, streams.t_end) == (0.0, t_end)
    _assert_streams_match_reference(streams, ops)
    # The same lists through the RankOp constructor, in reverse order.
    reversed_ops = {rank: rank_ops[::-1] for rank, rank_ops in ops.items()}
    rebuilt = OpStreams(streams.n_ranks, ops=reversed_ops, t_start=0.0, t_end=t_end)
    for rank_ops in reversed_ops.values():
        rank_ops.sort(key=_reference_key)
    _assert_streams_match_reference(rebuilt, reversed_ops)


# Few distinct times, so starts and ends tie across kinds, message legs end
# together, zero-length ops are common and ops overlap.  Ranks 4-5 of a
# 6-rank world stay idle.
_TIMES = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))
_SPANS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0))
_RANKS = st.integers(0, 3)
_STATES = st.tuples(_RANKS, st.sampled_from(("compute", "gpu", "copy", "overlap")),
                    _TIMES, _SPANS)
_MESSAGES = st.tuples(_RANKS, _RANKS, st.sampled_from((0.0, 64.0)), _TIMES, _SPANS,
                      st.booleans())
_RECVS = st.tuples(_RANKS, _RANKS, _TIMES, _SPANS)


@given(st.sampled_from((4, 6)), st.lists(_STATES, max_size=12),
       st.lists(_MESSAGES, max_size=14), st.lists(_RECVS, max_size=6))
@settings(max_examples=400, deadline=None)
def test_columnar_streams_match_record_reference(n_ranks, states, messages, recvs):
    tracer = Tracer(n_ranks)
    for rank, state, start, span in states:
        tracer.record_state(rank, state, start, start + span)
    for src, dst, nbytes, start, span, _ in messages:
        tracer.record_comm(src, dst, nbytes, start, start + span, tag=0)
    # Most sends are received, ending with their send or later; a few
    # receives have no send at all.
    for src, dst, nbytes, start, span, received in messages:
        if received:
            tracer.record_recv(dst, src, nbytes, start, start + span, tag=0)
    for rank, src, start, span in recvs:
        tracer.record_recv(rank, src, 64.0, start, start + span, tag=0)
    assert_columns_match_reference(tracer.finalize())


@pytest.mark.parametrize("name", ("jacobi", "cg", "hpl"))
def test_columnar_streams_match_record_reference_on_real_traces(name):
    run = run_workload(name, nodes=2, traced=True)
    assert_columns_match_reference(run.trace)


# ---------------------------------------------------------------------------
# Roofline placement
# ---------------------------------------------------------------------------


def test_intensities_match_job_result(clover):
    run, _ = clover
    measured = completion_totals(run.result)
    assert measured.flops == pytest.approx(run.result.gpu_flops, rel=1e-12)
    assert measured.dram_bytes == pytest.approx(run.result.gpu_dram_bytes, rel=1e-12)
    assert measured.network_bytes == pytest.approx(run.result.network_bytes, rel=1e-12)
    assert measured.elapsed_seconds == pytest.approx(run.result.elapsed_seconds, rel=1e-12)


def test_intensities_require_gpu_kernels(cg):
    run, _ = cg
    with pytest.raises(AnalysisError):
        completion_totals(run.result)


def _sink_totals(telemetry: Telemetry) -> RunTotals:
    """What a sink measured: kernel spans in the order they closed, the
    per-kind staging byte counter, the wire byte counter and the runtime
    gauge."""
    flops = kernel_dram = kernel_l2 = 0.0
    for span in telemetry.spans:
        if span.category == "cuda" and span.name.startswith("kernel:"):
            flops += span.args["flops"]
            kernel_dram += span.args["dram_bytes"]
            kernel_l2 += span.args["l2_bytes"]
    registry = telemetry.registry
    copy_bytes = sum(v for _, v in registry.get("cuda_copy_bytes_total").series())
    (_, elapsed), = registry.get("job_elapsed_seconds").series()
    return RunTotals(
        flops=flops,
        dram_bytes=kernel_dram + copy_bytes,
        l2_bytes=kernel_l2,
        network_bytes=registry.get("fabric_bytes_total").value(),
        elapsed_seconds=elapsed,
    )


_SINK_ORACLE_RUNS = [
    pytest.param(name, nodes, network, "tx1", {}, id=f"{name}-{nodes}-{network}")
    for name in GPGPU_NAMES for nodes in (2, 4) for network in ("1G", "10G")
] + [
    pytest.param("jacobi", 4, "10G", "tx1", {"memory_model": model},
                 id=f"jacobi-4-10G-{model}")
    for model in ("zero-copy", "unified")
] + [
    pytest.param(name, 4, "10G", "gtx980", {}, id=f"{name}-4-10G-gtx980")
    for name in ("hpl", "jacobi", "cloverleaf")
]


@pytest.mark.parametrize(("name", "nodes", "network", "system", "kwargs"),
                         _SINK_ORACLE_RUNS)
def test_completion_totals_equal_the_sink(name, nodes, network, system, kwargs):
    # The sink is only the oracle here: the fold over the run record must
    # reproduce every total it measured bit for bit, so a report's bytes
    # do not depend on whether a sink was attached.
    telemetry = Telemetry(sample_interval=0.0)
    run = run_workload(name, nodes=nodes, network=network, system=system,
                       traced=True, use_cache=False, telemetry=telemetry,
                       **kwargs)
    assert completion_totals(run.result) == _sink_totals(telemetry)


@pytest.mark.parametrize("name", ("hpl", "jacobi", "cloverleaf", "tealeaf2d",
                                  "tealeaf3d"))
def test_placement_agrees_with_bench_roofline(name):
    run, _ = _instrumented_run(name)
    precision = run.workload.precision
    placement = place(
        completion_totals(run.result), run.cluster,
        precision=precision, name=name,
    )
    reference = measure_roofline_point(
        name, run.result, run.cluster, precision=precision
    )
    assert placement.point.limit == reference.limit
    assert placement.point.operational_intensity == pytest.approx(
        reference.operational_intensity, rel=1e-9)
    assert placement.point.network_intensity == pytest.approx(
        reference.network_intensity, rel=1e-9)


@pytest.mark.parametrize("name", GPGPU_NAMES)
def test_placement_percent_of_roof_is_sane(name):
    # The CNNs run single precision: against the DP peak they sat at
    # 419 % (alexnet) and 897 % (googlenet) of their roof.
    document = to_dict(build_report(name, nodes=4, roofline="hier"))
    for section in ("roofline", "roofline_hier"):
        assert 0.0 < document[section]["percent_of_roof"] <= 100.0
        assert document[section]["attainable_gflops"] > 0


def test_placement_headroom_above_one(clover):
    run, _ = clover
    placement = place(
        completion_totals(run.result), run.cluster,
        precision=run.workload.precision,
    )
    assert placement.flat_headroom >= 1.0
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


def test_committed_hpl_report_is_what_the_report_prints():
    committed = Path(__file__).resolve().parent.parent / "docs/REPORT_HPL4.json"
    body = committed.read_text(encoding="utf-8").split("\n", 2)[2]
    assert body == render_json(build_report("hpl", nodes=4, roofline="2d"))


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


def test_gpgpu_report_builds_no_sink_and_warm_starts(monkeypatch):
    def no_sink(self, *args, **kwargs):
        raise AssertionError("a report built a telemetry sink")

    monkeypatch.setattr(Telemetry, "__init__", no_sink)
    first = render_json(build_report("jacobi", nodes=2, roofline="2d"))
    before = cache_stats()
    again = render_json(build_report("jacobi", nodes=2, roofline="2d"))
    after = cache_stats()
    assert after["memory_hits"] == before["memory_hits"] + 1
    assert after["memory_misses"] == before["memory_misses"]
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


def test_cli_report_single_node_analysis_error_exits_2(capsys):
    # One node moves no fabric bytes, so the run's network intensity is
    # undefined: a one-line usage error, not a traceback.
    assert main(["report", "hpl", "--nodes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "repro report: no network traffic in the run record "
        "(JobResult.network_bytes is zero): network intensity is undefined"
    ]


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

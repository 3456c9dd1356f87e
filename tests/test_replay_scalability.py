"""Unit + integration tests for DIMEMAS-style replay and the scalability math."""

import copy
import math
import tracemalloc
from collections import defaultdict, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Job
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import AnalysisError, TraceError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.replay import (
    IDEAL_NETWORK,
    NetworkParams,
    ideal_load_balance_runtime,
    ideal_network_runtime,
    network_from_nic,
    replay,
)
from repro.scalability import fit_usl, parallel_efficiency, r_squared
from repro.tracing import Tracer
from repro.tracing.events import CommRecord, StateRecord, Trace
from repro.units import mib

PROFILE = WorkloadCPUProfile(name="t", working_set_per_rank_bytes=mib(4))


def two_rank_trace(compute=(1.0, 1.0), nbytes=1e6):
    """Rank 0 computes then sends to rank 1, which computes then receives."""
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, compute[0])
    tracer.record_comm(0, 1, nbytes, compute[0], compute[0] + 0.1, tag=0)
    tracer.record_state(1, "compute", 0.0, compute[1])
    tracer.record_recv(1, 0, nbytes, compute[1], compute[0] + 0.1, tag=0)
    return tracer.finalize()


# -- replay engine -------------------------------------------------------------


def test_ideal_replay_removes_transfer_cost():
    trace = two_rank_trace()
    result = replay(trace, IDEAL_NETWORK)
    # With a free network, runtime = max compute chain = 1.0s.
    assert result.runtime == pytest.approx(1.0)
    assert result.messages_replayed == 1


def test_replay_with_finite_network_charges_transfer():
    trace = two_rank_trace(nbytes=1e8)
    slow = NetworkParams(latency=0.01, bandwidth=1e8)
    result = replay(trace, slow)
    # Rank 1 waits for 1.0 (send start) + 0.01 + 1.0 (transfer).
    assert result.runtime == pytest.approx(2.01)


def test_replay_dependency_chains():
    """A send/recv chain 0->1->2 serializes in replay."""
    tracer = Tracer(3)
    for r in range(3):
        tracer.record_state(r, "compute", 0.0, 1.0)
    tracer.record_comm(0, 1, 8.0, 1.0, 1.0, tag=0)
    tracer.record_recv(1, 0, 8.0, 1.0, 1.0, tag=0)
    tracer.record_state(1, "compute", 1.0, 2.0)
    tracer.record_comm(1, 2, 8.0, 2.0, 2.0, tag=0)
    tracer.record_recv(2, 1, 8.0, 2.0, 2.0, tag=0)
    tracer.record_state(2, "compute", 2.0, 3.0)
    result = replay(tracer.finalize(), IDEAL_NETWORK)
    # 1s (r0) -> 1s (r1) -> 1s (r2) after initial parallel 1s each: critical
    # path = r0 compute (1) + r1 compute (1) + r2 compute (1) = 3.
    assert result.runtime == pytest.approx(3.0)


# -- columnar replay vs. a record-stream reference -------------------------------


def reference_rank_ops(trace, rank):
    """The record-at-a-time op stream: useful states, sends, receives, then a
    stable sort by (start, end)."""
    ops = [(s.start, s.end, s) for s in trace.states
           if s.rank == rank and s.state in Trace.USEFUL_STATES]
    ops += [(c.start, c.end, c) for c in trace.comms if c.src == rank]
    ops += [(r.start, r.end, r) for r in trace.recvs if r.rank == rank]
    ops.sort(key=lambda item: (item[0], item[1]))
    return [op for _, _, op in ops]


def reference_replay(trace, network, compute_scale=None, rank_to_node=None):
    """Replay over per-rank deques of records, one ``isinstance`` per op."""
    n = trace.n_ranks
    scale = compute_scale or [1.0] * n
    ops = [deque(reference_rank_ops(trace, r)) for r in range(n)]
    clocks = [0.0] * n
    arrivals = defaultdict(deque)
    messages = 0

    def transfer_cost(src, dst, nbytes):
        if rank_to_node is not None and rank_to_node[src] == rank_to_node[dst]:
            bw, lat = network.local_bandwidth, network.local_latency
        else:
            bw, lat = network.bandwidth, network.latency
        return lat + (nbytes / bw if math.isfinite(bw) else 0.0)

    remaining = sum(len(q) for q in ops)
    while remaining:
        progressed = False
        for rank in range(n):
            queue = ops[rank]
            while queue:
                op = queue[0]
                if isinstance(op, StateRecord):
                    clocks[rank] += op.seconds * scale[rank]
                elif isinstance(op, CommRecord):
                    clocks[rank] += transfer_cost(op.src, op.dst, op.nbytes)
                    arrivals[(op.src, op.dst, op.tag)].append(clocks[rank])
                    messages += 1
                else:  # a RecvRecord
                    channel = arrivals[(op.src, op.rank, op.tag)]
                    if not channel:
                        break
                    clocks[rank] = max(clocks[rank], channel.popleft())
                queue.popleft()
                remaining -= 1
                progressed = True
        if not progressed:
            raise TraceError("replay deadlocked: unmatched receive in trace")
    return (max(clocks) if clocks else 0.0), tuple(clocks), messages


def _outcome(replay_fn, trace, network, **kwargs):
    """The replay's exact result (as reprs: bit for bit), or the deadlock."""
    try:
        result = replay_fn(trace, network, **kwargs)
    except TraceError:
        return "deadlock"
    if not isinstance(result, tuple):
        result = (result.runtime, result.rank_finish_times, result.messages_replayed)
    return repr(result)


# Few distinct times and durations, so (start, end) ties across kinds abound.
_TIMES = st.sampled_from((0.0, 0.5, 1.0, 1.5))
_SPANS = st.sampled_from((0.0, 0.5, 1.0))
_STATES = st.tuples(st.integers(0, 3), st.sampled_from(("compute", "gpu", "copy", "overlap")),
                    _TIMES, _SPANS)
_MESSAGES = st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((0, 1, 7)),
                      st.sampled_from((0.0, 64.0, 1e6)), _TIMES, _SPANS, _TIMES, _SPANS)
_NETWORK = NetworkParams(latency=1e-4, bandwidth=1.25e8,
                         local_bandwidth=7e9, local_latency=1e-6)


def _record_messages(tracer, messages):
    """Sends, then receives that start and end no earlier than their send,
    as in a simulated run, so no generated trace deadlocks the replay."""
    for src, dst, tag, nbytes, start, span, _, _ in messages:
        tracer.record_comm(src, dst, nbytes, start, start + span, tag)
    for src, dst, tag, nbytes, start, span, wait, delay in messages:
        end = start + span + delay
        tracer.record_recv(dst, src, nbytes, max(start, min(wait, end)), end, tag)


def _assert_replays_match_reference(trace, scale):
    """Three replays of *trace* back to back share one op table, and each
    equals, bit for bit, the reference and a replay of a fresh copy."""
    # Ranks 0-1 and 2-3 share a node: local and remote pairs both occur.
    cases = (
        (_NETWORK, {"rank_to_node": [0, 0, 1, 1], "compute_scale": scale}),
        (_NETWORK, {}),
        (IDEAL_NETWORK, {}),
    )
    with mock.patch.object(Trace, "_build_op_table", autospec=True,
                           side_effect=Trace._build_op_table) as build:
        outcomes = [_outcome(replay, trace, network, **kwargs) for network, kwargs in cases]
    assert build.call_count == 1
    for (network, kwargs), outcome in zip(cases, outcomes):
        assert outcome == _outcome(reference_replay, trace, network, **kwargs)
        assert outcome == _outcome(replay, copy.copy(trace), network, **kwargs)
    for rank in range(trace.n_ranks):
        assert trace.rank_ops(rank) == reference_rank_ops(trace, rank)


# Messages on three links only, so each link carries interleaved tags.
_LINK_MESSAGES = st.tuples(
    st.sampled_from(((0, 1), (1, 0), (0, 2))), st.sampled_from((0, 1, 2)),
    st.sampled_from((0.0, 64.0, 1e6)), _TIMES, _SPANS, _TIMES, _SPANS,
).map(lambda message: (*message[0], *message[1:]))


@given(st.lists(_STATES, max_size=14),
       st.one_of(st.lists(_MESSAGES, max_size=14),
                 st.lists(_LINK_MESSAGES, min_size=2, max_size=16)),
       st.lists(st.sampled_from((0.5, 1.0, 3.0)), min_size=4, max_size=4))
@settings(max_examples=500, deadline=None)
def test_columnar_replay_matches_record_reference(states, messages, scale):
    tracer = Tracer(4)
    for rank, state, start, span in states:
        tracer.record_state(rank, state, start, start + span)
    _record_messages(tracer, messages)
    _assert_replays_match_reference(tracer.finalize(), scale)


def test_replay_memory_grows_with_ops_not_channels():
    """The hpl ring pattern: every message on its own tag.  The replay's
    peak allocation stays within a fixed number of bytes per op."""
    n_messages = 20_000
    tracer = Tracer(2)
    for k in range(n_messages):
        tracer.record_comm(0, 1, 64.0, float(k), float(k), tag=k)
        tracer.record_recv(1, 0, 64.0, float(k), float(k) + 0.5, tag=k)
    trace = tracer.finalize()
    n_ops = len(trace.op_table().kind)
    tracemalloc.start()
    try:
        result = replay(trace, IDEAL_NETWORK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.messages_replayed == n_messages
    assert peak <= 128 * n_ops, f"{peak / n_ops:.0f} B/op"


def test_replay_unmatched_recv_deadlocks():
    tracer = Tracer(2)
    tracer.record_recv(1, 0, 8.0, 0.0, 1.0, tag=9)
    with pytest.raises(TraceError):
        replay(tracer.finalize(), IDEAL_NETWORK)


def test_replay_compute_scaling():
    trace = two_rank_trace(compute=(2.0, 1.0))
    balanced = replay(trace, IDEAL_NETWORK, compute_scale=[0.75, 1.5])
    assert balanced.runtime == pytest.approx(1.5)


@pytest.mark.parametrize("scale, match", [
    ([math.nan, 1.0], r"compute_scale\[0\] must be finite"),
    ([1.0, math.inf], r"compute_scale\[1\] must be finite"),
    ([-1.0, 1.0], r"compute_scale\[0\] must be finite and non-negative"),
    ([1.0], "one entry per rank"),
    ([1.0, 1.0, 1.0], "one entry per rank"),
], ids=["nan", "inf", "negative", "short", "long"])
def test_replay_rejects_bad_compute_scale(scale, match):
    # Compute only: a NaN scale would otherwise give runtime NaN, and a
    # negative one a finish time of -1.0.
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 1.0)
    tracer.record_state(1, "compute", 0.0, 1.0)
    with pytest.raises(TraceError, match=match):
        replay(tracer.finalize(), IDEAL_NETWORK, compute_scale=scale)


def test_replay_accepts_a_zero_compute_scale():
    trace = two_rank_trace(compute=(2.0, 1.0))
    assert replay(trace, IDEAL_NETWORK, compute_scale=[0.0, 1.0]).runtime == 1.0


def test_replay_local_messages_use_local_bus():
    trace = two_rank_trace(nbytes=1e8)
    net = NetworkParams(latency=0.5, bandwidth=1e6, local_bandwidth=math.inf)
    same_node = replay(trace, net, rank_to_node=[0, 0])
    cross_node = replay(trace, net, rank_to_node=[0, 1])
    assert same_node.runtime < cross_node.runtime


def test_network_params_validation():
    for kwargs in (
        {"latency": -1.0, "bandwidth": 1.0},
        {"latency": 0.0, "bandwidth": 0.0},
        # NaN compares false both ways, so a ``<``/``<=`` check lets it in.
        {"latency": math.nan, "bandwidth": 1.0},
        {"latency": 0.0, "bandwidth": math.nan},
        {"latency": math.nan, "bandwidth": math.nan},
        {"latency": 0.0, "bandwidth": 1.0, "local_latency": math.nan},
        {"latency": 0.0, "bandwidth": 1.0, "local_bandwidth": math.nan},
    ):
        with pytest.raises(TraceError):
            NetworkParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rank_to_node": []},
        {"rank_to_node": [0]},
        {"compute_scale": [1.0]},
        {"compute_scale": [1.0, 1.0, 1.0]},
    ],
)
def test_replay_rejects_inputs_without_an_entry_per_rank(kwargs):
    with pytest.raises(TraceError, match="per rank"):
        replay(two_rank_trace(), IDEAL_NETWORK, **kwargs)


def test_network_from_nic():
    from repro.hardware import catalog
    from repro.network import SwitchSpec

    net = network_from_nic(
        catalog.XGBE_PCIE, SwitchSpec.from_catalog(catalog.SWITCH_10G)
    )
    assert net.bandwidth == catalog.XGBE_PCIE.achievable_rate
    assert net.latency > catalog.XGBE_PCIE.latency_one_way


# -- efficiency decomposition ----------------------------------------------------


def test_perfect_trace_efficiency_one():
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 2.0)
    tracer.record_state(1, "compute", 0.0, 2.0)
    breakdown = parallel_efficiency(tracer.finalize())
    assert breakdown.load_balance == pytest.approx(1.0)
    assert breakdown.serialization == pytest.approx(1.0)
    assert breakdown.transfer == pytest.approx(1.0)
    assert breakdown.efficiency == pytest.approx(1.0)


def test_imbalanced_trace_lowers_lb():
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 4.0)
    tracer.record_state(1, "compute", 0.0, 2.0)
    breakdown = parallel_efficiency(tracer.finalize())
    assert breakdown.load_balance == pytest.approx(0.75)


def test_transfer_inefficiency_detected():
    """Real-network wait time shows up in Trf, not LB."""
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 1.0)
    tracer.record_comm(0, 1, 1e6, 1.0, 2.0, tag=0)  # slow 1s transfer
    tracer.record_state(1, "compute", 0.0, 1.0)
    tracer.record_recv(1, 0, 1e6, 1.0, 2.0, tag=0)
    breakdown = parallel_efficiency(tracer.finalize())
    assert breakdown.transfer < 1.0
    assert breakdown.load_balance == pytest.approx(1.0)


def test_efficiency_identity():
    """eta must equal mean(compute)/runtime."""
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 3.0)
    tracer.record_comm(0, 1, 1e6, 3.0, 3.5, tag=0)
    tracer.record_state(1, "compute", 0.0, 2.0)
    tracer.record_recv(1, 0, 1e6, 2.0, 3.5, tag=0)
    trace = tracer.finalize()
    breakdown = parallel_efficiency(trace)
    mean_compute = sum(trace.compute_seconds_all()) / trace.n_ranks
    assert breakdown.efficiency == pytest.approx(mean_compute / trace.duration, rel=1e-6)


def test_empty_compute_trace_rejected():
    tracer = Tracer(1)
    tracer.record_comm(0, 0, 1.0, 0.0, 1.0, tag=0)
    tracer.record_recv(0, 0, 1.0, 0.0, 1.0, tag=0)
    with pytest.raises(TraceError):
        parallel_efficiency(tracer.finalize())


def test_ideal_lb_runtime_beats_measured_for_imbalanced_run():
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 4.0)
    tracer.record_state(1, "compute", 0.0, 2.0)
    trace = tracer.finalize()
    t_lb = ideal_load_balance_runtime(trace, IDEAL_NETWORK)
    assert t_lb == pytest.approx(3.0)
    assert t_lb < trace.duration


# -- USL fitting -----------------------------------------------------------------


def test_usl_fits_perfect_scaling():
    nodes = [2.0, 4.0, 8.0, 16.0]
    fit = fit_usl(nodes, nodes)  # speedup == nodes
    assert fit.sigma == pytest.approx(0.0, abs=1e-4)
    assert fit.kappa == pytest.approx(0.0, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-4)
    assert fit.speedup(256.0) == pytest.approx(256.0, rel=1e-3)


def test_usl_fits_contended_scaling():
    sigma_true = 0.08
    nodes = [2.0, 4.0, 8.0, 16.0]
    speedups = [p / (1 + sigma_true * (p - 1)) for p in nodes]
    fit = fit_usl(nodes, speedups)
    assert fit.sigma == pytest.approx(sigma_true, abs=0.01)
    assert fit.r2 > 0.99
    assert fit.speedup(256.0) < 256.0 / 2


def test_usl_retrograde_scaling_has_peak():
    nodes = [2.0, 4.0, 8.0, 16.0]
    speedups = [1.8, 2.8, 3.2, 2.9]  # tealeaf-like collapse
    fit = fit_usl(nodes, speedups)
    assert fit.kappa > 0.0
    peak = fit.peak_nodes()
    assert 2.0 < peak < 64.0
    assert fit.speedup(256.0) < max(speedups) * 1.5


def test_usl_validation():
    with pytest.raises(AnalysisError):
        fit_usl([2.0], [1.5])
    with pytest.raises(AnalysisError):
        fit_usl([0.5, 2.0], [1.0, 1.5])
    with pytest.raises(AnalysisError):
        fit_usl([2.0, 4.0], [1.0, -2.0])


def test_r_squared_basics():
    import numpy as np

    obs = np.array([1.0, 2.0, 3.0])
    assert r_squared(obs, obs) == pytest.approx(1.0)
    assert r_squared(obs, np.array([2.0, 2.0, 2.0])) == pytest.approx(0.0)
    with pytest.raises(AnalysisError):
        r_squared(obs, np.array([1.0, 2.0]))


# -- end-to-end: trace a job, replay it ----------------------------------------


def traced_job_run(n_nodes):
    cluster = Cluster(tx1_cluster_spec(n_nodes))
    tracer = Tracer(n_nodes)
    job = Job(cluster, ranks_per_node=1, tracer=tracer)

    def workload(ctx):
        for _ in range(3):
            # Rank-dependent imbalance plus a halo exchange.
            yield from ctx.cpu_compute(PROFILE, 1e7 * (1 + 0.2 * ctx.rank))
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            yield from ctx.comm.sendrecv(
                None, dest=right, source=left, nbytes=1e6
            )

    result = job.run(workload)
    return result, tracer.finalize(), job


def test_traced_job_replays_faster_on_ideal_network():
    result, trace, job = traced_job_run(4)
    t_ideal = ideal_network_runtime(trace, rank_to_node=job._rank_to_node)
    assert 0 < t_ideal <= result.elapsed_seconds * 1.001


def test_traced_job_efficiency_decomposition():
    result, trace, job = traced_job_run(4)
    breakdown = parallel_efficiency(trace, rank_to_node=job._rank_to_node)
    assert 0 < breakdown.efficiency <= 1.0
    assert breakdown.load_balance < 1.0  # we injected imbalance
    assert 0 < breakdown.transfer <= 1.0
    assert 0 < breakdown.serialization <= 1.0

"""Unit tests for tracing, Paraver chopping, and trace integration with jobs."""

import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.cluster import Cluster, Job
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import TraceError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.tracing import Tracer, chop_iterations, chop_window
from repro.tracing.events import (
    CommRecord,
    MarkerRecord,
    RecvRecord,
    StateRecord,
    Trace,
    match_fifo,
)
from repro.units import mib

PROFILE = WorkloadCPUProfile(name="t", working_set_per_rank_bytes=mib(4))


def test_tracer_collects_states():
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 1.0)
    tracer.record_state(1, "gpu", 0.5, 2.5)
    trace = tracer.finalize()
    assert trace.duration == 2.5
    assert trace.compute_seconds(0) == 1.0
    assert trace.compute_seconds(1) == 2.0
    assert trace.compute_seconds_all() == [1.0, 2.0]


def test_match_fifo_pairs_each_link_in_completion_order():
    # Link 0->1: sends complete in the order 1, 0, 3 and receives in the
    # order 1, 0, 3, 4, so receive 4 finds no send; link 1->0 pairs 2 with 2.
    sends = ([0, 0, 1, 0], [1, 1, 0, 1], [0.0, 0.0, 0.0, 2.0], [2.0, 1.0, 1.0, 3.0])
    recvs = ([0, 0, 1, 0, 0], [1, 1, 0, 1, 1],
             [0.5, 0.0, 0.0, 1.0, 9.0], [2.5, 1.0, 1.0, 3.0, 9.5])
    assert match_fifo(sends, recvs).tolist() == [0, 1, 2, 3, -1]
    # Exact (end, start) ties keep column order on both sides.
    tied = ([0, 0], [1, 1], [0.0, 0.0], [1.0, 1.0])
    assert match_fifo(tied, tied).tolist() == [0, 1]
    assert match_fifo(([], [], [], []), tied).tolist() == [-1, -1]


def test_tracer_rank_validation():
    tracer = Tracer(2)
    with pytest.raises(TraceError):
        tracer.record_state(5, "compute", 0.0, 1.0)
    with pytest.raises(TraceError):
        tracer.record_state(0, "compute", 2.0, 1.0)


# One entry per record path: a call that is valid on a fresh two-rank tracer.
VALID_RECORDS = {
    "state": lambda t: t.record_state(0, "compute", 0.0, 1.0),
    "comm": lambda t: t.record_comm(0, 1, 8.0, 0.0, 1.0, tag=0),
    "recv": lambda t: t.record_recv(1, 0, 8.0, 0.0, 1.0, tag=0),
    "mark": lambda t: t.mark(0, "iteration", 1.0),
}

INVALID_RECORDS = {
    "state-ends-first": lambda t: t.record_state(0, "compute", 2.0, 1.0),
    "comm-ends-first": lambda t: t.record_comm(0, 1, 8.0, 2.0, 1.0, tag=0),
    "comm-negative-bytes": lambda t: t.record_comm(0, 1, -8.0, 0.0, 1.0, tag=0),
    "recv-ends-first": lambda t: t.record_recv(1, 0, 8.0, 2.0, 1.0, tag=0),
    "recv-negative-bytes": lambda t: t.record_recv(1, 0, -8.0, 0.0, 1.0, tag=0),
    "mark-nan-time": lambda t: t.mark(0, "iteration", math.nan),
}


def _record_count(trace: Trace) -> int:
    return len(trace.states) + len(trace.comms) + len(trace.recvs) + len(trace.markers)


@pytest.mark.parametrize("path", sorted(INVALID_RECORDS))
def test_invalid_record_raises_and_is_not_kept(path):
    tracer = Tracer(2)
    with pytest.raises(TraceError):
        INVALID_RECORDS[path](tracer)
    assert _record_count(tracer.finalize()) == 0


@pytest.mark.parametrize("path", sorted(VALID_RECORDS))
def test_record_after_finalize_raises(path):
    tracer = Tracer(2)
    VALID_RECORDS[path](tracer)
    trace = tracer.finalize()
    with pytest.raises(TraceError):
        VALID_RECORDS[path](tracer)
    assert _record_count(trace) == 1


def test_compute_seconds_with_no_states_is_zero():
    tracer = Tracer(1)
    tracer.record_state(0, "compute", 0.0, 1.0)
    trace = tracer.finalize()
    assert trace.compute_seconds(0, states=()) == 0.0
    assert trace.compute_seconds(0, states=("gpu",)) == 0.0
    assert trace.compute_seconds(0) == 1.0


def test_record_views_are_read_only_and_built_on_demand():
    records = [StateRecord(0, "compute", 0.0, 1.0), StateRecord(1, "gpu", 0.5, 2.5)]
    trace = Trace(2, states=records)
    states = trace.states
    assert len(states) == 2
    assert list(states) == records
    assert states[1] == records[1] and states[-1] == records[1]
    assert states[0] is not states[0]  # built per access, never cached
    assert states == Trace(2, states=records).states
    assert states != Trace(2, states=records[:1]).states
    with pytest.raises(TypeError):
        states[0:1]
    with pytest.raises(AttributeError):
        states.append(records[0])
    with pytest.raises(TypeError):
        states.columns[2][0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.states = ()


def test_records_pickle_round_trip_keeps_read_only_columns():
    trace = run_workload("jacobi", nodes=2, traced=True).trace
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace
    for name in ("states", "comms", "recvs", "markers"):
        original, revived = getattr(trace, name), getattr(clone, name)
        assert revived.record_type is original.record_type
        assert revived.columns == original.columns
        for before, after in zip(original.columns, revived.columns):
            assert type(after) is type(before)
            assert isinstance(after, tuple) or (
                isinstance(after, memoryview) and after.readonly
            )
    # The state names are a str column: still a tuple of str.
    assert isinstance(clone.states.columns[1], tuple)
    assert all(isinstance(state, str) for state in clone.states.columns[1])
    assert len(clone.states) > 0 and len(clone.comms) > 0
    assert clone.op_table().bounds.tolist() == trace.op_table().bounds.tolist()
    with pytest.raises(TypeError):
        clone.states.columns[2][0] = 5.0


def test_op_table_is_built_once_read_only_and_not_pickled():
    trace = run_workload("jacobi", nodes=2, traced=True, use_cache=False).trace
    unbuilt = pickle.dumps(trace)
    table = trace.op_table()
    assert trace.op_table() is table
    for column in table:
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        table.seconds[0] = 1.0
    # The pickle carries the records only; the receiver rebuilds the table.
    assert pickle.dumps(trace) == unbuilt
    clone = pickle.loads(unbuilt)
    assert "_op_table" not in vars(clone)
    for built, rebuilt in zip(table, clone.op_table()):
        assert np.array_equal(built, rebuilt)


def test_traced_run_holds_no_per_event_gc_objects():
    trace = run_workload("jacobi", nodes=2, traced=True).trace
    # Walk every GC-tracked object reachable from the trace (record classes
    # are types, whose referents lead to their modules, so stop there).
    reached = {}
    frontier = [trace]
    while frontier:
        for ref in gc.get_referents(frontier.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in reached:
                reached[id(ref)] = ref
                frontier.append(ref)
    record_types = (StateRecord, CommRecord, RecvRecord, MarkerRecord)
    assert not [obj for obj in reached.values() if isinstance(obj, record_types)]
    # A few objects per column, however many records the trace holds.
    assert _record_count(trace) > 1000
    assert len(reached) < 100


def test_trace_bytes_accounting():
    tracer = Tracer(2)
    tracer.record_comm(0, 1, 1000.0, 0.0, 0.1, tag=3)
    tracer.record_comm(1, 0, 500.0, 0.2, 0.3, tag=4)
    trace = tracer.finalize()
    assert trace.bytes_sent(0) == 1000.0
    assert trace.total_network_bytes() == 1500.0


def test_rank_ops_ordering():
    tracer = Tracer(1)
    tracer.record_comm(0, 0, 10.0, 1.0, 1.1, tag=0)
    tracer.record_state(0, "compute", 0.0, 1.0)
    tracer.record_recv(0, 0, 10.0, 1.1, 1.2, tag=0)
    trace = tracer.finalize()
    ops = trace.rank_ops(0)
    assert isinstance(ops[0], StateRecord)
    assert isinstance(ops[1], CommRecord)
    assert isinstance(ops[2], RecvRecord)


def test_empty_trace_rejected():
    with pytest.raises(TraceError):
        Trace(n_ranks=0)


def test_chop_window_clips_states():
    tracer = Tracer(1)
    tracer.record_state(0, "compute", 0.0, 10.0)
    trace = tracer.finalize()
    window = chop_window(trace, 2.0, 5.0)
    assert window.duration == 3.0
    assert window.compute_seconds(0) == 3.0


def test_chop_window_empty_rejected():
    tracer = Tracer(1)
    tracer.record_state(0, "compute", 0.0, 1.0)
    with pytest.raises(TraceError):
        chop_window(tracer.finalize(), 5.0, 5.0)


def test_chop_iterations_with_markers():
    tracer = Tracer(1)
    for i in range(4):
        tracer.record_state(0, "compute", float(i), float(i) + 0.8)
        tracer.mark(0, "iteration", float(i))
    tracer.mark(0, "iteration", 4.0)
    trace = tracer.finalize()
    windows = chop_iterations(trace)
    assert len(windows) == 4
    for w in windows:
        assert w.duration == pytest.approx(1.0)
        assert w.compute_seconds(0) == pytest.approx(0.8)


def test_chop_iterations_no_markers_returns_whole():
    tracer = Tracer(1)
    tracer.record_state(0, "compute", 0.0, 5.0)
    trace = tracer.finalize()
    assert chop_iterations(trace) == [trace]


def test_job_populates_trace():
    """End to end: a traced job records states, sends, and receives."""
    spec = tx1_cluster_spec(4)
    cluster = Cluster(spec)
    tracer = Tracer(4)
    job = Job(cluster, ranks_per_node=1, tracer=tracer)

    def workload(ctx):
        yield from ctx.cpu_compute(PROFILE, 1e7)
        yield from ctx.comm.allreduce(1.0)

    job.run(workload)
    trace = tracer.finalize()
    assert all(c > 0 for c in trace.compute_seconds_all())
    assert trace.total_network_bytes() > 0
    assert len(trace.recvs) > 0
    # Every send matches a receive in a collective-only comm pattern.
    assert len(trace.comms) == len(trace.recvs)

"""Hypothesis property tests for the MPI collectives (semantic correctness
against pure-Python reference implementations, at arbitrary world sizes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ANY_SOURCE, ANY_TAG, CommWorld, Message
from repro.mpi.communicator import Mailbox
from repro.sim import Environment, Store

from tests.conftest import build_tx1_fabric


def make_world(n_ranks):
    env, fabric, _ = build_tx1_fabric((n_ranks + 3) // 4)
    mapping = [r % ((n_ranks + 3) // 4) for r in range(n_ranks)]
    world = CommWorld(env, fabric, mapping)
    return env, world


def run_ranks(env, world, rank_main):
    procs = [env.process(rank_main(c)) for c in world.communicators()]
    for proc in procs:
        env.run(until=proc)
    return [p.value for p in procs]


sizes = st.integers(min_value=2, max_value=9)
values = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=9, max_size=9)


@given(sizes, values, st.integers(min_value=0, max_value=8))
@settings(max_examples=30, deadline=None)
def test_bcast_delivers_roots_value(size, vals, root_seed):
    root = root_seed % size
    env, world = make_world(size)

    def main(comm):
        data = vals[root] if comm.rank == root else None
        out = yield from comm.bcast(data, root=root)
        return out

    assert run_ranks(env, world, main) == [vals[root]] * size


@given(sizes, values)
@settings(max_examples=30, deadline=None)
def test_allreduce_sum_matches_python(size, vals):
    env, world = make_world(size)

    def main(comm):
        out = yield from comm.allreduce(vals[comm.rank])
        return out

    expected = sum(vals[:size])
    assert run_ranks(env, world, main) == [expected] * size


@given(sizes, values)
@settings(max_examples=30, deadline=None)
def test_reduce_min_matches_python(size, vals):
    env, world = make_world(size)

    def main(comm):
        out = yield from comm.reduce(vals[comm.rank], op=min, root=0)
        return out

    results = run_ranks(env, world, main)
    assert results[0] == min(vals[:size])


@given(sizes)
@settings(max_examples=20, deadline=None)
def test_allgather_order(size):
    env, world = make_world(size)

    def main(comm):
        out = yield from comm.allgather(comm.rank * 7)
        return out

    expected = [r * 7 for r in range(size)]
    assert run_ranks(env, world, main) == [expected] * size


@given(sizes)
@settings(max_examples=20, deadline=None)
def test_alltoall_is_transpose(size):
    """Property: alltoall implements a matrix transpose of rank data."""
    env, world = make_world(size)

    def main(comm):
        row = [(comm.rank, j) for j in range(size)]
        out = yield from comm.alltoall(row)
        return out

    results = run_ranks(env, world, main)
    for receiver, got in enumerate(results):
        assert got == [(sender, receiver) for sender in range(size)]


@given(sizes, st.integers(min_value=1, max_value=64))
@settings(max_examples=20, deadline=None)
def test_numpy_allreduce_elementwise(size, length):
    env, world = make_world(size)

    def main(comm):
        vec = np.full(length, float(comm.rank + 1))
        out = yield from comm.allreduce(vec)
        return out

    results = run_ranks(env, world, main)
    expected = np.full(length, float(size * (size + 1) // 2))
    for out in results:
        np.testing.assert_allclose(out, expected)


@given(sizes, st.floats(min_value=1.0, max_value=1e8))
@settings(max_examples=20, deadline=None)
def test_large_bcast_equals_small_bcast_semantically(size, nbytes):
    """Property: the algorithm switch must never change the delivered value."""
    env, world = make_world(size)

    def main(comm):
        data = {"v": 42} if comm.rank == 1 % size else None
        out = yield from comm.bcast(data, root=1 % size, nbytes=nbytes)
        return out["v"]

    assert run_ranks(env, world, main) == [42] * size


@given(sizes)
@settings(max_examples=15, deadline=None)
def test_barrier_alignment_property(size):
    """Property: after a barrier every rank's clock >= the slowest arrival."""
    env, world = make_world(size)

    def main(comm):
        yield comm.env.timeout(float(comm.rank) * 0.5)
        yield from comm.barrier()
        return comm.env.now

    times = run_ranks(env, world, main)
    slowest_arrival = (size - 1) * 0.5
    assert all(t >= slowest_arrival - 1e-9 for t in times)


_MAILBOX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from((0, 1, 2)), st.sampled_from((0, 1))),
        st.tuples(st.just("get"), st.sampled_from((ANY_SOURCE, 0, 1, 2)),
                  st.sampled_from((ANY_TAG, 0, 1))),
        st.tuples(st.just("cancel"), st.integers(0, 7), st.just(0)),
    ),
    max_size=40,
)


@given(_MAILBOX_OPS)
@settings(max_examples=300, deadline=None)
def test_mailbox_settles_as_a_store_with_source_tag_filters(ops):
    """Reference: an unbounded Store whose gets filter by (source, tag).
    Every event must trigger at the same step, with the same value and
    the same queue key, on both."""

    def matcher(source, tag):
        return lambda m: (source == ANY_SOURCE or m.src == source) and (
            tag == ANY_TAG or m.tag == tag
        )

    sides = []
    for kind in ("store", "mailbox"):
        env = Environment()
        box = Store(env) if kind == "store" else Mailbox(env)
        events, gets = [], []
        for step, (op, a, b) in enumerate(ops):
            if op == "put":
                events.append(box.put(Message(a, 9, b, step, 8.0, 0.0)))
            elif op == "get":
                ev = box.get(filter=matcher(a, b)) if kind == "store" else box.get(a, b)
                events.append(ev)
                gets.append(ev)
            elif gets:
                box.cancel(gets[a % len(gets)])
        index = {id(ev): i for i, ev in enumerate(events)}
        sides.append((
            [(ev.triggered, ev.value if ev.triggered else None) for ev in events],
            sorted((key[:3], index[id(key[3])]) for key in env._queue),
            [m.payload for m in box.items],
        ))
    assert sides[0] == sides[1]

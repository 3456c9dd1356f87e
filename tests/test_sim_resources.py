"""Unit tests for Resource / PriorityResource / Container / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, Join, PriorityResource, Resource, Slot, Store
from repro.sim.resources import Request


# -- Resource ------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []

    def user(env, res, name, hold):
        with res.request() as req:
            yield req
            active.append((name, env.now))
            yield env.timeout(hold)

    for name, hold in [("a", 2.0), ("b", 2.0), ("c", 2.0)]:
        env.process(user(env, res, name, hold))
    env.run()
    # a and b start immediately, c waits for a slot.
    assert active == [("a", 0.0), ("b", 0.0), ("c", 2.0)]


def test_resource_release_reuses_slot():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    for name in "xyz":
        env.process(user(env, res, name))
    env.run()
    assert order == ["x", "y", "z"]
    assert res.count == 0


def test_resource_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def impatient(env, res):
        req = res.request()
        yield env.timeout(1.0)  # request still queued
        res.release(req)  # cancel it
        return "gave-up"

    env.process(holder(env, res))
    p = env.process(impatient(env, res))
    env.run()
    assert p.value == "gave-up"
    assert res.queue == []


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5.0)

    def user(env, res, name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(name)

    env.process(holder(env, res))
    env.process(user(env, res, "low", 10, 1.0))
    env.process(user(env, res, "high", 1, 2.0))  # arrives later, runs first
    env.run()
    assert order == ["high", "low"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5.0)

    def user(env, res, name, delay):
        yield env.timeout(delay)
        with res.request(priority=3) as req:
            yield req
            order.append(name)

    env.process(holder(env, res))
    env.process(user(env, res, "first", 1.0))
    env.process(user(env, res, "second", 2.0))
    env.run()
    assert order == ["first", "second"]


# -- Container ---------------------------------------------------------------------


def test_container_get_blocks_until_put():
    env = Environment()
    tank = Container(env, capacity=100.0, init=0.0)
    log = []

    def producer(env, tank):
        yield env.timeout(3.0)
        yield tank.put(10.0)

    def consumer(env, tank):
        got = yield tank.get(10.0)
        log.append((got, env.now))

    env.process(consumer(env, tank))
    env.process(producer(env, tank))
    env.run()
    assert log == [(10.0, 3.0)]
    assert tank.level == 0.0


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    log = []

    def producer(env, tank):
        yield tank.put(5.0)
        log.append(("put", env.now))

    def consumer(env, tank):
        yield env.timeout(2.0)
        yield tank.get(7.0)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert log == [("put", 2.0)]
    assert tank.level == 8.0


def test_container_init_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=5.0, init=6.0)
    with pytest.raises(SimulationError):
        Container(env, capacity=0.0)


def test_container_negative_amounts_rejected():
    env = Environment()
    tank = Container(env, capacity=5.0)
    with pytest.raises(SimulationError):
        tank.put(-1.0)
    with pytest.raises(SimulationError):
        tank.get(-1.0)


# -- Store ------------------------------------------------------------------------


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for item in ("m1", "m2", "m3"):
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert [item for item, _ in got] == ["m1", "m2", "m3"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env, store):
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [("late", 4.0)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env, store):
        yield store.put("a")
        yield store.put("b")
        log.append(("b-in", env.now))

    def consumer(env, store):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert log == [("b-in", 5.0)]


def test_store_filter_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        yield store.put({"tag": 1, "body": "one"})
        yield store.put({"tag": 2, "body": "two"})

    def consumer(env, store):
        msg = yield store.get(filter=lambda m: m["tag"] == 2)
        got.append(msg["body"])
        msg = yield store.get()
        got.append(msg["body"])

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == ["two", "one"]


def test_store_put_hands_item_to_first_matching_waiting_getter():
    env = Environment()
    store = Store(env)
    odd = store.get(filter=lambda n: n % 2)
    even_a = store.get(filter=lambda n: n % 2 == 0)
    even_b = store.get(filter=lambda n: n % 2 == 0)
    store.put(4)
    assert even_a.triggered and not even_b.triggered and not odd.triggered
    store.put(7)
    assert odd.triggered and store.items == []
    store.put(5)  # no waiting getter matches: it queues
    assert store.items == [5] and not even_b.triggered
    late = store.get()
    env.run()
    assert (odd.value, even_a.value, late.value) == (7, 4, 5)
    assert store.items == [] and not even_b.triggered


def test_store_multiple_consumers_each_get_one():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store, name):
        item = yield store.get()
        got.append((name, item))

    def producer(env, store):
        yield env.timeout(1.0)
        yield store.put("i1")
        yield store.put("i2")

    env.process(consumer(env, store, "c1"))
    env.process(consumer(env, store, "c2"))
    env.process(producer(env, store))
    env.run()
    assert sorted(item for _, item in got) == ["i1", "i2"]


def test_store_cancel_withdraws_pending_getter():
    """A cancelled getter must not swallow a later put (timed-recv support)."""
    env = Environment()
    store = Store(env)
    received = []

    def impatient(env, store):
        ev = store.get()
        yield env.timeout(1.0)
        assert not ev.triggered
        store.cancel(ev)

    def patient(env, store):
        item = yield store.get()
        received.append(item)

    def producer(env, store):
        yield env.timeout(2.0)
        yield store.put("only-item")

    env.process(impatient(env, store))
    env.process(patient(env, store))
    env.process(producer(env, store))
    env.run()
    assert received == ["only-item"]


def test_store_cancel_fired_event_is_noop():
    env = Environment()
    store = Store(env)
    store.put("x")
    ev = store.get()
    env.run()
    assert ev.value == "x"
    store.cancel(ev)  # already fired: must not raise or corrupt state
    assert store.items == []


def test_priority_resource_rejects_plain_request():
    # An explicit check rather than an assert, so it also holds under -O.
    env = Environment()
    res = PriorityResource(env, capacity=1)
    with pytest.raises(SimulationError, match="PriorityRequest"):
        Request(res)


def test_resource_request_granted_immediately_when_free():
    env = Environment()
    res = Resource(env, capacity=2)
    first = res.request()
    second = res.request()
    third = res.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert res.queue == [third]
    res.release(first)
    assert third.triggered
    assert res.users == [second, third]


def _granted_log(env, log, name):
    return Join(env, 1, lambda j: log.append((name, env.now)))


def test_slot_grants_claims_fifo_by_scheduling_them():
    env = Environment()
    slot = Slot(env)
    log = []
    first, second, third = (_granted_log(env, log, n) for n in ("a", "b", "c"))
    for claim in (first, second, third):
        slot.claim(claim)
    assert slot.holder is first and list(slot.waiters) == [second, third]
    env.run()
    assert log == [("a", 0.0)]
    env.run(until=1.0)
    slot.release(first)
    assert slot.holder is second and list(slot.waiters) == [third]
    env.run()
    assert log == [("a", 0.0), ("b", 1.0)]


def test_slot_release_withdraws_a_waiting_claim():
    env = Environment()
    slot = Slot(env)
    log = []
    first, second, third = (_granted_log(env, log, n) for n in ("a", "b", "c"))
    for claim in (first, second, third):
        slot.claim(claim)
    slot.release(second)
    assert list(slot.waiters) == [third]
    slot.release(first)
    slot.release(third)
    assert slot.holder is None and not slot.waiters
    env.run()
    # The claims granted and released before popping still pop.
    assert [name for name, _ in log] == ["a", "c"]

"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import SimulationError
from repro.mpi import RetryPolicy
from repro.sim import AllOf, AnyOf, Environment, Event, FirstOf, Interrupt, Join, Timeout
from repro.telemetry import Telemetry
from repro.workloads import make_workload


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_time():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(1.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [1.5]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    stamps = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            stamps.append(env.now)

    env.process(proc(env))
    env.run()
    assert stamps == [1.0, 3.0, 6.0]


def test_parallel_processes_interleave():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc(env, "slow", 2.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == [("fast", 1.0), ("slow", 2.0)]


def test_run_until_time_stops_early():
    env = Environment()
    seen = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(proc(env))
    env.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert env.now == 3.5
    # The first event past the deadline stays queued for the next run.
    assert env.peek() == 4.0
    env.run()
    assert seen == [float(t) for t in range(1, 11)]


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 5.0))
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42
    assert env.now == 2.0


def test_process_waits_on_process():
    env = Environment()
    result = []

    def child(env):
        yield env.timeout(3.0)
        return "child-done"

    def parent(env):
        value = yield env.process(child(env))
        result.append((value, env.now))

    env.process(parent(env))
    env.run()
    assert result == [("child-done", 3.0)]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_exception_caught_by_waiter_is_defused():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["boom"]


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    log = []

    def opener(env, gate):
        yield env.timeout(5.0)
        gate.succeed("open")

    def waiter(env, gate):
        value = yield gate
        log.append((value, env.now))

    env.process(opener(env, gate))
    env.process(waiter(env, gate))
    env.run()
    assert log == [("open", 5.0)]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_allof_waits_for_all():
    env = Environment()
    log = []

    def waiter(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(4.0, value="b")
        results = yield AllOf(env, [t1, t2])
        log.append((sorted(results.values()), env.now))

    env.process(waiter(env))
    env.run()
    assert log == [(["a", "b"], 4.0)]


def test_anyof_fires_on_first():
    env = Environment()
    log = []

    def waiter(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(9.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        log.append((list(results.values()), env.now))

    env.process(waiter(env))
    env.run()
    assert log == [(["fast"], 1.0)]


def test_empty_allof_fires_immediately():
    env = Environment()
    log = []

    def waiter(env):
        yield env.all_of([])
        log.append(env.now)

    env.process(waiter(env))
    env.run()
    assert log == [0.0]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((intr.cause, env.now))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("wake up", 2.0)]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_needs_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_active_process_visibility():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    # The Timeout constructor schedules itself.
    assert env.peek() == 7.0


def test_peek_empty_queue_is_inf():
    env = Environment()
    env.run()
    assert env.peek() == float("inf")


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_without_events_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return {"answer": 42}

    p = env.process(proc(env))
    env.run()
    assert p.value == {"answer": 42}
    assert p.ok


# -- failed events surface their original exception (fault-path guards) --------


class _BoomError(Exception):
    pass


def test_run_until_failed_process_raises_original_exception():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise _BoomError("original cause")

    proc = env.process(boom(env))
    with pytest.raises(_BoomError, match="original cause"):
        env.run(until=proc)


def test_free_run_surfaces_undefused_failure():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise _BoomError("nobody caught me")

    env.process(boom(env))
    with pytest.raises(_BoomError, match="nobody caught me"):
        env.run()


def test_run_until_time_surfaces_failure_before_deadline():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise _BoomError("mid-run failure")

    env.process(boom(env))
    with pytest.raises(_BoomError, match="mid-run failure"):
        env.run(until=10.0)


def test_run_until_failed_event_raises_fail_value():
    env = Environment()
    event = env.event()

    def failer(env, event):
        yield env.timeout(0.5)
        event.fail(_BoomError("typed failure"))

    env.process(failer(env, event))
    with pytest.raises(_BoomError, match="typed failure"):
        env.run(until=event)


def test_defused_failure_does_not_resurface():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise _BoomError("handled")

    def catcher(env, target):
        try:
            yield target
        except _BoomError:
            return "caught"

    target = env.process(boom(env))
    proc = env.process(catcher(env, target))
    assert env.run(until=proc) == "caught"
    env.run()  # nothing left to raise


# -- Process.throw: typed exception delivery (fault injection) ------------------


def test_throw_delivers_typed_exception():
    env = Environment()
    seen = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except _BoomError as exc:
            seen.append((str(exc), env.now))

    def killer(env, proc):
        yield env.timeout(2.0)
        proc.throw(_BoomError("injected"))

    proc = env.process(victim(env))
    env.process(killer(env, proc))
    env.run()
    assert seen == [("injected", 2.0)]


def test_throw_requires_exception_instance():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    proc = env.process(victim(env))
    with pytest.raises(SimulationError, match="needs an exception"):
        proc.throw("not an exception")


def test_throw_into_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError, match="finished"):
        proc.throw(_BoomError("too late"))


def test_trigger_from_untriggered_source_raises_naming_both():
    env = Environment()
    target = Event(env)
    source = Event(env)
    with pytest.raises(SimulationError) as err:
        target.trigger(source)
    message = str(err.value)
    assert "untriggered source" in message
    assert repr(target) in message and repr(source) in message
    # The target is untouched and still usable afterwards.
    assert not target.triggered
    target.succeed("ok")
    assert target.value == "ok"


def test_trigger_from_triggered_source_copies_state():
    env = Environment()
    source = Event(env).succeed(None)
    target = Event(env)
    target.trigger(source)
    # A None value must propagate as a real value, not as "pending":
    # the state machine is explicit, never inferred from the payload.
    assert target.triggered
    assert target.value is None


def test_triggered_state_is_explicit_for_none_values():
    env = Environment()
    ev = Event(env)
    assert not ev.triggered
    ev.succeed(None)
    assert ev.triggered
    with pytest.raises(SimulationError):
        ev.succeed(None)
    assert Timeout(env, 0.0, None).triggered


def test_event_scheduled_twice_raises_simulation_error():
    env = Environment()
    ev = Event(env).succeed("once")
    env.schedule(ev)  # the public scheduler queues it a second time
    env.step()
    assert ev.processed
    # A plain check, not an assert: it must hold under ``python -O`` too.
    with pytest.raises(SimulationError) as err:
        env.step()
    assert repr(ev) in str(err.value)
    # run() dispatches inline and keeps the same check.
    env = Environment()
    ev = Event(env).succeed("once")
    env.schedule(ev)
    with pytest.raises(SimulationError, match="scheduled after it was processed"):
        env.run()


def test_run_until_already_failed_event_raises_and_defuses():
    env = Environment()
    event = env.event()
    event.fail(_BoomError("already failed"))
    with pytest.raises(_BoomError):
        env.run()  # nobody handled it, so the free run surfaces it
    assert event.processed and not event._defused
    # Same outcome as when the failure fires during the run: the exception.
    with pytest.raises(_BoomError, match="already failed"):
        env.run(until=event)
    assert event._defused


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    event = env.event().succeed("done")
    env.run()
    assert env.run(until=event) == "done"


def test_timeout_rejects_nan_delay():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))
    assert env.peek() == float("inf")


@pytest.mark.parametrize("delay", [-3.0, float("nan")])
def test_schedule_rejects_negative_and_nan_delay(delay):
    env = Environment()
    env.run(until=5.0)
    ev = Event(env)
    ev._triggered = True
    with pytest.raises(SimulationError):
        env.schedule(ev, delay=delay)
    env.run()
    # Time never runs backwards.
    assert env.now == 5.0


def test_run_until_nan_time_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))


def test_non_event_yield_fails_process_even_if_generator_catches():
    env = Environment()
    closed = []

    def stubborn(env):
        try:
            yield 42
        except SimulationError:
            yield env.timeout(1.0)  # would be orphaned if resumed by throw()
        finally:
            closed.append(env.now)

    proc = env.process(stubborn(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=proc)
    assert not proc.is_alive
    assert not proc.ok
    assert closed == [0.0]



# -- conditions detach from the components they stop waiting on ----------------


class _Boom(Exception):
    pass


def _waiting_conditions(event):
    """The conditions whose ``_check`` is still on *event*'s callbacks."""
    return [cb.__self__ for cb in event.callbacks
            if isinstance(getattr(cb, "__self__", None), (AnyOf, AllOf))]


def test_anyof_detaches_from_its_pending_timeout():
    env = Environment()
    message = env.event()
    timer = env.timeout(5.0)
    cond = AnyOf(env, [message, timer])
    message.succeed("payload")
    assert env.run(until=cond) == {message: "payload"}
    assert _waiting_conditions(timer) == []
    # The stale timer still pops on schedule, with nothing left to call.
    env.run()
    assert timer.processed and env.now == 5.0


def test_failed_allof_detaches_from_pending_components():
    env = Environment()
    failing = env.event()
    pending = env.timeout(5.0)
    cond = AllOf(env, [failing, pending])
    failing.fail(_Boom("down"))
    with pytest.raises(_Boom):
        env.run(until=cond)
    assert _waiting_conditions(pending) == []


def test_condition_decided_in_init_attaches_to_nothing_pending():
    env = Environment()
    before = env.timeout(5.0)
    done = env.event()
    done.succeed("x")
    env.run(until=done)
    after = env.event()
    cond = AnyOf(env, [before, done, after])
    assert cond.triggered
    # Attached before the decision, then detached; never attached after it.
    assert _waiting_conditions(before) == []
    assert after.callbacks == []
    assert env.run(until=cond) == {done: "x"}


def test_failure_after_detach_still_surfaces_from_run():
    env = Environment()
    timer = env.timeout(1.0)
    late = env.event()
    cond = AnyOf(env, [timer, late])
    env.run(until=cond)
    assert late.callbacks == []
    late.fail(_Boom("nobody listens"))
    with pytest.raises(_Boom, match="nobody listens"):
        env.run()


def test_timed_receives_leave_no_condition_for_the_collector():
    """A retry-policy job times every receive; none of its conditions may
    outlive the receive in a reference cycle only the collector breaks."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cluster = Cluster(tx1_cluster_spec(2, "10G"))
        result = make_workload("jacobi", n=512, iterations=5).run_on(
            cluster, retry=RetryPolicy(timeout=1.0)
        )
        assert result.elapsed_seconds > 0 and not result.failures
        del cluster, result
        gc.collect()
        stranded = sum(isinstance(obj, AnyOf) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert stranded == 0


def test_timed_receives_leave_one_queue_entry_per_deadline_chain():
    """A fault-free cg under a retry policy: the message wins every timed
    receive, and no stale deadline waits in the queue beside the ranks."""
    cluster = Cluster(tx1_cluster_spec(2, "10G"))
    result = make_workload("cg").run_on(cluster, retry=RetryPolicy(timeout=1.0))
    assert not result.failures
    ranks = len(result.rank_values)
    # One retry timeout, so one deadline chain.
    assert len(cluster.env._queue) <= ranks + 1


# -- first_of: a timed wait on a deadline chain ---------------------------------


def test_first_of_event_wins_and_the_stale_deadline_still_pops():
    env = Environment()
    message = env.event()
    wait = env.first_of(message, 5.0)
    assert isinstance(wait, FirstOf)
    message.succeed("payload")
    assert env.run(until=wait) == "payload"
    assert env.now == 0.0 and message.callbacks is None
    # The deadline's record pops on schedule, with nothing left to decide.
    assert env.peek() == 5.0
    env.run()
    assert env.now == 5.0


def test_first_of_deadline_wins_and_detaches_from_the_event():
    env = Environment()
    message = env.event()
    wait = env.first_of(message, 2.0)
    assert env.run(until=wait) is None
    assert env.now == 2.0 and not message.triggered
    assert message.callbacks == []


def test_first_of_takes_a_failure_and_defuses_it():
    env = Environment()
    message = env.event()
    wait = env.first_of(message, 2.0)
    message.fail(_Boom("lost"))
    with pytest.raises(_Boom, match="lost"):
        env.run(until=wait)
    env.run()  # the event's failure was delivered, so nothing resurfaces
    assert env.now == 2.0


def test_first_of_on_a_processed_event_is_decided_at_once():
    env = Environment()
    done = env.event()
    done.succeed("x")
    env.run(until=done)
    wait = env.first_of(done, 1.0)
    assert wait.triggered
    assert env.run(until=wait) == "x"
    env.run()
    assert env.now == 1.0


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_first_of_rejects_negative_and_nan_delay(delay):
    env = Environment()
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        env.first_of(env.event(), delay)


def test_first_of_rejects_an_event_from_another_environment():
    with pytest.raises(SimulationError, match="mixes environments"):
        Environment().first_of(Environment().event(), 1.0)


def test_first_of_queues_one_entry_per_delay():
    env = Environment()
    for step in range(50):
        for delay in (3.0, 4.0):
            message = env.event()
            env.first_of(message, delay)
            message.succeed(step)
        env.run(until=env.timeout(0.01))
    # 100 pending deadlines, two chains, two queue entries.
    assert len(env._queue) == 2
    env.run()
    assert env.now == pytest.approx(0.49 + 4.0)


def test_first_of_keeps_no_payload_alive_until_its_deadline():
    class Payload:
        pass

    env = Environment()
    message = env.event()
    wait = env.first_of(message, 5.0)
    payload = Payload()
    alive = weakref.ref(payload)
    message.succeed(payload)
    env.run(until=wait)
    del payload, message, wait
    assert env.peek() == 5.0  # the deadline is still pending ...
    assert alive() is None  # ... and holds nothing of the receive


# Half-second steps make same-instant ties between the event, the deadline,
# other deadlines and plain timeouts common.
_INSTANT = st.integers(0, 8).map(lambda k: k / 2)
_WAITER = st.tuples(
    _INSTANT,  # the waiter starts its timed wait at
    st.none() | _INSTANT,  # the event fires at (None: never)
    st.sampled_from((0.0, 0.5, 1.0, 2.5)),  # the wait's delay
    st.booleans(),  # the event fails instead of succeeding
    st.none() | _INSTANT,  # the waiter is interrupted at (None: never)
)


def _race(specs, timed_wait):
    """Run one waiter per spec, each waiting with ``timed_wait(env, ev, d)``.

    Returns the log of every callback and resumption, the final clock and
    the number of events processed, with the queue drained.
    """
    env = Environment()
    telemetry = Telemetry()
    env.set_telemetry(telemetry)
    log = []

    def fire(i, event, at, fails):
        yield env.timeout(at)
        if fails:
            event.fail(_Boom(i))
        else:
            event.succeed(i)

    def waiter(i, event, start, delay):
        try:
            yield env.timeout(start)
            wait = timed_wait(env, event, delay)
            wait.callbacks.append(lambda _: log.append(("decided", i, env.now)))
            try:
                yield wait
            except _Boom as exc:
                log.append(("failed", i, env.now, exc.args))
            else:
                outcome = None
                if event.processed:
                    outcome = event.value if event.ok else event.value.args
                log.append(("resumed", i, env.now, event.triggered, outcome))
            # A plain timeout of the same delay, queued among the deadlines.
            yield env.timeout(delay)
            log.append(("slept", i, env.now))
        except Interrupt:
            log.append(("interrupted", i, env.now))

    def interrupt(proc, at):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt()

    for i, (start, fires_at, delay, fails, interrupted_at) in enumerate(specs):
        event = env.event()
        event.callbacks.append(lambda _, i=i: log.append(("event", i, env.now)))
        if fires_at is not None:
            env.process(fire(i, event, fires_at, fails))
        proc = env.process(waiter(i, event, start, delay))
        if interrupted_at is not None:
            env.process(interrupt(proc, interrupted_at))
    while True:
        try:
            env.run()
            break
        except _Boom as exc:  # a failure whose waiter had stopped waiting
            log.append(("raised", env.now, exc.args))
    events = telemetry.registry.counter("sim_events_processed_total").value()
    return log, env.now, events, len(env._queue)


@given(st.lists(_WAITER, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_first_of_is_any_of_with_a_timeout(specs):
    """``first_of(ev, d)`` and ``any_of([ev, timeout(d)])`` are one schedule:
    same callback order, clock, event count and outcomes, to the drained
    queue."""
    chained = _race(specs, lambda env, ev, d: env.first_of(ev, d))
    queued = _race(specs, lambda env, ev, d: env.any_of([ev, env.timeout(d)]))
    assert chained == queued


# -- join: an AllOf whose components are pops of itself -------------------------


def test_join_pops_once_per_arrival_then_once_more():
    env = Environment()
    calls = []
    join = Join(env, 2, lambda j: calls.append((j, env.now)))
    env.schedule(join, 1.0)
    env.schedule(join, 2.0)
    env.run()
    # Two arrival pops and the join's own: the entries of AllOf([a, b]).
    assert calls == [(join, 2.0)]
    assert env._eid == 3 and join.processed


def test_join_queued_twice_at_one_instant_re_arms_between_pops():
    env = Environment()
    calls = []
    join = Join(env, 2, lambda j: calls.append(env.now))
    env.schedule(join)
    env.schedule(join)
    env.run()
    assert calls == [0.0] and env._eid == 3


def test_a_cancelled_join_still_pops_every_entry_and_calls_nothing():
    env = Environment()
    calls = []
    join = Join(env, 2, lambda j: calls.append(env.now))
    env.schedule(join)
    env.run()
    join.cancel()
    env.schedule(join, 1.0)
    env.run()
    assert calls == [] and env._eid == 3 and env.now == 1.0

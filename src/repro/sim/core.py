"""Event loop, events, and generator-driven processes.

The design follows SimPy's semantics closely enough that anyone familiar with
SimPy can read the workload code, but it is a from-scratch implementation kept
small and fully under test:

* :class:`Environment` owns virtual time and a priority queue of events.
* :class:`Event` is a one-shot occurrence with a value or an exception.
* :class:`Process` wraps a generator; the generator ``yield``\\ s events and is
  resumed with the event's value (or the event's exception is thrown into it).
* :class:`Timeout` fires after a fixed delay.
* :class:`AllOf` / :class:`AnyOf` compose events.
* :class:`FirstOf` waits on one event with a deadline, timed by a deadline
  chain instead of a queued :class:`Timeout`.
* :class:`Join` is an ``AllOf`` whose components are pops of itself: one
  re-armed event instead of one event per component.
* :meth:`Process.interrupt` throws :class:`Interrupt` into a waiting process.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError

# Scheduling priorities: URGENT events (resource bookkeeping) run before
# NORMAL events scheduled for the same instant.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event moves through three states: *untriggered* → *triggered*
    (``succeed``/``fail`` called, value decided, event queued) → *processed*
    (callbacks ran).  Processes wait on events by ``yield``-ing them.
    """

    # Events are the hottest allocation in the kernel; slots keep them
    # dict-free.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_triggered")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # Explicit, not inferred from ``_value is not _PENDING``: a value
        # that aliased the sentinel's "pending" meaning (None, historically)
        # must not flip the state machine.
        self._triggered: bool = False
        # Set True when a failed event's exception was delivered somewhere.
        self._defused: bool = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Inlined ``env.schedule(self)``: same eid, same queue entry.
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (callback helper)."""
        if not event._triggered:
            # Copying state from an untriggered source would silently
            # succeed *self* with the pending sentinel as its value.
            raise SimulationError(
                f"cannot trigger {self!r} from untriggered source {event!r}"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` rather than ``<``: NaN compares false both ways and a
        # NaN timestamp would corrupt the queue's ordering.
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # Triggered at birth: the value is decided and the event queued.
        # ``_triggered`` is set explicitly — a ``value`` of ``None`` must
        # not leave the state machine guessing from the sentinel.  Fields
        # are set here, not via ``Event.__init__``, to spare one call on
        # one of the kernel's most frequent allocations.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and drives it by the events it yields.

    A process is itself an event that triggers when the generator returns
    (value = the ``return`` value) or raises (failure).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process() needs a generator, got {generator!r}")
        # Event fields set inline, as in Timeout: every isend and irecv
        # starts a process, so the super().__init__ call is worth sparing.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._triggered = False
        self._defused = False
        self._generator = generator
        self._target: Event | None = None
        # Kick off the process at the current time.
        init = Event(env)
        init._value = None
        init._triggered = True
        init.callbacks = [self._resume]
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, init))

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting on (None if running/done)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        self.throw(Interrupt(cause))

    def throw(self, exception: BaseException) -> None:
        """Throw an arbitrary *exception* into the process at the current time.

        The fault-injection layer uses this to deliver typed failures (e.g.
        :class:`repro.errors.NodeFailure`) into rank generators; plain
        cooperative wake-ups should prefer :meth:`interrupt`.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"throw() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via a little failed event so ordering goes through the queue.
        hit = Event(self.env)
        hit._ok = False
        hit._value = exception
        hit._triggered = True
        hit._defused = True
        hit.callbacks = [self._resume]
        self.env.schedule(hit, priority=URGENT)

    # -- engine -----------------------------------------------------------------

    def _finish_failed(self, exception: BaseException) -> None:
        """Trigger this process as failed with *exception*, URGENT."""
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, self))

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        # Detach from the event we were waiting on (interrupt case).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._value = stop.value
                self._triggered = True
                env._eid += 1
                heappush(env._queue, (env._now, URGENT, env._eid, self))
                return
            except BaseException as exc:
                env._active_process = None
                self._finish_failed(exc)
                return

            if not isinstance(next_event, Event):
                # Closing, not throwing: a generator that caught a thrown
                # error could yield again, and nothing would ever resume it.
                env._active_process = None
                generator.close()
                self._finish_failed(
                    SimulationError(f"process yielded a non-event: {next_event!r}")
                )
                return
            if next_event.env is not env:
                env._active_process = None
                raise SimulationError("yielded an event from a different environment")

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Not yet processed: park until it fires.
                callbacks.append(self._resume)
                self._target = next_event
                env._active_process = None
                return
            # Already processed: feed its value straight back in.
            event = next_event


class _Condition(Event):
    """Base for AllOf / AnyOf.

    Triggered-state is tracked explicitly by :class:`Event` — ``_check``
    must consult ``self._triggered`` (not the value sentinel) so component
    values that alias the pending sentinel's old ``None`` behaviour cannot
    re-trigger a decided condition.

    Once decided, a condition takes its ``_check`` off every component still
    pending (SimPy's ``_remove_check_callbacks``).  A timed receive's timer
    would otherwise hold the condition, the matched message and its payload
    until it fires.  The timer stays queued and pops at the same instant with
    the same eid, so the event sequence is unchanged.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
        self._done = 0
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
                if self._triggered:
                    break
            else:
                ev.callbacks.append(self._check)

    def _detach(self) -> None:
        """Remove ``_check`` from every component that is still pending."""
        check = self._check
        for ev in self._events:
            callbacks = ev.callbacks
            if callbacks:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._triggered and ev.callbacks is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.trigger(event)
            self._detach()
            return
        self._done += 1
        if self._done == len(self._events):
            # Every component has been processed: nothing to detach from.
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when any component event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self.trigger(event) if not event._ok else self.succeed(self._collect())
        self._detach()


class FirstOf(Event):
    """Fires when *event* is processed or *delay* elapses, whichever is first.

    Equivalent to ``AnyOf([event, Timeout(delay)])`` in event order, event
    count and outcome, but its timer is not a queued :class:`Timeout`: it is
    a ``[when, eid, wait]`` record in the environment's deadline chain for
    *delay*, taking the eid the timer would have taken.  If *event* wins,
    the wait succeeds with its value (or fails with its exception); if the
    deadline wins, it succeeds with ``None`` while *event* is still
    pending.  A decided wait drops its references to *event* and to its
    record, so a stale record holds nothing alive.
    """

    __slots__ = ("_event", "_record")

    def __init__(self, env: "Environment", event: Event, delay: float) -> None:
        if event.env is not env:
            raise SimulationError("condition mixes environments")
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # Fields set inline, as in Timeout: one wait per timed receive.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._triggered = False
        self._defused = False
        env._eid += 1
        record = [env._now + delay, env._eid, self]
        self._record = record
        chain = env._chains.get(delay)
        if chain is None:
            chain = env._chains[delay] = _DeadlineChain(env)
        chain._add(record)
        callbacks = event.callbacks
        if callbacks is None:
            self._event = None
            self._decide(event)
        else:
            self._event = event
            callbacks.append(self._decide)

    def _decide(self, event: Event) -> None:
        """*event* was processed first: take its outcome."""
        self._event = None
        self._record[2] = None
        self._record = None
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def _expire(self) -> None:
        """The deadline came first: stop waiting on the event, and succeed."""
        self._event.callbacks.remove(self._decide)
        self._event = None
        self._record = None
        self.succeed(None)


class _DeadlineChain(Event):
    """The FIFO of :class:`FirstOf` deadlines for one delay.

    With one delay, ``now + delay`` never decreases and eids only grow, so
    the records' ``(when, eid)`` keys are strictly increasing.  Only the
    head sits in the environment's queue, under exactly the
    ``(when, NORMAL, eid)`` key its :class:`Timeout` would have had, so the
    queue pops the same global sequence.  Each record pops as one event
    when it becomes the head, decided or stale, as a timer would.
    """

    __slots__ = ("_records", "_armed")

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._triggered = True
        self._records: deque[list] = deque()
        # The loop clears ``callbacks`` before calling them; ``_fire``
        # re-arms with this list for the next head.
        self._armed = [self._fire]
        self.callbacks = self._armed

    def _add(self, record: list) -> None:
        records = self._records
        records.append(record)
        if len(records) == 1:
            heappush(self.env._queue, (record[0], NORMAL, record[1], self))

    def _fire(self, _chain: Event) -> None:
        records = self._records
        wait = records.popleft()[2]
        if wait is not None:
            wait._expire()
        self.callbacks = self._armed
        if records:
            head = records[0]
            heappush(self.env._queue, (head[0], NORMAL, head[1], self))


class Join(Event):
    """An ``AllOf`` over *n* grants whose components are pops of the join.

    Whoever grants an arrival (a :class:`~repro.sim.resources.Slot`)
    schedules the join itself at the current time, under the eid the
    component's ``succeed`` would have taken.  Each such pop counts one
    arrival, as ``AllOf._check`` counts a processed component; the *n*-th
    schedules the join once more, as ``AllOf`` queues its own success, and
    that last pop calls ``callback(join)``.  Between pops the join re-arms
    its callbacks, as :class:`_DeadlineChain` does, so it may sit in the
    queue under several entries at once.

    :meth:`cancel` drops the callback.  The entries already queued still
    pop and count, and the last one calls nothing: the queue sees the same
    entries as from a condition nobody waits on any more.
    """

    __slots__ = ("_left", "_callback", "_armed")

    def __init__(self, env: "Environment", n: int, callback: Callable[["Join"], None]) -> None:
        self.env = env
        self._value = None
        self._ok = True
        self._triggered = True
        self._defused = False
        self._left = n
        self._callback: Callable[[Join], None] | None = callback
        # Unbound, so the join's pops hold no reference back to the join.
        self._armed = [Join._pop]
        self.callbacks = self._armed

    def cancel(self) -> None:
        """Call nothing on the last pop; the queued entries still pop."""
        self._callback = None

    def _pop(self) -> None:
        left = self._left
        if left:
            self._left = left = left - 1
            self.callbacks = self._armed
            if not left:
                self.env.schedule(self)
            return
        callback = self._callback
        if callback is not None:
            self._callback = None
            callback(self)


class Environment:
    """Owns virtual time and executes events in timestamp order."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        # Deadline chains of FirstOf waits, one per distinct delay.
        self._chains: dict[float, _DeadlineChain] = {}
        self._active_process: Process | None = None
        # Telemetry hooks: None when disabled, so the hot loops pay a single
        # identity check per event (see repro.telemetry).
        self._events_counter = None
        self._procs_counter = None

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink counting kernel activity.

        Accepts any object with the :class:`repro.telemetry.Telemetry`
        surface; ``None`` or a disabled sink detaches (the default state).
        The kernel itself stays import-free of the telemetry package.
        """
        if telemetry is None or not getattr(telemetry, "enabled", False):
            self._events_counter = None
            self._procs_counter = None
            return
        telemetry.bind_env(self)
        self._events_counter = telemetry.counter(
            "sim_events_processed_total",
            "events executed by the discrete-event kernel",
        )
        self._procs_counter = telemetry.counter(
            "sim_processes_started_total",
            "generator processes spawned on this environment",
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories --------------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process driving *generator*."""
        if self._procs_counter is not None:
            self._procs_counter.inc()
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all *events* have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of *events* triggers."""
        return AnyOf(self, events)

    def first_of(self, event: Event, delay: float) -> FirstOf:
        """Event that fires when *event* does or *delay* elapses, first wins."""
        return FirstOf(self, event, delay)

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event *delay* seconds from now.

        The public, checked entry point.  The kernel's own triggers push
        their ``(time, priority, eid, event)`` entries directly, with the
        same ``_eid`` increments this method makes.
        """
        if not delay >= 0:
            # Also rejects NaN, which compares false both ways.
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heappop(self._queue)
        self._now = when
        if self._events_counter is not None:
            self._events_counter.inc()
        callbacks = event.callbacks
        if callbacks is None:
            # An explicit check, not an assert: ``python -O`` strips asserts
            # and a doubly scheduled event must still fail inside the
            # ReproError taxonomy.
            raise SimulationError(f"{event!r} was scheduled after it was processed")
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, time *until*, or event *until* fires.

        Returns the event's value when *until* is an event, and raises its
        exception (marking it handled) when that event failed.
        """
        stop_at = float("inf")
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return _outcome(stop_event)
        elif until is not None:
            stop_at = float(until)
            if not stop_at >= self._now:
                raise SimulationError(f"until={stop_at} is in the past (now={self._now})")
        # One inlined copy of step() serving all three modes; the names the
        # loop touches per event are bound once here.
        queue = self._queue
        pop = heappop
        inc = self._events_counter.inc if self._events_counter is not None else None
        while queue:
            when, prio, eid, event = pop(queue)
            if when > stop_at:
                heappush(queue, (when, prio, eid, event))
                break
            self._now = when
            if inc is not None:
                inc()
            callbacks = event.callbacks
            if callbacks is None:
                raise SimulationError(f"{event!r} was scheduled after it was processed")
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event is stop_event:
                return _outcome(event)
            if not event._ok and not event._defused:
                raise event._value
        if stop_event is not None:
            raise SimulationError("event queue drained before the until-event fired")
        if until is not None:
            self._now = stop_at
        return None


def _outcome(event: Event) -> Any:
    """A processed event's value, or its exception raised (and defused)."""
    if event._ok:
        return event._value
    event._defused = True
    raise event._value

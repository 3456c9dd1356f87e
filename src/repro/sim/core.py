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
* :meth:`Process.interrupt` throws :class:`Interrupt` into a waiting process.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
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
        self.env.schedule(self)
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
        self.env.schedule(self)
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
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        # Triggered at birth: the value is decided and the event queued.
        # ``_triggered`` is set explicitly — a ``value`` of ``None`` must
        # not leave the state machine guessing from the sentinel.
        self._ok = True
        self._value = value
        self._triggered = True
        env.schedule(self, delay=delay)

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
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Kick off the process at the current time.
        init = Event(env)
        init._ok = True
        init._value = None
        init._triggered = True
        init.callbacks = [self._resume]
        env.schedule(init, priority=URGENT)

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

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._ok = True
                self._value = stop.value
                self._triggered = True
                env.schedule(self, priority=URGENT)
                return
            except BaseException as exc:
                env._active_process = None
                self._ok = False
                self._value = exc
                self._triggered = True
                env.schedule(self, priority=URGENT)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                self._generator.throw(
                    SimulationError(f"process yielded a non-event: {next_event!r}")
                )
                return
            if next_event.env is not env:
                env._active_process = None
                raise SimulationError("yielded an event from a different environment")

            if next_event.callbacks is not None:
                # Not yet processed: park until it fires.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                env._active_process = None
                return
            # Already processed: feed its value straight back in.
            event = next_event


class _Condition(Event):
    """Base for AllOf / AnyOf.

    Triggered-state is tracked explicitly by :class:`Event` — ``_check``
    must consult ``self.triggered`` (not the value sentinel) so component
    values that alias the pending sentinel's old ``None`` behaviour cannot
    re-trigger a decided condition.
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
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._triggered and ev.callbacks is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.trigger(event)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when any component event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self.trigger(event) if not event._ok else self.succeed(self._collect())


class Environment:
    """Owns virtual time and executes events in timestamp order."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
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

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event *delay* seconds from now."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heapq.heappop(self._queue)
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

        Returns the event's value when *until* is an event.
        """
        stop_at: float | None = None
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event._value if stop_event._ok else None
            done = []
            stop_event.callbacks.append(lambda ev: done.append(ev))
            while self._queue and not done:
                self.step()
            if done:
                ev = done[0]
                if not ev._ok:
                    ev._defused = True
                    raise ev._value
                return ev._value
            raise SimulationError("event queue drained before the until-event fired")
        if until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(f"until={stop_at} is in the past (now={self._now})")
        while self._queue:
            if stop_at is not None and self._queue[0][0] > stop_at:
                self._now = stop_at
                return None
            self.step()
        if stop_at is not None:
            self._now = stop_at
        return None

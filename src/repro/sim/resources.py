"""Shared-resource primitives: Resource, PriorityResource, Container, Store.

These mirror SimPy's semantics:

* :class:`Resource` — ``capacity`` slots; ``request()`` returns an event that
  fires when a slot is granted; ``release(req)`` frees it.  Requests support
  the context-manager protocol so workload code can write
  ``with res.request() as req: yield req``.
* :class:`PriorityResource` — like Resource but requests carry a priority
  (lower = more urgent) and queue in priority order.
* :class:`Container` — a continuous quantity (e.g. bytes of DRAM bandwidth
  credit); ``put(amount)`` / ``get(amount)`` block until satisfiable.
* :class:`Store` — a FIFO of Python objects (e.g. decoded image batches).
* :class:`Slot` — one FIFO slot whose claims are events, not requests: a
  granted claim is scheduled (a :class:`~repro.sim.core.Join` counts it).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import _PENDING, URGENT, Environment, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Event fields set inline, as in Timeout: two requests per transfer.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._triggered = False
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class PriorityRequest(Request):
    """A resource request with an explicit priority (lower = first)."""

    __slots__ = ("priority", "time")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        super().__init__(resource)


class Resource:
    """``capacity`` identical slots granted FIFO."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to *request*."""
        if request in self.users:
            self.users.remove(request)
            if self.queue:
                self._grant()
        elif request in self.queue:
            # Cancelled before being granted.
            self.queue.remove(request)

    # -- internals --------------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if not self.queue and len(self.users) < self.capacity:
            # Granted on request: the same succeed() event _grant would
            # fire, without the round trip through the queue.
            self.users.append(request)
            request.succeed()
            return
        self.queue.append(request)
        self._grant()

    def _pop_next(self) -> Request:
        return self.queue.pop(0)

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self._pop_next()
            self.users.append(nxt)
            nxt.succeed()


class PriorityResource(Resource):
    """A Resource whose queue orders by (priority, arrival time)."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._heap: list[tuple[int, float, int, PriorityRequest]] = []
        self._seq = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Claim a slot with *priority* (lower = more urgent)."""
        return PriorityRequest(self, priority)

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._grant()
        else:
            self._heap = [entry for entry in self._heap if entry[3] is not request]
            heapq.heapify(self._heap)

    def _do_request(self, request: Request) -> None:  # type: ignore[override]
        if not isinstance(request, PriorityRequest):
            # Not an assert: ``python -O`` would strip it and the heap entry
            # below would die on a missing ``priority`` instead.
            raise SimulationError(
                f"{type(self).__name__} needs a PriorityRequest, got {request!r}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (request.priority, request.time, self._seq, request))
        self._grant()

    def _grant(self) -> None:
        while self._heap and len(self.users) < self.capacity:
            _, _, _, nxt = heapq.heappop(self._heap)
            self.users.append(nxt)
            nxt.succeed()


class Container:
    """A continuous quantity with blocking put/get."""

    def __init__(
        self, env: Environment, capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if not 0.0 <= init <= capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []
        self._putters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add *amount*; fires once it fits under capacity."""
        if amount < 0:
            raise SimulationError(f"negative put {amount}")
        ev = Event(self.env)
        self._putters.append((amount, ev))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        """Remove *amount*; fires once available."""
        if amount < 0:
            raise SimulationError(f"negative get {amount}")
        ev = Event(self.env)
        self._getters.append((amount, ev))
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                amount, ev = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += amount
                    ev.succeed()
                    progress = True
            if self._getters:
                amount, ev = self._getters[0]
                if amount <= self._level:
                    self._getters.pop(0)
                    self._level -= amount
                    ev.succeed(amount)
                    progress = True


class Store:
    """A FIFO queue of arbitrary items with blocking get."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[tuple[Any, Event]] = []
        self._putters: list[tuple[Any, Event]] = []

    def put(self, item: Any) -> Event:
        """Append *item*; fires once there is room."""
        ev = Event(self.env)
        self._putters.append((item, ev))
        self._settle()
        return ev

    def get(self, filter: Any = None) -> Event:
        """Pop the first item (matching *filter* if given); fires when one exists.

        *filter* is an optional predicate ``item -> bool`` turning this into a
        SimPy ``FilterStore``-style get.
        """
        ev = Event(self.env)
        self._getters.append((filter, ev))
        self._settle()
        return ev

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`get` (or :meth:`put`) event.

        A get whose wait timed out must be withdrawn, or it would swallow a
        later item.  Cancelling an event that already fired (or was never
        issued here) is a no-op.
        """
        self._getters = [(p, ev) for (p, ev) in self._getters if ev is not event]
        self._putters = [(i, ev) for (i, ev) in self._putters if ev is not event]

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                item, ev = self._putters.pop(0)
                self.items.append(item)
                ev.succeed()
                progress = True
            if not self.items:
                # Nothing to hand out, and the putters already drained.
                return
            for gi, (predicate, ev) in enumerate(self._getters):
                matched = None
                for idx, item in enumerate(self.items):
                    if predicate is None or predicate(item):
                        matched = idx
                        break
                if matched is not None:
                    # Safe inside the loop: it breaks right after.
                    del self._getters[gi]
                    ev.succeed(self.items.pop(matched))
                    progress = True
                    break


class Slot:
    """A capacity-1 FIFO resource whose claims are events.

    ``holder`` is the granted claim (``None`` when free) and ``waiters``
    queue the others in arrival order.  Granting a claim schedules it at
    the current time: that is the queue entry a granted :class:`Request`
    takes, without a request object.  A claim is therefore an event that
    can be scheduled while still pending, such as a
    :class:`~repro.sim.core.Join`.
    """

    __slots__ = ("env", "holder", "waiters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.holder: Event | None = None
        self.waiters: deque[Event] = deque()

    def claim(self, event: Event) -> None:
        """Queue *event* for the slot; it is scheduled once granted."""
        if self.holder is None:
            self.holder = event
            self.env.schedule(event)
        else:
            self.waiters.append(event)

    def release(self, event: Event) -> None:
        """Give up *event*'s claim: hand the slot on if it is held, or
        withdraw it from the waiters."""
        if self.holder is event:
            waiters = self.waiters
            if waiters:
                self.holder = granted = waiters.popleft()
                self.env.schedule(granted)
            else:
                self.holder = None
        elif event in self.waiters:
            self.waiters.remove(event)


__all__ = [
    "Container",
    "PriorityRequest",
    "PriorityResource",
    "Request",
    "Resource",
    "Slot",
    "Store",
    "URGENT",
]

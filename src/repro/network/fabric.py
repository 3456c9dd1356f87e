"""End-to-end transfers between nodes through a switch."""

from __future__ import annotations

from typing import Protocol

from repro.errors import (
    ConfigurationError,
    MessageLostError,
    NetworkError,
    NodeFailure,
)
from repro.hardware.node import Node
from repro.network.switch import SwitchSpec
from repro.sim import Environment, Event, Join
from repro.telemetry.instruments import SIZE_BUCKETS
from repro.telemetry.sink import NULL


class Flow(Event):
    """One transfer between two nodes, as one event, and its record.

    :meth:`Fabric.transfer` starts a flow, and a process yields it (or
    yields from it, see :meth:`__iter__`).  A wire flow claims the
    source's tx slot and then the destination's rx slot with its stage, a
    :class:`~repro.sim.Join` over the two grants.  When both grants have
    popped and the stage pops once more, :meth:`_begin` samples the rate
    and the flow queues itself ``wire_seconds`` later, under the key a
    ``Timeout`` for that delay would take.  A loopback flow queues itself
    at once.

    When the flow pops, its first callback, :meth:`_finish`, frees the
    slots, checks the crash and drop state and does the accounting.  Only
    then does the waiting process resume: with ``None``, or with
    :class:`NodeFailure` / :class:`MessageLostError` thrown in.  A process
    thrown into while it waits calls :meth:`abort`.

    The record fields are ``start``, ``end``, ``queue_seconds``,
    ``wire_seconds`` and :attr:`seconds`.  A finished flow holds no
    reference cycle: its callbacks are unbound functions, and the stage
    drops its callback when it fires or is cancelled.
    """

    __slots__ = (
        "_fabric", "_src", "_dst", "nbytes", "start", "end", "queue_seconds",
        "wire_seconds", "_stage", "_rate", "_dropped", "_aborted", "__weakref__",
    )

    def __init__(self, fabric: "Fabric", src: Node, dst: Node, nbytes: float) -> None:
        env = fabric.env
        # Event fields set inline, as in Timeout: one flow per message.
        self.env = env
        self.callbacks = [Flow._finish]
        self._value = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self._fabric = fabric
        self._src = src
        self._dst = dst
        self.nbytes = nbytes
        self.start = env._now
        self.end: float | None = None
        self.queue_seconds = 0.0
        self.wire_seconds = 0.0
        self._rate: float | None = None
        self._dropped = False
        self._aborted = False
        if src is dst:
            # Loopback: a memory-to-memory copy, no NIC involvement.
            self._stage = None
            self.wire_seconds = wire = 2.0 * nbytes / src.dram.spec.cpu_bandwidth
            self._triggered = True
            env.schedule(self, wire)
        else:
            self._stage = stage = Join(env, 2, self._begin)
            src.nic_tx.claim(stage)
            dst.nic_rx.claim(stage)

    @property
    def seconds(self) -> float:
        """Total transfer duration including queueing."""
        return self.end - self.start

    def __iter__(self):
        """``record = yield from fabric.transfer(...)`` waits for the flow
        and returns it; an exception thrown in meanwhile aborts it."""
        try:
            yield self
        except BaseException as exc:
            self.abort(exc)
            raise
        return self

    def abort(self, exc: BaseException) -> None:
        """Withdraw a flow whose waiter was thrown into (a crash).

        Frees or withdraws its NIC claims and records its span as failed
        with *exc*.  The stage and wire pops already queued still fire,
        doing nothing, as the requests, condition and timeout of a killed
        transfer did.  A finished flow (whose own failure was thrown in) is
        left as it is.
        """
        if self.callbacks is None or self._aborted:
            return
        self._aborted = True
        fabric = self._fabric
        stage = self._stage
        if stage is not None:
            if self._rate is not None:
                fabric._active_flows -= 1
            self._src.nic_tx.release(stage)
            self._dst.nic_rx.release(stage)
            stage.cancel()
        if fabric._telemetry.enabled:
            self._record(exc)

    def _begin(self, _stage: Join) -> None:
        """Both NIC slots are held: start the wire time at the current rate."""
        fabric = self._fabric
        src = self._src
        dst = self._dst
        env = self.env
        self.queue_seconds = env._now - self.start
        fabric._active_flows += 1
        self._rate = rate = fabric._flow_rate(src, dst)
        # The loss draw happens at flow start so the RNG consumption order
        # is deterministic regardless of completion order.
        if fabric._injector is not None:
            self._dropped = fabric._injector.message_dropped(src.node_id, dst.node_id)
        nbytes = self.nbytes
        latency = src.nic.latency_one_way + fabric.switch.latency
        self.wire_seconds = wire = latency + (nbytes / rate if nbytes else 0.0)
        self._triggered = True
        env.schedule(self, wire)

    def _finish(self) -> None:
        """The flow popped: settle and account it before its waiter resumes."""
        if self._aborted:
            return
        fabric = self._fabric
        src = self._src
        dst = self._dst
        nbytes = self.nbytes
        self.end = self.env._now
        observed = fabric._telemetry.enabled
        stage = self._stage
        if stage is None:
            if observed:
                self._record(None)
                fabric._loopback_bytes_counter.inc(nbytes)
                fabric._loopback_transfers_counter.inc()
            src.record_loopback(nbytes)
            fabric.loopback_bytes += nbytes
            fabric.loopback_transfers += 1
            return
        fabric._active_flows -= 1
        src.nic_tx.release(stage)
        dst.nic_rx.release(stage)
        error: Exception | None = None
        if src.failed or dst.failed:
            # A crash that landed mid-flight eats the payload.
            error = fabric._node_failure(src if src.failed else dst)
        elif self._dropped:
            fabric.dropped_bytes += nbytes
            fabric.dropped_transfers += 1
            if observed:
                fabric._drops_counter.inc()
                fabric._telemetry.instant(
                    "faults", f"message-loss n{src.node_id}->n{dst.node_id}",
                    "fault", nbytes=nbytes,
                )
            error = MessageLostError(
                f"transfer of {nbytes:.0f} B from node {src.node_id} to node "
                f"{dst.node_id} lost on the wire at t={self.end:.6f}"
            )
        else:
            src.record_send(nbytes)
            dst.record_receive(nbytes)
            fabric.total_bytes += nbytes
            fabric.total_transfers += 1
            if observed:
                fabric._bytes_counter.inc(nbytes)
                fabric._transfers_counter.inc()
                fabric._seconds_histogram.observe(self.end - self.start)
                fabric._size_histogram.observe(nbytes)
        if observed:
            self._record(error)
        if error is not None:
            self._ok = False
            self._value = error

    def _record(self, error: BaseException | None) -> None:
        """The flow's ``fabric`` span, closing now (failed with *error*)."""
        fabric = self._fabric
        args: dict[str, object] = {"nbytes": self.nbytes}
        if self._rate is not None:
            args["queue_seconds"] = self.queue_seconds
            args["rate"] = self._rate
        if error is not None:
            args["error"] = f"{type(error).__name__}: {error}"
        fabric._telemetry.record_span(
            "fabric", fabric._span_name(self._src.node_id, self._dst.node_id),
            "fabric", self.start, self.env._now, kind="async", **args,
        )


class LinkFaultModel(Protocol):
    """What the fabric needs from a fault injector (see ``repro.faults``).

    The fabric stays fault-agnostic: with no injector attached every hook
    below behaves as ``1.0`` / ``False`` and the happy path is untouched.
    """

    def rate_multiplier(self, node_id: int) -> float:
        """Per-link NIC bandwidth multiplier in (0, 1] at the current time."""

    def message_dropped(self, src_id: int, dst_id: int) -> bool:
        """Whether this transfer's payload is lost (drawn from a seeded RNG)."""


class Fabric:
    """A star topology: every node hangs off one switch.

    Intra-node transfers short-circuit through DRAM (loopback).  The switch's
    bisection bandwidth throttles per-flow rate when the number of concurrent
    flows oversubscribes it.

    A :class:`LinkFaultModel` can be attached with :meth:`set_fault_injector`
    to degrade per-link rates and drop payloads; transfers touching a failed
    node raise :class:`NodeFailure`.
    """

    def __init__(self, env: Environment, switch: SwitchSpec) -> None:
        self.env = env
        self.switch = switch
        self.nodes: dict[int, Node] = {}
        self.total_bytes = 0.0
        self.total_transfers = 0
        self.dropped_bytes = 0.0
        self.dropped_transfers = 0
        # Loopback (intra-node) traffic is accounted separately: it never
        # crosses the wire, so total_bytes stays the wire-only figure that
        # JobResult.network_bytes mirrors.
        self.loopback_bytes = 0.0
        self.loopback_transfers = 0
        self._active_flows = 0
        self._injector: LinkFaultModel | None = None
        # Span names repeat for every (src, dst) pair a run ever uses;
        # caching them keeps the hot path free of per-transfer f-strings.
        self._span_names: dict[tuple[int, int], str] = {}
        self._telemetry = NULL
        self._wire_instruments()

    @property
    def active_flows(self) -> int:
        """Flows currently holding NIC slots (the sampler reads this)."""
        return self._active_flows

    def _span_name(self, src_id: int, dst_id: int) -> str:
        key = (src_id, dst_id)
        name = self._span_names.get(key)
        if name is None:
            name = (
                f"loopback n{src_id}" if src_id == dst_id
                else f"xfer n{src_id}->n{dst_id}"
            )
            self._span_names[key] = name
        return name

    def attach(self, node: Node) -> None:
        """Register *node* on the fabric."""
        if node.node_id in self.nodes:
            raise ConfigurationError(f"node id {node.node_id} already attached")
        self.nodes[node.node_id] = node

    def set_fault_injector(self, injector: LinkFaultModel | None) -> None:
        """Attach (or detach, with ``None``) a fault injector to every link."""
        self._injector = injector

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink recording transfer spans and counters."""
        self._telemetry = telemetry if telemetry is not None else NULL
        self._wire_instruments()

    def _wire_instruments(self) -> None:
        tm = self._telemetry
        self._bytes_counter = tm.counter(
            "fabric_bytes_total", "payload bytes delivered end-to-end",
            unit="bytes",
        )
        self._transfers_counter = tm.counter(
            "fabric_transfers_total", "completed end-to-end transfers",
        )
        self._drops_counter = tm.counter(
            "fabric_dropped_transfers_total",
            "transfers whose payload was lost on the wire",
        )
        self._seconds_histogram = tm.histogram(
            "fabric_transfer_seconds", "end-to-end transfer duration",
            unit="seconds",
        )
        self._size_histogram = tm.histogram(
            "fabric_transfer_bytes", "wire size of completed transfers",
            unit="bytes", buckets=SIZE_BUCKETS,
        )
        self._loopback_bytes_counter = tm.counter(
            "fabric_loopback_bytes_total",
            "payload bytes short-circuited through node-local DRAM",
            unit="bytes",
        )
        self._loopback_transfers_counter = tm.counter(
            "fabric_loopback_transfers_total",
            "completed intra-node (loopback) transfers",
        )

    def _flow_rate(self, src: Node, dst: Node) -> float:
        """Effective bytes/s for one flow given current fabric load and
        any fault-injected per-link degradation."""
        src_rate = src.nic.achievable_rate
        dst_rate = dst.nic.achievable_rate
        if self._injector is not None:
            src_rate *= self._injector.rate_multiplier(src.node_id)
            dst_rate *= self._injector.rate_multiplier(dst.node_id)
        endpoint = min(src_rate, dst_rate)
        flows = max(1, self._active_flows)
        fair_share = self.switch.bisection_bandwidth / flows
        return min(endpoint, fair_share)

    def _node_failure(self, node: Node) -> NodeFailure:
        return NodeFailure(
            node.node_id,
            f"node {node.node_id} is down (failed at t={node.failed_at})",
        )

    def transfer(self, src_id: int, dst_id: int, nbytes: float) -> Flow:
        """Start moving *nbytes* from ``src_id`` to ``dst_id``.

        Returns the :class:`Flow`; ``yield`` it inside a sim process, or
        ``record = yield from fabric.transfer(...)`` to get it back as the
        transfer's record.  The arguments and the endpoints' health are
        checked here, before any NIC slot is claimed.

        Under fault injection the flow rate is sampled at flow start (a
        degradation window opening mid-flight applies from the next
        transfer), dropped payloads consume their full wire time before
        failing with :class:`MessageLostError`, and a transfer touching a
        crashed endpoint fails with :class:`NodeFailure`.
        """
        if not nbytes >= 0:
            # ``not >=`` rather than ``<``: a NaN size would otherwise hold
            # both NIC slots before the kernel's schedule check rejected it.
            raise ConfigurationError(
                f"transfer size must be non-negative, got {nbytes}"
            )
        try:
            src = self.nodes[src_id]
            dst = self.nodes[dst_id]
        except KeyError as exc:
            raise NetworkError(
                f"node id {exc.args[0]} is not attached to this fabric"
            ) from None
        if src.failed:
            raise self._node_failure(src)
        if dst.failed:
            raise self._node_failure(dst)
        return Flow(self, src, dst, nbytes)

    def average_traffic_rate(self, elapsed_seconds: float) -> float:
        """Mean fabric throughput over a run (Fig. 3's network-traffic axis)."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.total_bytes / elapsed_seconds

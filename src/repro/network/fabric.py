"""End-to-end transfers between nodes through a switch."""

from __future__ import annotations

from typing import NamedTuple, Protocol

from repro.errors import (
    ConfigurationError,
    MessageLostError,
    NetworkError,
    NodeFailure,
)
from repro.hardware.node import Node
from repro.network.switch import SwitchSpec
from repro.sim import Environment
from repro.telemetry.instruments import SIZE_BUCKETS
from repro.telemetry.sink import NULL
from repro.telemetry.spans import NULL_SPAN


class TransferRecord(NamedTuple):
    """Timing breakdown of one completed transfer.

    A named tuple rather than a frozen dataclass: every transfer builds
    one, and a frozen dataclass sets each field through
    ``object.__setattr__`` (about 3x the construction cost).
    """

    src: int
    dst: int
    nbytes: float
    start: float
    end: float
    queue_seconds: float
    wire_seconds: float

    @property
    def seconds(self) -> float:
        """Total transfer duration including queueing."""
        return self.end - self.start


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

    def _check_alive(self, node: Node) -> None:
        if node.failed:
            raise NodeFailure(
                node.node_id,
                f"node {node.node_id} is down (failed at t={node.failed_at})",
            )

    def transfer(self, src_id: int, dst_id: int, nbytes: float):
        """Generator process moving *nbytes* from ``src_id`` to ``dst_id``.

        Returns a :class:`TransferRecord`; charge it with
        ``record = yield from fabric.transfer(...)`` inside a sim process.

        Under fault injection the flow rate is sampled at flow start (a
        degradation window opening mid-flight applies from the next
        transfer), dropped payloads consume their full wire time before
        raising :class:`MessageLostError`, and a transfer touching a crashed
        endpoint raises :class:`NodeFailure`.
        """
        if not nbytes >= 0:
            # ``not >=`` rather than ``<``: a NaN size would otherwise hold
            # both NIC slots before the kernel's timeout check rejected it.
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
        if src.failed or dst.failed:
            self._check_alive(src)
            self._check_alive(dst)
        env = self.env
        start = env._now
        # Per-transfer hot path: with the sink disabled, skip its no-op span
        # factory and instruments, as Communicator.send/recv do.
        observed = self._telemetry.enabled

        if src_id == dst_id:
            # Loopback: a memory-to-memory copy, no NIC involvement.  It is
            # accounted under its own instruments — total_bytes stays the
            # wire-only figure JobResult.network_bytes mirrors.
            wire = 2.0 * nbytes / src.dram.spec.cpu_bandwidth
            if observed:
                with self._telemetry.async_span(
                    "fabric", self._span_name(src_id, dst_id), "fabric",
                    nbytes=nbytes,
                ):
                    yield env.timeout(wire)
                self._loopback_bytes_counter.inc(nbytes)
                self._loopback_transfers_counter.inc()
            else:
                yield env.timeout(wire)
            src.record_loopback(nbytes)
            self.loopback_bytes += nbytes
            self.loopback_transfers += 1
            return TransferRecord(src_id, dst_id, nbytes, start, env._now, 0.0, wire)

        span = NULL_SPAN
        if observed:
            span = self._telemetry.async_span(
                "fabric", self._span_name(src_id, dst_id), "fabric", nbytes=nbytes
            )
        with span:
            tx_req = src.nic_tx.request()
            rx_req = dst.nic_rx.request()
            granted = False
            dropped = False
            try:
                yield env.all_of([tx_req, rx_req])
                granted = True
                queued = env._now - start
                self._active_flows += 1
                rate = self._flow_rate(src, dst)
                if observed:
                    span.set(queue_seconds=queued, rate=rate)
                # The loss draw happens at flow start so the RNG consumption
                # order is deterministic regardless of completion order.
                if self._injector is not None:
                    dropped = self._injector.message_dropped(src_id, dst_id)
                latency = src.nic.latency_one_way + self.switch.latency
                wire = latency + (nbytes / rate if nbytes else 0.0)
                yield env.timeout(wire)
            finally:
                if granted:
                    self._active_flows -= 1
                # release() also withdraws still-queued requests, so a process
                # killed while waiting for the NIC does not leak a slot.
                src.nic_tx.release(tx_req)
                dst.nic_rx.release(rx_req)

            # A crash that landed mid-flight eats the payload.
            if src.failed or dst.failed:
                self._check_alive(src)
                self._check_alive(dst)
            if dropped:
                self.dropped_bytes += nbytes
                self.dropped_transfers += 1
                if observed:
                    self._drops_counter.inc()
                    self._telemetry.instant(
                        "faults", f"message-loss n{src_id}->n{dst_id}", "fault",
                        nbytes=nbytes,
                    )
                raise MessageLostError(
                    f"transfer of {nbytes:.0f} B from node {src_id} to node "
                    f"{dst_id} lost on the wire at t={env.now:.6f}"
                )

            src.record_send(nbytes)
            dst.record_receive(nbytes)
            self.total_bytes += nbytes
            self.total_transfers += 1
            if observed:
                self._bytes_counter.inc(nbytes)
                self._transfers_counter.inc()
                self._seconds_histogram.observe(env._now - start)
                self._size_histogram.observe(nbytes)
        return TransferRecord(src_id, dst_id, nbytes, start, env._now, queued, wire)

    def average_traffic_rate(self, elapsed_seconds: float) -> float:
        """Mean fabric throughput over a run (Fig. 3's network-traffic axis)."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.total_bytes / elapsed_seconds

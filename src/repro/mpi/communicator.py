"""Communicators, point-to-point messaging, and tree collectives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, NamedTuple

import numpy as np

from repro.errors import (
    MessageLostError,
    MPIError,
    MPITimeoutError,
    NodeFailure,
    RankFailedError,
)
from repro.network.fabric import Fabric
from repro.sim import Environment, Event
from repro.telemetry.instruments import SIZE_BUCKETS
from repro.telemetry.sink import NULL
from repro.telemetry.spans import NULL_SPAN
from repro.units import kib


ANY_SOURCE = -1
ANY_TAG = -1

#: Bytes actually put on the wire for a zero-byte payload (headers).
MESSAGE_HEADER_BYTES = 64.0


def payload_nbytes(data: Any) -> float:
    """Wire size of a payload: NumPy buffers are exact, scalars small."""
    if isinstance(data, np.ndarray):
        return float(data.nbytes)
    if isinstance(data, (bytes, bytearray)):
        return float(len(data))
    if isinstance(data, (int, float, complex, bool)) or data is None:
        return 8.0
    if isinstance(data, (list, tuple)):
        return float(sum(payload_nbytes(item) for item in data))
    if isinstance(data, dict):
        return float(
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in data.items())
        )
    return 64.0  # opaque object: a pickled-header guess


class Message(NamedTuple):
    """One in-flight message.

    A named tuple rather than a frozen dataclass: every send builds one,
    and a frozen dataclass sets each field through ``object.__setattr__``.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: float
    sent_at: float


class Mailbox:
    """One rank's delivered messages, received by ``(source, tag)``.

    It behaves as an unbounded :class:`~repro.sim.Store` whose gets filter
    by source and tag, event for event, with no predicate call per item.
    After every put and get no waiting receive matches a queued message.
    So a put succeeds its own event and then hands the message to the first
    waiting receive that matches it, or queues it; and a new receive takes
    the first queued message it matches, or waits.  The store's settle loop
    comes to the same.
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: list[Message] = []
        self._getters: list[tuple[int, int, Event]] = []

    def put(self, message: Message) -> Event:
        """Deliver *message*; the returned event has already succeeded."""
        done = Event(self.env)
        done.succeed()
        src = message.src
        tag = message.tag
        getters = self._getters
        for i, (source, want, getter) in enumerate(getters):
            if (source == ANY_SOURCE or source == src) and (
                want == ANY_TAG or want == tag
            ):
                del getters[i]
                getter.succeed(message)
                return done
        self.items.append(message)
        return done

    def get(self, source: int, tag: int) -> Event:
        """An event whose value is the first message from *source* with
        *tag* (either may be a wildcard)."""
        got = Event(self.env)
        items = self.items
        for i, message in enumerate(items):
            if (source == ANY_SOURCE or message.src == source) and (
                tag == ANY_TAG or message.tag == tag
            ):
                del items[i]
                got.succeed(message)
                return got
        self._getters.append((source, tag, got))
        return got

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`get` (a timed receive that expired)."""
        getters = self._getters
        for i, entry in enumerate(getters):
            if entry[2] is event:
                del getters[i]
                return


@dataclass
class CommStats:
    """Per-rank communication accounting."""

    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    comm_seconds: float = 0.0  # time this rank spent inside comm calls
    retries: int = 0  # resends after a lost payload (fault injection)


@dataclass(frozen=True)
class RetryPolicy:
    """Degraded-mode p2p semantics: recv timeouts and send retry/backoff.

    All delays are simulated seconds.  ``timeout`` bounds how long a receive
    (or a collective's internal receive) waits before raising
    :class:`MPITimeoutError` — or :class:`RankFailedError` when the awaited
    peer is known dead.  A send whose payload is lost on the wire is retried
    up to ``max_retries`` times, sleeping
    ``backoff_base * backoff_factor**attempt`` (+- ``jitter`` drawn from the
    world's seeded RNG) between attempts.
    """

    timeout: float = 1.0
    max_retries: int = 3
    backoff_base: float = 1.0e-3
    backoff_factor: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        # ``not >=``/``not >`` rather than ``<``/``<=``: NaN compares false
        # both ways and would slip through.
        if not self.timeout > 0:
            raise MPIError(f"retry timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise MPIError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff_base >= 0 and self.backoff_factor >= 1.0):
            raise MPIError(
                "backoff_base must be >= 0 and backoff_factor >= 1, got "
                f"{self.backoff_base}/{self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise MPIError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before resend *attempt* (0-based), with seeded jitter."""
        base = self.backoff_base * self.backoff_factor**attempt
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))


class CommWorld:
    """Builds one :class:`Communicator` per rank over a shared fabric.

    ``rank_to_node`` maps each MPI rank to the fabric node that hosts it
    (several ranks per node is allowed, as on the 4-core TX1s).
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        rank_to_node: list[int],
        tracer: Any = None,
        retry: RetryPolicy | None = None,
        seed: int = 0,
        telemetry: Any = None,
    ) -> None:
        if not rank_to_node:
            raise MPIError("world must have at least one rank")
        for node_id in rank_to_node:
            if node_id not in fabric.nodes:
                raise MPIError(f"rank mapped to unknown node {node_id}")
        self.env = env
        self.fabric = fabric
        self.rank_to_node = list(rank_to_node)
        self.tracer = tracer
        self.retry = retry
        self.telemetry = telemetry if telemetry is not None else NULL
        self._retry_rng = np.random.default_rng(seed)
        self._failed_ranks: set[int] = set()
        self._mailboxes = [Mailbox(env) for _ in rank_to_node]
        self.stats = [CommStats() for _ in rank_to_node]
        tm = self.telemetry
        messages = tm.counter(
            "mpi_messages_total", "point-to-point messages delivered",
            labelnames=("kind",),
        )
        wire_bytes = tm.counter(
            "mpi_bytes_total", "wire bytes moved by point-to-point traffic",
            unit="bytes", labelnames=("kind",),
        )
        self._sent_messages = messages.labels(kind="send")
        self._sent_bytes = wire_bytes.labels(kind="send")
        self._received_messages = messages.labels(kind="recv")
        self._received_bytes = wire_bytes.labels(kind="recv")
        self._retries_counter = tm.counter(
            "mpi_retries_total", "resends after a lost payload",
        )
        self._latency_histogram = tm.histogram(
            "mpi_message_latency_seconds",
            "send-call to matched-receive latency", unit="seconds",
        )
        self._size_histogram = tm.histogram(
            "mpi_message_bytes", "wire size of delivered messages",
            unit="bytes", buckets=SIZE_BUCKETS,
        )

    def _record_delivery(self, message: Message) -> None:
        """Latency/size accounting when a message reaches its receiver."""
        if not self.telemetry.enabled:
            return
        self._received_messages.inc()
        self._received_bytes.inc(message.nbytes)
        self._latency_histogram.observe(self.env.now - message.sent_at)
        self._size_histogram.observe(message.nbytes)

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.rank_to_node)

    # -- rank health (fault injection) -----------------------------------------

    def mark_rank_failed(self, rank: int) -> None:
        """Record *rank* as dead; later traffic to/from it fails fast."""
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range [0, {self.size})")
        self._failed_ranks.add(rank)

    def is_failed(self, rank: int) -> bool:
        """Whether *rank* has been marked dead."""
        return rank in self._failed_ranks

    def mark_ranks_on_node(self, node_id: int) -> None:
        """Mark every rank hosted on *node_id* as dead (node crash)."""
        for rank, host in enumerate(self.rank_to_node):
            if host == node_id:
                self._failed_ranks.add(rank)

    @property
    def failed_ranks(self) -> tuple[int, ...]:
        """Dead ranks, ascending."""
        return tuple(sorted(self._failed_ranks))

    def communicator(self, rank: int) -> "Communicator":
        """The communicator endpoint for *rank*."""
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range [0, {self.size})")
        return Communicator(self, rank)

    def communicators(self) -> list["Communicator"]:
        """One endpoint per rank, in rank order."""
        return [self.communicator(r) for r in range(self.size)]


class Communicator:
    """One rank's endpoint. All methods are simulation generators."""

    def __init__(self, world: CommWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.env = world.env
        # Span labels repeat for every call this rank ever makes; caching
        # them here keeps per-message f-string builds off the hot path.
        self._track = f"rank{rank}"
        self._send_span_names: dict[int, str] = {}

    def _send_span_name(self, dest: int) -> str:
        name = self._send_span_names.get(dest)
        if name is None:
            name = f"mpi.send->r{dest}"
            self._send_span_names[dest] = name
        return name

    # mpi4py-style accessors
    def Get_rank(self) -> int:
        """This endpoint's rank."""
        return self.rank

    def Get_size(self) -> int:
        """Number of ranks in the world."""
        return self.size

    # -- point-to-point -------------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0, nbytes: float | None = None):
        """Blocking send; completes when the transfer hits the destination.

        ``nbytes`` overrides the wire size (used by scaled workloads whose
        in-memory arrays stand in for much larger ones).

        Degraded-mode semantics (active only when the world carries a
        :class:`RetryPolicy` or faults are injected): a payload lost on the
        wire is resent after seeded exponential backoff, up to
        ``max_retries`` times, then raises :class:`MPITimeoutError`; a send
        to a dead rank (or through a dead node) raises
        :class:`RankFailedError` naming the dead peer.
        """
        if not 0 <= dest < self.size:
            raise MPIError(f"bad destination rank {dest}")
        if tag < 0:
            raise MPIError("send tag must be non-negative")
        world = self.world
        env = self.env
        # Per-message hot path: the kernel's clock and the dead-rank set are
        # read directly rather than through ``env.now``/``world.is_failed``.
        if dest in world._failed_ranks:
            raise RankFailedError(dest, f"send to dead rank {dest} (tag {tag})")
        wire_bytes = MESSAGE_HEADER_BYTES + (
            payload_nbytes(data) if nbytes is None else float(nbytes)
        )
        start = env._now
        src_node = world.rank_to_node[self.rank]
        dst_node = world.rank_to_node[dest]
        stats = world.stats[self.rank]
        attempt = 0
        # Per-message hot path: with the sink disabled, skip its no-op span
        # factory and instruments.  Their calls and keyword dicts cost about
        # as much as a small event.
        observed = world.telemetry.enabled
        span = NULL_SPAN
        if observed:
            span = world.telemetry.async_span(
                self._track, self._send_span_name(dest), "mpi",
                dest=dest, tag=tag, nbytes=wire_bytes,
            )
        with span:
            while True:
                try:
                    flow = world.fabric.transfer(src_node, dst_node, wire_bytes)
                    try:
                        yield flow
                    except BaseException as exc:
                        # Thrown in while waiting (a crash): withdraw the
                        # flow's NIC claims first.  The flow's own failure
                        # leaves nothing to withdraw.
                        flow.abort(exc)
                        raise
                    break
                except MessageLostError:
                    stats.bytes_sent += wire_bytes  # the attempt did hit the wire
                    policy = world.retry
                    if policy is None or attempt >= policy.max_retries:
                        raise MPITimeoutError(
                            f"send from rank {self.rank} to rank {dest} (tag {tag}) "
                            f"lost {attempt + 1} time(s); retries exhausted"
                        ) from None
                    stats.retries += 1
                    world._retries_counter.inc()
                    delay = policy.backoff_seconds(attempt, world._retry_rng)
                    if delay > 0.0:
                        yield env.timeout(delay)
                    attempt += 1
                except NodeFailure as exc:
                    world.mark_ranks_on_node(exc.node_id)
                    dead = dest if world.rank_to_node[dest] == exc.node_id else self.rank
                    raise RankFailedError(
                        dead,
                        f"send from rank {self.rank} to rank {dest} (tag {tag}) "
                        f"failed: {exc}",
                    ) from exc
            if attempt:
                span.set(retries=attempt)
            message = Message(self.rank, dest, tag, data, wire_bytes, start)
            yield world._mailboxes[dest].put(message)
        stats.bytes_sent += wire_bytes
        stats.messages_sent += 1
        stats.comm_seconds += env._now - start
        if observed:
            world._sent_messages.inc()
            world._sent_bytes.inc(wire_bytes)
        if world.tracer is not None:
            world.tracer.record_comm(self.rank, dest, wire_bytes, start, env._now, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None):
        """Blocking receive; returns the payload.

        ``timeout`` bounds the wait in simulated seconds; it defaults to the
        world's :class:`RetryPolicy` timeout when one is set, so collectives
        inherit fail-fast behaviour under fault injection.  On expiry the
        receive raises :class:`RankFailedError` when the awaited peer is
        known dead, :class:`MPITimeoutError` otherwise.
        """
        world = self.world
        env = self.env
        start = env._now  # see send()
        if source != ANY_SOURCE and source in world._failed_ranks:
            raise RankFailedError(
                source, f"recv on rank {self.rank} from dead rank {source} (tag {tag})"
            )
        if timeout is None and world.retry is not None:
            timeout = world.retry.timeout
        mailbox = world._mailboxes[self.rank]
        observed = world.telemetry.enabled  # see send()
        span = NULL_SPAN
        if observed:
            span = world.telemetry.async_span(
                self._track, "mpi.recv", "mpi", source=source, tag=tag,
            )
        with span:
            if timeout is None:
                message = yield mailbox.get(source, tag)
            else:
                get_ev = mailbox.get(source, tag)
                yield env.first_of(get_ev, timeout)
                if not get_ev._triggered:
                    raise self._expired(get_ev, source, tag, timeout)
                message = get_ev._value
            if observed:
                span.set(src=message.src, nbytes=message.nbytes)
        stats = world.stats[self.rank]
        stats.bytes_received += message.nbytes
        stats.messages_received += 1
        stats.comm_seconds += env._now - start
        world._record_delivery(message)
        if world.tracer is not None:
            world.tracer.record_recv(
                self.rank, message.src, message.nbytes, start, env._now, message.tag
            )
        return message.payload

    def isend(self, data: Any, dest: int, tag: int = 0, nbytes: float | None = None):
        """Non-blocking send: returns a process to ``yield`` on later."""
        return self.env.process(self.send(data, dest, tag, nbytes))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking receive: returns a process whose value is the payload."""
        return self.env.process(self.recv(source, tag))

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        nbytes: float | None = None,
    ):
        """Concurrent send+recv (the halo-exchange workhorse)."""
        send_proc = self.isend(senddata, dest, sendtag, nbytes)
        payload = yield from self.recv(source, recvtag)
        yield send_proc
        return payload

    # -- collectives (binomial trees) ------------------------------------------

    def barrier(self, tag: int = 1_000_000):
        """Synchronize all ranks (gather-to-0 then broadcast, tiny messages)."""
        with self.world.telemetry.async_span(self._track, "mpi.barrier", "mpi"):
            token = yield from self.reduce(0, op=lambda a, b: 0, root=0, tag=tag)
            yield from self.bcast(token, root=0, tag=tag + 1)

    #: Messages larger than this use the scatter+allgather (van de Geijn)
    #: broadcast, whose wall time is ~2 x bytes/bw independent of P, like a
    #: real MPI's large-message algorithm switch.
    BCAST_LARGE_THRESHOLD = kib(256)

    def bcast(self, data: Any, root: int = 0, tag: int = 1_100_000,
              nbytes: float | None = None, algorithm: str = "scatter-allgather"):
        """Broadcast from *root*; every rank returns the data.

        Small messages take the binomial tree; large ones the
        scatter+ring-allgather algorithm unless *algorithm* is
        ``"binomial"``.
        """
        with self.world.telemetry.async_span(self._track, "mpi.bcast", "mpi"):
            size, rank = self.size, self.rank
            # The algorithm switch must be decided identically on every rank,
            # so it keys on the explicit (rank-agnostic) nbytes only; object
            # broadcasts without a declared size always take the binomial
            # tree.
            if (nbytes is not None and size > 2 and algorithm != "binomial"
                    and float(nbytes) > self.BCAST_LARGE_THRESHOLD):
                result = yield from self._bcast_large(data, root, tag, float(nbytes))
                return result
            rel = (rank - root) % size
            # Receive phase (canonical MPICH binomial): find the bit where this
            # rank receives; the root falls through with mask >= size.
            mask = 1
            while mask < size:
                if rel & mask:
                    src_rel = rel ^ mask
                    data = yield from self.recv(source=(src_rel + root) % size, tag=tag)
                    break
                mask <<= 1
            # Send phase: forward to children at descending bit positions.
            mask >>= 1
            while mask > 0:
                if rel + mask < size:
                    yield from self.send(
                        data, ((rel + mask) + root) % size, tag=tag, nbytes=nbytes
                    )
                mask >>= 1
            return data

    def _bcast_large(self, data: Any, root: int, tag: int, wire: float):
        """Van de Geijn broadcast: root scatters 1/P chunks, ring allgather.

        The scatter carries the real payload (each rank needs the object);
        the allgather steps move cost-only chunks.
        """
        size, rank = self.size, self.rank
        chunk = wire / size
        if rank == root:
            for step in range(1, size):
                yield from self.send(data, (root + step) % size,
                                     tag=tag, nbytes=chunk)
        else:
            data = yield from self.recv(source=root, tag=tag)
        # Ring allgather: P-1 steps, everyone forwards a chunk to the right.
        right = (rank + 1) % size
        left = (rank - 1) % size
        for step in range(size - 1):
            send = self.isend(None, right, tag=tag + 1 + step, nbytes=chunk)
            yield from self.recv(source=left, tag=tag + 1 + step)
            yield send
        return data

    def reduce(
        self,
        data: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
        tag: int = 1_200_000,
        nbytes: float | None = None,
    ):
        """Binomial-tree reduction to *root*; non-roots return None."""
        with self.world.telemetry.async_span(self._track, "mpi.reduce", "mpi"):
            if op is None:
                op = _default_sum
            size, rank = self.size, self.rank
            rel = (rank - root) % size
            value = data
            mask = 1
            while mask < size:
                if rel & mask:
                    # Send my partial up the tree and stop.
                    yield from self.send(
                        value, ((rel ^ mask) + root) % size, tag=tag, nbytes=nbytes
                    )
                    return None
                partner = rel | mask
                if partner < size:
                    other = yield from self.recv(source=(partner + root) % size, tag=tag)
                    value = op(value, other)
                mask <<= 1
            return value

    def allreduce(
        self,
        data: Any,
        op: Callable[[Any, Any], Any] | None = None,
        tag: int = 1_300_000,
        nbytes: float | None = None,
    ):
        """Reduce-then-broadcast allreduce; every rank returns the result."""
        with self.world.telemetry.async_span(self._track, "mpi.allreduce", "mpi"):
            reduced = yield from self.reduce(data, op=op, root=0, tag=tag, nbytes=nbytes)
            result = yield from self.bcast(reduced, root=0, tag=tag + 1, nbytes=nbytes)
            return result

    def gather(self, data: Any, root: int = 0, tag: int = 1_400_000, nbytes: float | None = None):
        """Gather to *root*: returns the rank-ordered list at root, else None."""
        with self.world.telemetry.async_span(self._track, "mpi.gather", "mpi"):
            size, rank = self.size, self.rank
            if rank == root:
                items: list[Any] = [None] * size
                items[rank] = data
                awaited = set(range(size)) - {rank}
                for _ in range(size - 1):
                    # Tag by sender for deterministic placement.
                    message = yield from self._recv_message(tag, awaited)
                    items[message.src] = message.payload
                    awaited.discard(message.src)
                return items
            yield from self.send(data, root, tag=tag, nbytes=nbytes)
            return None

    def allgather(self, data: Any, tag: int = 1_500_000, nbytes: float | None = None):
        """Gather + broadcast; every rank returns the full list."""
        with self.world.telemetry.async_span(self._track, "mpi.allgather", "mpi"):
            items = yield from self.gather(data, root=0, tag=tag, nbytes=nbytes)
            total = None if nbytes is None else nbytes * self.size
            items = yield from self.bcast(items, root=0, tag=tag + 1, nbytes=total)
            return items

    def scatter(self, items: list[Any] | None, root: int = 0, tag: int = 1_600_000,
                nbytes: float | None = None):
        """Scatter list *items* from *root*; each rank returns its element."""
        with self.world.telemetry.async_span(self._track, "mpi.scatter", "mpi"):
            size, rank = self.size, self.rank
            if rank == root:
                if items is None or len(items) != size:
                    raise MPIError(f"scatter needs exactly {size} items at the root")
                for dst in range(size):
                    if dst != root:
                        yield from self.send(items[dst], dst, tag=tag, nbytes=nbytes)
                return items[root]
            payload = yield from self.recv(source=root, tag=tag)
            return payload

    def alltoall(self, items: list[Any], tag: int = 1_700_000, nbytes: float | None = None):
        """Pairwise-exchange all-to-all; returns the column for this rank."""
        with self.world.telemetry.async_span(self._track, "mpi.alltoall", "mpi"):
            size, rank = self.size, self.rank
            if len(items) != size:
                raise MPIError(f"alltoall needs exactly {size} items per rank")
            result: list[Any] = [None] * size
            result[rank] = items[rank]
            for step in range(1, size):
                dest = (rank + step) % size
                source = (rank - step) % size
                send_proc = self.isend(items[dest], dest, tag=tag + step, nbytes=nbytes)
                result[source] = yield from self.recv(source=source, tag=tag + step)
                yield send_proc
            return result

    def reduce_scatter(
        self,
        items: list[Any],
        op: Callable[[Any, Any], Any] | None = None,
        tag: int = 1_800_000,
        nbytes: float | None = None,
    ):
        """Reduce element-wise across ranks, scatter: rank i returns the
        reduction of every rank's ``items[i]`` (reduce + scatter halves)."""
        with self.world.telemetry.async_span(self._track, "mpi.reduce_scatter", "mpi"):
            size, rank = self.size, self.rank
            if len(items) != size:
                raise MPIError(f"reduce_scatter needs exactly {size} items per rank")
            if op is None:
                op = _default_sum
            reduced = yield from self.reduce(items, op=_elementwise(op), root=0,
                                             tag=tag, nbytes=nbytes)
            mine = yield from self.scatter(reduced, root=0, tag=tag + 1, nbytes=nbytes)
            return mine

    def scan(
        self,
        data: Any,
        op: Callable[[Any, Any], Any] | None = None,
        tag: int = 1_900_000,
        nbytes: float | None = None,
    ):
        """Inclusive prefix reduction: rank i returns op over ranks 0..i.

        Linear-chain algorithm (rank i receives the running prefix from
        i-1, folds its value, forwards to i+1) — MPI_Scan's semantics.
        """
        with self.world.telemetry.async_span(self._track, "mpi.scan", "mpi"):
            size, rank = self.size, self.rank
            if op is None:
                op = _default_sum
            value = data
            if rank > 0:
                prefix = yield from self.recv(source=rank - 1, tag=tag)
                value = op(prefix, data)
            if rank + 1 < size:
                yield from self.send(value, rank + 1, tag=tag, nbytes=nbytes)
            return value

    # -- helpers ----------------------------------------------------------------

    def _recv_message(self, tag: int, awaited: Collection[int]):
        """Receive and return the full Message (sender identity preserved).

        Timed by the world's :class:`RetryPolicy`, like :meth:`recv` from
        any source.  *awaited* are the ranks whose messages are still due:
        when one is known dead, before the wait or on its expiry, the
        receive raises :class:`RankFailedError` naming the lowest such rank,
        as :meth:`recv` from a dead source does.
        """
        world = self.world
        env = self.env
        start = env._now  # see send()
        dead = self._first_failed(awaited)
        if dead is not None:
            raise RankFailedError(
                dead, f"recv on rank {self.rank} from dead rank {dead} (tag {tag})"
            )
        observed = world.telemetry.enabled  # see send()
        span = NULL_SPAN
        if observed:
            span = world.telemetry.async_span(
                self._track, "mpi.recv", "mpi", source=ANY_SOURCE, tag=tag,
            )
        with span:
            get_ev = world._mailboxes[self.rank].get(ANY_SOURCE, tag)
            if world.retry is None:
                message = yield get_ev
            else:
                timeout = world.retry.timeout
                yield env.first_of(get_ev, timeout)
                if not get_ev._triggered:
                    raise self._expired(get_ev, ANY_SOURCE, tag, timeout, awaited)
                message = get_ev._value
            if observed:
                span.set(src=message.src, nbytes=message.nbytes)
        stats = world.stats[self.rank]
        stats.bytes_received += message.nbytes
        stats.messages_received += 1
        stats.comm_seconds += env._now - start
        world._record_delivery(message)
        if world.tracer is not None:
            world.tracer.record_recv(
                self.rank, message.src, message.nbytes, start, env._now, message.tag
            )
        return message

    def _expired(self, get_ev, source: int, tag: int, timeout: float,
                 awaited: Collection[int] = ()) -> MPIError:
        """Withdraw a timed-out receive; the error it raises.

        :class:`RankFailedError` when the awaited peer (*source*, or the
        lowest of *awaited* for a receive from any source) is known dead,
        :class:`MPITimeoutError` otherwise.
        """
        self.world._mailboxes[self.rank].cancel(get_ev)
        dead = self._first_failed((source,) if source != ANY_SOURCE else awaited)
        if dead is not None:
            return RankFailedError(
                dead,
                f"recv on rank {self.rank}: rank {dead} died while "
                f"awaited (tag {tag})",
            )
        return MPITimeoutError(
            f"recv on rank {self.rank} from "
            f"{'any source' if source == ANY_SOURCE else f'rank {source}'} "
            f"(tag {tag}) timed out after {timeout} s"
        )

    def _first_failed(self, ranks: Collection[int]) -> int | None:
        """The lowest of *ranks* known dead, or None."""
        return min(self.world._failed_ranks.intersection(ranks), default=None)


def _default_sum(a: Any, b: Any) -> Any:
    """Elementwise sum for NumPy payloads, ``+`` otherwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.add(a, b)
    return a + b


def _elementwise(op: Callable[[Any, Any], Any]) -> Callable[[list, list], list]:
    """Lift a binary op to element-wise application over equal-length lists."""

    def apply(a: list, b: list) -> list:
        return [op(x, y) for x, y in zip(a, b)]

    return apply

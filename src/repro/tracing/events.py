"""Trace record types and the Trace container."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import TraceError


@dataclass(frozen=True)
class StateRecord:
    """A rank spent [start, end] in *state* ('compute' or 'gpu')."""

    rank: int
    state: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        """Duration of the state burst."""
        return self.end - self.start


@dataclass(frozen=True)
class CommRecord:
    """A send: *src* pushed *nbytes* toward *dst* over [start, end]."""

    src: int
    dst: int
    nbytes: float
    start: float
    end: float
    tag: int

    @property
    def seconds(self) -> float:
        """Send-side duration (serialization + latency)."""
        return self.end - self.start


@dataclass(frozen=True)
class RecvRecord:
    """A receive completed on *rank* from *src* over [start, end]."""

    rank: int
    src: int
    nbytes: float
    start: float
    end: float
    tag: int

    @property
    def seconds(self) -> float:
        """Receive-side wait duration."""
        return self.end - self.start


@dataclass(frozen=True)
class MarkerRecord:
    """A phase/iteration boundary emitted by the workload."""

    rank: int
    label: str
    time: float


@dataclass
class Trace:
    """A finished trace: all records plus world metadata."""

    n_ranks: int
    states: list[StateRecord] = field(default_factory=list)
    comms: list[CommRecord] = field(default_factory=list)
    recvs: list[RecvRecord] = field(default_factory=list)
    markers: list[MarkerRecord] = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise TraceError("trace needs at least one rank")

    @property
    def duration(self) -> float:
        """Wall-clock span of the trace."""
        return self.t_end - self.t_start

    #: States counted as local useful work (host-device copies included:
    #: the paper folds host/device synchronization into the Ser factor).
    USEFUL_STATES = ("compute", "gpu", "copy")

    def compute_seconds(self, rank: int, states: tuple[str, ...] | None = None) -> float:
        """Total useful (compute/gpu/copy) time of *rank*."""
        states = states or self.USEFUL_STATES
        return sum(s.seconds for s in self.states if s.rank == rank and s.state in states)

    def compute_seconds_all(self) -> list[float]:
        """Useful time per rank, rank-ordered."""
        totals = [0.0] * self.n_ranks
        for s in self.states:
            if s.state in self.USEFUL_STATES:
                totals[s.rank] += s.seconds
        return totals

    def bytes_sent(self, rank: int) -> float:
        """Total bytes sent by *rank*."""
        return sum(c.nbytes for c in self.comms if c.src == rank)

    def total_network_bytes(self) -> float:
        """All bytes on the wire (excluding loopback, which the fabric skips)."""
        return sum(c.nbytes for c in self.comms)

    def rank_ops(self, rank: int) -> list[object]:
        """The rank's ordered op stream (states, sends, recvs) by start time.

        This is the replay engine's input.
        """
        ops: list[tuple[float, float, object]] = []
        for s in self.states:
            if s.rank == rank and s.state in self.USEFUL_STATES:
                # Overlapped bursts (e.g. hpl look-ahead) are excluded: the
                # sequential replay would wrongly serialize them.
                ops.append((s.start, s.end, s))
        for c in self.comms:
            if c.src == rank:
                ops.append((c.start, c.end, c))
        for r in self.recvs:
            if r.rank == rank:
                ops.append((r.start, r.end, r))
        # Sort by (start, end): an op that *ends* at time t (e.g. a receive
        # completing) precedes an op that *starts* at t (the compute it
        # unblocked), preserving program order in the replayed stream.
        ops.sort(key=lambda item: (item[0], item[1]))
        return [op for _, _, op in ops]


def match_fifo(
    sends: Iterable[Any],
    recvs: Iterable[Any],
    send_link: Callable[[Any], tuple[int, int]],
    recv_link: Callable[[Any], tuple[int, int]],
) -> list[tuple[Any, Any]]:
    """Pair each send with the receive that consumed its message.

    Messages between one (src, dst) pair are delivered through a FIFO
    mailbox, so the k-th send from *src* to *dst* to complete is matched to
    the k-th receive on *dst* from *src* to complete.  ``send_link`` and
    ``recv_link`` map a record onto its ``(src, dst)`` pair.  Both sides are
    ordered by ``(end, start)``; the sort is stable, so ties keep the
    caller's order.  Returns ``(send, recv)`` for every send in that order,
    with ``recv`` ``None`` once the pair has run out of receives.
    """
    queues: dict[tuple[int, int], list[Any]] = {}
    for recv in sorted(recvs, key=_by_completion):
        queues.setdefault(recv_link(recv), []).append(recv)
    positions: dict[tuple[int, int], int] = {}
    pairs = []
    for send in sorted(sends, key=_by_completion):
        link = send_link(send)
        queue = queues.get(link, [])
        index = positions.get(link, 0)
        positions[link] = index + 1
        pairs.append((send, queue[index] if index < len(queue) else None))
    return pairs


def _by_completion(record) -> tuple[float, float]:
    return (record.end, record.start)

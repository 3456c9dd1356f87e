"""Trace record types and the columnar, immutable Trace container."""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Any, NamedTuple

import numpy as np

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


#: Column storage per field type: an ``array`` typecode for numbers; ``str``
#: fields are kept as a tuple of str.
_TYPECODES = {"int": "q", "float": "d", "str": ""}

_LAYOUTS = {
    record_type: tuple(_TYPECODES[f.type] for f in fields(record_type))
    for record_type in (StateRecord, CommRecord, RecvRecord, MarkerRecord)
}


def new_columns(record_type: type) -> list[Any]:
    """Empty, appendable columns for *record_type*, one per field."""
    return [array(code) if code else [] for code in _LAYOUTS[record_type]]


def _frozen(code: str, column: Iterable[Any]) -> Any:
    """A read-only column: a memoryview of an array, or a tuple of str."""
    if not code:
        return tuple(column)
    if not isinstance(column, array):
        column = array(code, column)
    return memoryview(column).toreadonly()


class Records(Sequence):
    """A read-only sequence of one record kind, stored one column per field.

    Numeric fields are read-only views of ``array`` buffers and ``str``
    fields are tuples, so a trace holds no per-event object for the garbage
    collector to track.  Records are built on each access and never cached;
    hot readers use :attr:`columns` (in the record's field order) directly.
    """

    __slots__ = ("record_type", "columns")

    def __init__(self, record_type: type, columns: Sequence[Any]) -> None:
        layout = _LAYOUTS[record_type]
        if len(columns) != len(layout) or len({len(c) for c in columns}) > 1:
            raise TraceError(f"malformed {record_type.__name__} columns")
        self.record_type = record_type
        self.columns = tuple(_frozen(code, column) for code, column in zip(layout, columns))

    @classmethod
    def from_rows(cls, record_type: type, rows: Iterable[Sequence[Any]]) -> Records:
        """Columns holding *rows*, each a field-ordered value sequence."""
        columns = list(zip(*rows)) or [()] * len(_LAYOUTS[record_type])
        return cls(record_type, columns)

    @classmethod
    def of(cls, record_type: type, records: Iterable[Any]) -> Records:
        """Columns holding *records* (each a *record_type* instance)."""
        if isinstance(records, Records) and records.record_type is record_type:
            return records
        names = [f.name for f in fields(record_type)]
        return cls.from_rows(
            record_type, ([getattr(r, name) for name in names] for r in records)
        )

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: int) -> Any:
        index = operator.index(index)
        return self.record_type(*(column[index] for column in self.columns))

    def __iter__(self) -> Iterator[Any]:
        return map(self.record_type, *self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        return self.record_type is other.record_type and self.columns == other.columns

    def __repr__(self) -> str:
        return f"<{len(self)} {self.record_type.__name__}s>"

    def __reduce__(self) -> tuple[type, tuple[type, tuple[Any, ...]]]:
        # Ship each numeric column's underlying array (a memoryview does
        # not pickle); the constructor rebuilds read-only views over it.
        return Records, (self.record_type, tuple(
            column.obj if isinstance(column, memoryview) else column
            for column in self.columns
        ))


#: Op kinds of a replay op stream; exact ties keep this order.
OP_STATE, OP_SEND, OP_RECV = 0, 1, 2


class OpTable(NamedTuple):
    """Every rank's replay op stream, as NumPy columns in replay order.

    Rank *r*'s ops are positions ``bounds[r]:bounds[r + 1]``.  ``index`` is
    the op's position in its own record kind (``kind``); ``peer`` is the
    destination of a send and the source of a receive; ``seconds`` is a
    state burst's duration (0 for messages).  ``sender`` is, for a receive,
    the position of the send whose message it consumes: the k-th receive
    of a (src, dst, tag) channel in table order takes the channel's k-th
    send, as the simulator's mailboxes deliver.  A receive its channel has
    no send for holds :data:`UNMATCHED`, every other op -1.
    """

    kind: np.ndarray
    index: np.ndarray
    peer: np.ndarray
    nbytes: np.ndarray
    seconds: np.ndarray
    sender: np.ndarray
    bounds: np.ndarray


#: ``OpTable.sender`` of an unmatched receive: beyond every table position.
UNMATCHED = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Trace:
    """A finished, immutable trace: all records plus world metadata.

    ``states``/``comms``/``recvs``/``markers`` accept any iterable of the
    matching records and are stored as :class:`Records` columns.
    """

    n_ranks: int
    states: Sequence[StateRecord] = ()
    comms: Sequence[CommRecord] = ()
    recvs: Sequence[RecvRecord] = ()
    markers: Sequence[MarkerRecord] = ()
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise TraceError("trace needs at least one rank")
        for name, record_type in (("states", StateRecord), ("comms", CommRecord),
                                  ("recvs", RecvRecord), ("markers", MarkerRecord)):
            object.__setattr__(self, name, Records.of(record_type, getattr(self, name)))

    @property
    def duration(self) -> float:
        """Wall-clock span of the trace."""
        return self.t_end - self.t_start

    #: States counted as local useful work (host-device copies included:
    #: the paper folds host/device synchronization into the Ser factor).
    USEFUL_STATES = ("compute", "gpu", "copy")

    def compute_seconds(self, rank: int, states: tuple[str, ...] | None = None) -> float:
        """Total time of *rank* in *states* (default: the useful states)."""
        if states is None:
            states = self.USEFUL_STATES
        return sum(
            end - start
            for r, state, start, end in zip(*self.states.columns)
            if r == rank and state in states
        )

    def compute_seconds_all(self) -> list[float]:
        """Useful time per rank, rank-ordered."""
        totals = [0.0] * self.n_ranks
        useful = self.USEFUL_STATES
        for rank, state, start, end in zip(*self.states.columns):
            if state in useful:
                totals[rank] += end - start
        return totals

    def bytes_sent(self, rank: int) -> float:
        """Total bytes sent by *rank*."""
        srcs, _, nbytes, _, _, _ = self.comms.columns
        return sum(n for src, n in zip(srcs, nbytes) if src == rank)

    def total_network_bytes(self) -> float:
        """All bytes on the wire (excluding loopback, which the fabric skips)."""
        return sum(self.comms.columns[2])

    def op_table(self) -> OpTable:
        """Every rank's op stream (useful states, sends, receives), ordered.

        This is the replay engine's input.  One stable lexsort over the
        concatenated columns orders each rank's ops by (start, end): an op
        that *ends* at time t (e.g. a receive completing) precedes an op that
        *starts* at t (the compute it unblocked), preserving program order.
        Exact ties keep states before sends before receives, each in trace
        order.  Overlapped bursts (e.g. hpl look-ahead) are not useful
        states and are left out: the sequential replay would wrongly
        serialize them.

        The table is built on first use and kept with the trace, so every
        replay of one trace shares it; its arrays are read-only, and it is
        left out of the trace's pickle (a receiver rebuilds it on demand).
        """
        table = self.__dict__.get("_op_table")
        if table is None:
            table = self._build_op_table()
            for column in table:
                column.flags.writeable = False
            object.__setattr__(self, "_op_table", table)
        return table

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_op_table", None)
        return state

    def _build_op_table(self) -> OpTable:
        s_rank, s_name, s_start, s_end = self.states.columns
        c_src, c_dst, c_nbytes, c_start, c_end, c_tag = map(np.asarray, self.comms.columns)
        r_rank, r_src, r_nbytes, r_start, r_end, r_tag = map(np.asarray, self.recvs.columns)
        useful = np.flatnonzero(
            np.fromiter((s in self.USEFUL_STATES for s in s_name), bool, len(s_name))
        )
        s_start, s_end = np.asarray(s_start)[useful], np.asarray(s_end)[useful]
        counts = (len(useful), len(c_src), len(r_rank))
        no_peer = np.zeros(counts[0], dtype=np.int64)
        rank = np.concatenate((np.asarray(s_rank)[useful], c_src, r_rank))
        order = np.lexsort((
            np.concatenate((s_end, c_end, r_end)),
            np.concatenate((s_start, c_start, r_start)),
            rank,
        ))
        rank, kind = rank[order], np.repeat((OP_STATE, OP_SEND, OP_RECV), counts)[order]
        peer = np.concatenate((no_peer, c_dst, r_src))[order]
        # Paired before the remaining columns exist, to keep the peak low.
        sender = _channel_senders(
            rank, kind, peer, np.concatenate((no_peer, c_tag, r_tag))[order])
        return OpTable(
            kind=kind,
            index=np.concatenate((useful, np.arange(counts[1]), np.arange(counts[2])))[order],
            peer=peer,
            nbytes=np.concatenate((np.zeros(counts[0]), c_nbytes, r_nbytes))[order],
            seconds=np.concatenate((s_end - s_start, np.zeros(counts[1] + counts[2])))[order],
            sender=sender,
            bounds=np.searchsorted(rank, np.arange(self.n_ranks + 1)),
        )

    def rank_ops(self, rank: int) -> list[object]:
        """The rank's ordered op stream as records (see :meth:`op_table`)."""
        if not 0 <= rank < self.n_ranks:
            raise TraceError(f"rank {rank} outside [0, {self.n_ranks})")
        table = self.op_table()
        lo, hi = table.bounds[rank], table.bounds[rank + 1]
        kinds = (self.states, self.comms, self.recvs)
        return [kinds[k][i] for k, i in zip(table.kind[lo:hi].tolist(),
                                             table.index[lo:hi].tolist())]


def match_fifo(sends: Sequence[Any], recvs: Sequence[Any]) -> np.ndarray:
    """Pair each receive with the send whose message it consumed.

    Messages between one (src, dst) pair are delivered through a FIFO
    mailbox, so the k-th send from *src* to *dst* to complete is matched to
    the k-th receive on *dst* from *src* to complete.  *sends* and *recvs*
    are ``(src, dst, start, end)`` columns.  Both sides are ordered by
    ``(end, start)``, ties in column order.  Returns, for each receive, the
    index of its send, or -1 once the pair has run out of sends.
    """
    s_src, s_dst, s_start, s_end = map(np.asarray, sends)
    r_src, r_dst, r_start, r_end = map(np.asarray, recvs)
    link = _links(np.concatenate((s_src, r_src)), np.concatenate((s_dst, r_dst)))
    return _fifo_senders(link[:len(s_src)], link[len(s_src):],
                         (s_start, s_end), (r_start, r_end))


def _channel_senders(
    rank: np.ndarray, kind: np.ndarray, peer: np.ndarray, tag: np.ndarray,
) -> np.ndarray:
    """``OpTable.sender`` over the table's ordered columns.

    Each (src, dst, tag) channel is paired FIFO in table order, which is
    each side's own rank order.
    """
    sends, recvs = np.flatnonzero(kind == OP_SEND), np.flatnonzero(kind == OP_RECV)
    channel = _links(np.concatenate((rank[sends], peer[recvs])),
                     np.concatenate((peer[sends], rank[recvs])))
    tags, code = np.unique(np.concatenate((tag[sends], tag[recvs])), return_inverse=True)
    channel *= len(tags)
    channel += code.reshape(-1)
    del tags, code
    found = _fifo_senders(channel[:len(sends)], channel[len(sends):])
    sender = np.full(len(kind), -1, np.int64)
    sender[recvs] = UNMATCHED
    matched = found >= 0
    sender[recvs[matched]] = sends[found[matched]]
    return sender


def _links(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One integer per (src, dst) pair, with ids shifted to start at 0."""
    low = min(src.min(initial=0), dst.min(initial=0))
    width = max(src.max(initial=0), dst.max(initial=0)) - low + 1
    return (src - low) * width + (dst - low)


def _fifo_senders(
    send_link: np.ndarray, recv_link: np.ndarray,
    send_by: tuple[np.ndarray, ...] = (), recv_by: tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """For each receive, the index of the send it consumed, or -1.

    Each side is ordered by link, then by its ``*_by`` lexsort keys (last
    key major), ties in column order; the k-th receive of a link takes the
    link's k-th send.
    """
    stride = len(send_link) + len(recv_link)
    send_keys, send_order = _fifo_keys(send_link, send_by, stride)
    recv_keys, recv_order = _fifo_keys(recv_link, recv_by, stride)
    senders = np.full(len(recv_link), -1, np.int64)
    if len(send_keys):
        slot = np.minimum(np.searchsorted(send_keys, recv_keys), len(send_keys) - 1)
        hit = send_keys[slot] == recv_keys
        senders[recv_order[hit]] = send_order[slot[hit]]
    return senders


def _fifo_keys(
    link: np.ndarray, by: tuple[np.ndarray, ...], stride: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``link * stride + ordinal`` keys in FIFO order, and that order.

    The k-th message of a link has the same key on both sides; *stride*
    exceeds every ordinal.
    """
    order = np.lexsort((*by, link))
    link = link[order]
    ordinal = np.arange(len(link)) - np.searchsorted(link, link)
    return link * stride + ordinal, order

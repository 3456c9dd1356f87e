"""Turning a run's trace into per-rank op streams.

The critical-path and decomposition analyses both need the same view of a
run: for every MPI rank, the time-ordered *leaf* operations it performed —
compute bursts, GPU kernels, host<->device staging, and the individual MPI
sends/receives (collectives decompose into those).  This module extracts
that view from the run's :class:`~repro.tracing.events.Trace`,
deterministically: one stable sort over explicit total-order keys, so the
same trace always yields the same op streams.

The streams are stored as columns, one NumPy array per field, in stream
order (DESIGN.md §10).  :class:`RankOp` records are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import AnalysisError
from repro.tracing.events import Trace, match_fifo

#: Op kinds in ``str`` order, so a kind's code sorts like its name.
OP_KINDS = ("compute", "copy", "gpu", "recv", "send")
KIND_CODES = {kind: code for code, kind in enumerate(OP_KINDS)}
RECV, SEND = KIND_CODES["recv"], KIND_CODES["send"]


@dataclass(frozen=True)
class RankOp:
    """One leaf operation on one rank's timeline."""

    rank: int
    kind: str  # "compute" | "gpu" | "copy" | "send" | "recv"
    name: str
    start: float
    end: float
    #: Peer rank for sends (destination) and receives (source); -1 for
    #: local work.
    peer: int = -1
    nbytes: float = 0.0

    @property
    def seconds(self) -> float:
        """Duration of the op."""
        return self.end - self.start


class OpStreams:
    """Per-rank leaf ops as columns, plus the run's time bounds.

    Every column holds all ranks' ops ordered by ``(rank, start, end, kind,
    name)``, exact ties in input order; rank *r*'s ops are positions
    ``bounds[r]:bounds[r + 1]``.  ``kind`` and ``name`` are codes into
    :data:`OP_KINDS` and :attr:`names`, both in ``str`` order.  ``ops``
    takes ``{rank: [RankOp, ...]}`` (synthetic streams) and is ordered the
    same way; :attr:`ops`, :meth:`rank_ops` and :meth:`all_ops` build
    records on each call and never cache them.
    """

    def __init__(
        self,
        n_ranks: int,
        ops: Mapping[int, list[RankOp]] | None = None,
        t_start: float = 0.0,
        t_end: float = 0.0,
    ) -> None:
        records = []
        for rank, rank_ops in (ops or {}).items():
            for op in rank_ops:
                if op.rank != rank:
                    raise AnalysisError(f"{op!r} listed under rank {rank}")
                if op.kind not in KIND_CODES:
                    raise AnalysisError(
                        f"unknown op kind {op.kind!r}; choose from {OP_KINDS}")
                records.append(op)
        names = sorted({op.name for op in records})
        codes = {name: code for code, name in enumerate(names)}
        self._set_columns(
            n_ranks, t_start, t_end, tuple(names),
            rank=np.array([op.rank for op in records], np.int64),
            kind=np.array([KIND_CODES[op.kind] for op in records], np.int64),
            name=np.array([codes[op.name] for op in records], np.int64),
            start=np.array([op.start for op in records], np.float64),
            end=np.array([op.end for op in records], np.float64),
            peer=np.array([op.peer for op in records], np.int64),
            nbytes=np.array([op.nbytes for op in records], np.float64),
        )

    @classmethod
    def _of_columns(
        cls, n_ranks: int, t_start: float, t_end: float,
        names: tuple[str, ...], **columns: np.ndarray,
    ) -> OpStreams:
        """Streams over unordered columns (see the class docstring)."""
        streams = cls.__new__(cls)
        streams._set_columns(n_ranks, t_start, t_end, names, **columns)
        return streams

    def _set_columns(
        self, n_ranks: int, t_start: float, t_end: float,
        names: tuple[str, ...], *, rank: np.ndarray, kind: np.ndarray,
        name: np.ndarray, start: np.ndarray, end: np.ndarray,
        peer: np.ndarray, nbytes: np.ndarray,
    ) -> None:
        if n_ranks < 1:
            raise AnalysisError("op streams need at least one rank")
        if not np.all(end >= start):
            raise AnalysisError("an op ends before it starts (or at NaN)")
        if np.any((rank < 0) | (rank >= n_ranks)):
            raise AnalysisError(f"an op's rank lies outside [0, {n_ranks})")
        message = (kind == SEND) | (kind == RECV)
        if np.any(message & ((peer < 0) | (peer >= n_ranks))):
            raise AnalysisError(f"a message's peer lies outside [0, {n_ranks})")
        order = np.lexsort((name, kind, end, start, rank))
        self.n_ranks = n_ranks
        self.t_start = t_start
        self.t_end = t_end
        self.names = names
        self.rank = rank[order]
        self.kind = kind[order]
        self.name = name[order]
        self.start = start[order]
        self.end = end[order]
        self.peer = peer[order]
        self.nbytes = nbytes[order]
        self.bounds = np.searchsorted(self.rank, np.arange(n_ranks + 1))
        for column in (self.rank, self.kind, self.name, self.start, self.end,
                       self.peer, self.nbytes, self.bounds):
            column.flags.writeable = False

    @property
    def duration(self) -> float:
        """Span of the extracted timeline."""
        return self.t_end - self.t_start

    def __len__(self) -> int:
        return len(self.rank)

    def __repr__(self) -> str:
        return (f"<OpStreams {len(self)} ops on {self.n_ranks} ranks, "
                f"[{self.t_start!r}, {self.t_end!r}]>")

    def _records(self, lo: int, hi: int) -> list[RankOp]:
        names = self.names
        return [
            RankOp(rank, OP_KINDS[kind], names[name], start, end, peer, nbytes)
            for rank, kind, name, start, end, peer, nbytes in zip(*(
                column[lo:hi].tolist() for column in (
                    self.rank, self.kind, self.name, self.start, self.end,
                    self.peer, self.nbytes)
            ))
        ]

    @property
    def ops(self) -> Mapping[int, list[RankOp]]:
        """``{rank: ops}`` for every rank with ops, rank-ordered."""
        return MappingProxyType({
            rank: self.rank_ops(rank) for rank in range(self.n_ranks)
            if self.bounds[rank] < self.bounds[rank + 1]
        })

    def rank_ops(self, rank: int) -> list[RankOp]:
        """The rank's ops, time-ordered (empty list for an idle rank)."""
        if not 0 <= rank < self.n_ranks:
            return []
        return self._records(int(self.bounds[rank]), int(self.bounds[rank + 1]))

    def all_ops(self) -> list[RankOp]:
        """Every op, ordered by (start, end, rank, kind, name)."""
        records = self._records(0, len(self))
        order = np.lexsort((self.name, self.kind, self.rank, self.end, self.start))
        return [records[i] for i in order.tolist()]

    def senders(self) -> np.ndarray:
        """For each op position, the position of the send a receive consumed.

        The pairing is :func:`~repro.tracing.events.match_fifo`, ties in
        stream order.  Non-receives and receives beyond their link's send
        count hold -1.
        """
        sends = np.flatnonzero(self.kind == SEND)
        recvs = np.flatnonzero(self.kind == RECV)
        found = match_fifo(
            (self.rank[sends], self.peer[sends], self.start[sends], self.end[sends]),
            (self.peer[recvs], self.rank[recvs], self.start[recvs], self.end[recvs]),
        )
        senders = np.full(len(self), -1, np.int64)
        matched = found >= 0
        senders[recvs[matched]] = sends[found[matched]]
        return senders


def extract_ops(trace: Trace) -> OpStreams:
    """Build the per-rank leaf-op streams from a finished trace.

    Ops that take no time are dropped.  Exact ties keep states before
    sends before receives, each in trace order.  Raises
    :class:`~repro.errors.AnalysisError` when the trace holds no rank
    activity.
    """
    s_rank, s_state, s_start, s_end = trace.states.columns
    c_src, c_dst, c_nbytes, c_start, c_end, _ = map(np.asarray, trace.comms.columns)
    r_rank, r_src, r_nbytes, r_start, r_end, _ = map(np.asarray, trace.recvs.columns)
    useful = np.fromiter((state in Trace.USEFUL_STATES for state in s_state),
                         bool, len(s_state))
    states = [state for state, keep in zip(s_state, useful.tolist()) if keep]
    dsts, dst_index = np.unique(c_dst, return_inverse=True)
    send_names = [f"mpi.send->r{dst}" for dst in dsts.tolist()]
    names = sorted({*states, *send_names, "mpi.recv"})
    codes = {name: code for code, name in enumerate(names)}
    n_states, n_sends, n_recvs = len(states), len(c_src), len(r_rank)
    kind = np.concatenate((
        np.fromiter((KIND_CODES[state] for state in states), np.int64, n_states),
        np.full(n_sends, SEND), np.full(n_recvs, RECV),
    ))
    name = np.concatenate((
        np.fromiter((codes[state] for state in states), np.int64, n_states),
        np.array([codes[n] for n in send_names], np.int64)[dst_index.reshape(-1)],
        np.full(n_recvs, codes["mpi.recv"]),
    ))
    columns = {
        "rank": np.concatenate((np.asarray(s_rank)[useful], c_src, r_rank)),
        "kind": kind,
        "name": name,
        "start": np.concatenate((np.asarray(s_start)[useful], c_start, r_start)),
        "end": np.concatenate((np.asarray(s_end)[useful], c_end, r_end)),
        "peer": np.concatenate((np.full(n_states, -1), c_dst, r_src)),
        "nbytes": np.concatenate((np.zeros(n_states), c_nbytes, r_nbytes)),
    }
    timed = columns["end"] > columns["start"]
    if not timed.any():
        raise AnalysisError("trace holds no rank activity")
    columns = {field: column[timed] for field, column in columns.items()}
    t_end = columns["end"].max().item()
    return OpStreams._of_columns(trace.n_ranks, 0.0, t_end, tuple(names), **columns)


def match_messages(streams: OpStreams) -> dict[tuple[int, int, float], RankOp]:
    """Pair each completed receive with the send that produced its message.

    The pairing is :meth:`OpStreams.senders`.  Returns ``{(dst_rank,
    src_rank, recv_end): send_op}``; receives beyond the send count (never
    true of a well-formed run) are left unmatched.  Two receives on one
    link ending at the same instant share a key, which holds the later
    send; :meth:`OpStreams.senders` tells them apart.
    """
    senders = streams.senders()
    records = streams._records(0, len(streams))
    recvs = np.flatnonzero(senders >= 0)
    # Completion order, so a shared key ends up holding the later send.
    recvs = recvs[np.lexsort((streams.start[recvs], streams.end[recvs]))]
    matches = {}
    for recv in recvs.tolist():
        op = records[recv]
        matches[(op.rank, op.peer, op.end)] = records[senders[recv]]
    return matches

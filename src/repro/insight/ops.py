"""Turning a run's trace into per-rank op streams.

The critical-path and decomposition analyses both need the same view of a
run: for every MPI rank, the time-ordered *leaf* operations it performed —
compute bursts, GPU kernels, host<->device staging, and the individual MPI
sends/receives (collectives decompose into those).  This module extracts
that view from the run's :class:`~repro.tracing.events.Trace`,
deterministically: every sort uses explicit total-order keys, so the same
trace always yields the same op streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.tracing.events import Trace, match_fifo


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


@dataclass
class OpStreams:
    """Per-rank leaf ops plus the run's time bounds."""

    n_ranks: int
    ops: dict[int, list[RankOp]] = field(default_factory=dict)
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def duration(self) -> float:
        """Span of the extracted timeline."""
        return self.t_end - self.t_start

    def rank_ops(self, rank: int) -> list[RankOp]:
        """The rank's ops, time-ordered (empty list for an idle rank)."""
        return self.ops.get(rank, [])

    def all_ops(self) -> list[RankOp]:
        """Every op, ordered by (start, end, rank, name)."""
        merged = [op for rank in sorted(self.ops) for op in self.ops[rank]]
        merged.sort(key=_op_key)
        return merged


def _op_key(op: RankOp) -> tuple:
    return (op.start, op.end, op.rank, op.kind, op.name)


def extract_ops(trace: Trace) -> OpStreams:
    """Build the per-rank leaf-op streams from a finished trace.

    Ops that take no time are dropped.  Raises
    :class:`~repro.errors.AnalysisError` when the trace holds no rank
    activity.
    """
    ops = [
        RankOp(s.rank, s.state, s.state, s.start, s.end)
        for s in trace.states if s.state in Trace.USEFUL_STATES
    ]
    ops += [
        RankOp(c.src, "send", f"mpi.send->r{c.dst}", c.start, c.end,
               peer=c.dst, nbytes=c.nbytes)
        for c in trace.comms
    ]
    ops += [
        RankOp(r.rank, "recv", "mpi.recv", r.start, r.end,
               peer=r.src, nbytes=r.nbytes)
        for r in trace.recvs
    ]
    streams: dict[int, list[RankOp]] = {}
    for op in ops:
        if op.end > op.start:
            streams.setdefault(op.rank, []).append(op)
    if not streams:
        raise AnalysisError("trace holds no rank activity")
    for rank_ops in streams.values():
        rank_ops.sort(key=_op_key)
    t_end = max(op.end for rank_ops in streams.values() for op in rank_ops)
    return OpStreams(n_ranks=trace.n_ranks, ops=streams, t_start=0.0, t_end=t_end)


def match_messages(streams: OpStreams) -> dict[tuple[int, int, float], RankOp]:
    """Pair each completed receive with the send that produced its message.

    The pairing is :func:`~repro.tracing.events.match_fifo` over the
    streams' sends and receives.  Returns ``{(dst_rank, src_rank,
    recv_end): send_op}``; receives beyond the send count (never true of a
    well-formed run) are left unmatched.
    """
    ops = streams.all_ops()
    pairs = match_fifo(
        [op for op in ops if op.kind == "send"],
        [op for op in ops if op.kind == "recv"],
        send_link=lambda op: (op.rank, op.peer),
        recv_link=lambda op: (op.peer, op.rank),
    )
    return {(recv.rank, recv.peer, recv.end): send
            for send, recv in pairs if recv is not None}

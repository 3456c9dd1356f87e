"""The live trace collector handed to jobs."""

from __future__ import annotations

from repro.errors import TraceError
from repro.tracing.events import (
    CommRecord,
    MarkerRecord,
    RecvRecord,
    Records,
    StateRecord,
    Trace,
    new_columns,
)


class Tracer:
    """Collects state/comm/marker records during a run.

    The MPI layer calls :meth:`record_comm` / :meth:`record_recv`; rank
    contexts call :meth:`record_state`; workloads call :meth:`mark` at
    iteration boundaries so Paraver-style chopping can find them.  Each
    record is appended field by field to per-kind columns (see
    :class:`~repro.tracing.events.Records`); once :meth:`finalize` has
    returned, the trace is immutable and every record call raises.
    """

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise TraceError("tracer needs at least one rank")
        self.n_ranks = n_ranks
        self._states = new_columns(StateRecord)
        self._comms = new_columns(CommRecord)
        self._recvs = new_columns(RecvRecord)
        self._markers = new_columns(MarkerRecord)
        self._finalized = False

    def record_state(self, rank: int, state: str, start: float, end: float) -> None:
        """One compute/GPU burst on *rank*."""
        self._check(rank, start, end)
        ranks, states, starts, ends = self._states
        ranks.append(rank)
        states.append(state)
        starts.append(start)
        ends.append(end)

    def record_comm(
        self, src: int, dst: int, nbytes: float, start: float, end: float, tag: int
    ) -> None:
        """One send from *src* to *dst* (called by the MPI layer)."""
        self._check(src, start, end, nbytes)
        self._check_rank(dst)
        srcs, dsts, sizes, starts, ends, tags = self._comms
        srcs.append(src)
        dsts.append(dst)
        sizes.append(nbytes)
        starts.append(start)
        ends.append(end)
        tags.append(tag)

    def record_recv(
        self, rank: int, src: int, nbytes: float, start: float, end: float, tag: int
    ) -> None:
        """One completed receive on *rank* from *src*."""
        self._check(rank, start, end, nbytes)
        ranks, srcs, sizes, starts, ends, tags = self._recvs
        ranks.append(rank)
        srcs.append(src)
        sizes.append(nbytes)
        starts.append(start)
        ends.append(end)
        tags.append(tag)

    def mark(self, rank: int, label: str, time: float) -> None:
        """A phase/iteration boundary."""
        self._check(rank, time, time)
        ranks, labels, times = self._markers
        ranks.append(rank)
        labels.append(label)
        times.append(time)

    def finalize(self, t_start: float = 0.0, t_end: float | None = None) -> Trace:
        """Freeze into a :class:`Trace`; *t_end* defaults to the last record."""
        self._finalized = True
        if t_end is None:
            ends = (self._states[3], self._comms[4], self._recvs[4], self._markers[2])
            t_end = max((max(column) for column in ends if column), default=t_start)
        return Trace(
            n_ranks=self.n_ranks,
            states=Records(StateRecord, self._states),
            comms=Records(CommRecord, self._comms),
            recvs=Records(RecvRecord, self._recvs),
            markers=Records(MarkerRecord, self._markers),
            t_start=t_start,
            t_end=t_end,
        )

    def _check(self, rank: int, start: float, end: float, nbytes: float = 0.0) -> None:
        if self._finalized:
            raise TraceError("trace already finalized: records are immutable")
        self._check_rank(rank)
        if not end >= start:
            raise TraceError(f"record ends before it starts: {start} > {end}")
        if not nbytes >= 0:
            raise TraceError(f"negative message size: {nbytes}")

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise TraceError(f"rank {rank} outside [0, {self.n_ranks})")

"""Trace-derived busy/communication/idle decomposition and the LB cross-check.

The paper's Figs. 5-6 explain strong-scaling loss through the
η = LB · Ser · Trf factors, which :mod:`repro.scalability` computes from a
Paraver-style trace plus its ideal-network replay.  This module derives the
per-rank busy / communication / idle split *directly from the trace's op
streams*, with no replay, and cross-checks the overlapping factor (load
balance, and η itself via η = mean(busy)/T) against the replay numbers —
two independent code paths over one recording of the run must agree, which
the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.insight.ops import KIND_CODES, RECV, SEND, OpStreams, extract_ops
from repro.scalability import EfficiencyBreakdown, parallel_efficiency
from repro.tracing.events import Trace


@dataclass(frozen=True)
class RankActivity:
    """One rank's time split over the run."""

    rank: int
    busy_seconds: float  # compute + gpu + copy
    comm_seconds: float  # union of MPI send/recv intervals
    idle_seconds: float  # everything else

    def fractions(self, duration: float) -> tuple[float, float, float]:
        """(busy, comm, idle) as shares of *duration*."""
        if duration <= 0:
            raise AnalysisError("duration must be positive")
        return (
            self.busy_seconds / duration,
            self.comm_seconds / duration,
            self.idle_seconds / duration,
        )


@dataclass(frozen=True)
class SpanBreakdown:
    """The whole run's op-stream activity split."""

    per_rank: tuple[RankActivity, ...]
    duration: float

    @property
    def n_ranks(self) -> int:
        """World size."""
        return len(self.per_rank)

    @property
    def load_balance(self) -> float:
        """LB = mean(busy) / max(busy), the paper's Eq. 4 factor."""
        busy = [r.busy_seconds for r in self.per_rank]
        top = max(busy)
        return (sum(busy) / len(busy)) / top if top > 0 else 1.0

    @property
    def efficiency(self) -> float:
        """η = mean(busy) / T — the product LB · Ser · Trf, replay-free."""
        if self.duration <= 0:
            return 0.0
        busy = [r.busy_seconds for r in self.per_rank]
        return (sum(busy) / len(busy)) / self.duration

    @property
    def mean_comm_fraction(self) -> float:
        """Average share of the run each rank spent inside MPI calls."""
        if self.duration <= 0:
            return 0.0
        comm = [r.comm_seconds for r in self.per_rank]
        return (sum(comm) / len(comm)) / self.duration


def decompose(trace: Trace) -> SpanBreakdown:
    """Per-rank busy/comm/idle split from a traced run."""
    return decompose_streams(extract_ops(trace))


def decompose_streams(streams: OpStreams) -> SpanBreakdown:
    """The split itself (exposed for synthetic-stream tests)."""
    duration = streams.duration
    if duration <= 0:
        raise AnalysisError("op streams carry no time")
    useful = np.isin(streams.kind, [KIND_CODES[state] for state in Trace.USEFUL_STATES])
    comms = (streams.kind == SEND) | (streams.kind == RECV)
    seconds = streams.end - streams.start
    bounds = streams.bounds.tolist()
    activities = []
    for rank in range(streams.n_ranks):
        window = slice(bounds[rank], bounds[rank + 1])
        # A sequential sum in stream order, like summing the records.
        busy = sum(seconds[window][useful[window]].tolist())
        in_mpi = comms[window]
        comm = _union_seconds(list(zip(streams.start[window][in_mpi].tolist(),
                                       streams.end[window][in_mpi].tolist())))
        idle = max(0.0, duration - busy - comm)
        activities.append(RankActivity(rank, busy, comm, idle))
    return SpanBreakdown(per_rank=tuple(activities), duration=duration)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals (sends overlap recvs)."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


@dataclass(frozen=True)
class EfficiencyCrossCheck:
    """Op-stream factors against the replay-derived Eq. 4 factors."""

    span: SpanBreakdown
    replay: EfficiencyBreakdown

    @property
    def lb_delta(self) -> float:
        """|LB(ops) - LB(replay)|; ~0 on a healthy pipeline."""
        return abs(self.span.load_balance - self.replay.load_balance)

    @property
    def eta_delta(self) -> float:
        """|η(ops) - LB·Ser·Trf(replay)|.

        The replay clamps Ser and Trf at 1.0, and the op streams end at the
        last op while the replay divides by the trace's own duration, so a
        small delta is expected; a large one means the decomposition and
        the replay disagree about the same run.
        """
        return abs(self.span.efficiency - self.replay.efficiency)

    def consistent(self, tolerance: float = 0.02) -> bool:
        """Whether both factors agree within *tolerance*."""
        return self.lb_delta <= tolerance and self.eta_delta <= tolerance


def cross_check(
    trace: Trace,
    rank_to_node: list[int] | None = None,
) -> EfficiencyCrossCheck:
    """Cross-check the op-stream decomposition against the replay one."""
    return EfficiencyCrossCheck(
        span=decompose(trace),
        replay=parallel_efficiency(trace, rank_to_node=rank_to_node),
    )

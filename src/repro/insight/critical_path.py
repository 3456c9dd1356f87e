"""Critical-path extraction over the op DAG of a traced run.

The critical path answers *where did the wall time actually go*: starting
from the rank that finished last, walk backwards through the run, and every
time the walk reaches a receive that gated progress, hop across the
matching send edge to the rank that produced the message.  The resulting
chain of segments covers the whole run end-to-end, and its split across
compute / GPU / staging / network / wait / idle is the per-run bottleneck
attribution the paper's Figs. 5-6 discussion does by hand.

The walk is deterministic: ops are totally ordered, ties break on explicit
keys, and every step strictly decreases the cursor time, so the same trace
always yields the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.insight.ops import OpStreams, RankOp, extract_ops, match_messages
from repro.tracing.events import Trace

#: Segment kinds in report order.  ``network`` covers send serialization and
#: cross-rank message edges, ``wait`` receives that the path could not
#: attribute to a sender, ``idle`` gaps with no recorded op.
SEGMENT_KINDS = ("compute", "gpu", "copy", "network", "wait", "idle")


@dataclass(frozen=True)
class CriticalSegment:
    """One hop of the critical path."""

    rank: int
    kind: str
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        """Duration of the segment."""
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The extracted path plus its time split."""

    segments: tuple[CriticalSegment, ...]
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        """Wall time the path covers."""
        return self.t_end - self.t_start

    @property
    def breakdown(self) -> dict[str, float]:
        """Seconds per segment kind, in :data:`SEGMENT_KINDS` order."""
        totals = {kind: 0.0 for kind in SEGMENT_KINDS}
        for segment in self.segments:
            totals[segment.kind] += segment.seconds
        return totals

    def fraction(self, kind: str) -> float:
        """Share of the path duration spent in *kind*."""
        if kind not in SEGMENT_KINDS:
            raise AnalysisError(
                f"unknown segment kind {kind!r}; choose from {SEGMENT_KINDS}"
            )
        return self.breakdown[kind] / self.duration if self.duration > 0 else 0.0

    @property
    def rank_visits(self) -> tuple[int, ...]:
        """Distinct ranks the path touches, ascending."""
        return tuple(sorted({s.rank for s in self.segments}))

    @property
    def dominant_kind(self) -> str:
        """The kind holding the largest share of the path."""
        totals = self.breakdown
        return max(SEGMENT_KINDS, key=lambda kind: (totals[kind], ))


def critical_path(trace: Trace) -> CriticalPath:
    """Extract the critical path from a traced run."""
    return critical_path_of_streams(extract_ops(trace))


def critical_path_of_streams(streams: OpStreams) -> CriticalPath:
    """The backward walk itself (exposed for synthetic-stream tests)."""
    matches = match_messages(streams)
    # Start on the rank whose last op ends the run (lowest rank on ties).
    last_end, start_rank = max(
        ((ops[-1].end, -rank) for rank, ops in streams.ops.items() if ops),
        default=(0.0, 0),
    )
    rank = -start_rank
    t = last_end
    segments: list[CriticalSegment] = []
    # Every iteration strictly decreases t, and each op can contribute at
    # most a handful of segments, so total steps are bounded.
    max_steps = 4 * sum(len(ops) for ops in streams.ops.values()) + 4
    for _ in range(max_steps):
        if t <= streams.t_start:
            break
        op = _covering_op(streams.rank_ops(rank), t)
        if op is None:
            # Nothing recorded before t on this rank: the remainder is idle
            # (rank startup / pre-first-op time).
            segments.append(CriticalSegment(rank, "idle", "startup",
                                            streams.t_start, t))
            t = streams.t_start
            break
        if op.end < t:
            # Gap between the op and the cursor: untracked time on the rank.
            segments.append(CriticalSegment(rank, "idle", "idle", op.end, t))
            t = op.end
            continue
        if op.kind == "recv":
            send = matches.get((op.rank, op.peer, op.end))
            if send is not None and send.rank != rank and send.start < t:
                # The receive completed when the sender's message landed:
                # hop the message edge and resume on the sender.
                segments.append(CriticalSegment(
                    rank, "network", f"msg r{send.rank}->r{rank}",
                    send.start, t,
                ))
                rank = send.rank
                t = send.start
                continue
            segments.append(CriticalSegment(
                rank, "wait", op.name, op.start, t))
            t = op.start
            continue
        kind = "network" if op.kind == "send" else op.kind
        segments.append(CriticalSegment(rank, kind, op.name, op.start, t))
        t = op.start
    else:  # pragma: no cover - defensive: the walk above always terminates
        raise AnalysisError("critical-path walk did not terminate")
    segments.reverse()
    return CriticalPath(
        segments=tuple(segments), t_start=t, t_end=last_end,
    )


def _covering_op(ops: list[RankOp], t: float) -> RankOp | None:
    """The op governing rank time *t*: latest-ending op starting before *t*.

    Ties (two ops ending together, e.g. a sendrecv's send and recv legs)
    prefer receives — a receive completion is the event that unblocks the
    program — then later starts (the innermost op).
    """
    best: RankOp | None = None
    for op in ops:
        if op.start >= t:
            continue
        if best is None or _cover_key(op, t) > _cover_key(best, t):
            best = op
    return best


def _cover_key(op: RankOp, t: float) -> tuple:
    capped_end = min(op.end, t)
    return (capped_end, op.kind == "recv", op.start, op.rank, op.name)

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
always yields the same path.  It runs on the streams' columns: the op
covering a time is found by bisecting the rank's sorted starts, and a
receive's send by its position (:meth:`~repro.insight.ops.OpStreams.senders`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.insight.ops import OP_KINDS, RECV, SEND, OpStreams, extract_ops
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
    bounds = memoryview(streams.bounds)
    # reach[i]: the latest end among the rank's ops up to position i.
    reach = streams.end.copy()
    for lo, hi in zip(bounds, bounds[1:]):
        np.maximum.accumulate(reach[lo:hi], out=reach[lo:hi])
    # The walk indexes memoryviews of the columns: no per-op Python copy.
    senders, ranks, kinds, names, starts, ends, reach = map(memoryview, (
        streams.senders(), streams.rank, streams.kind, streams.name,
        streams.start, streams.end, reach,
    ))

    def covering_op(rank: int, t: float) -> int:
        """The op governing rank time *t*: latest-ending op starting before *t*.

        Ends are capped at *t*.  Ties (two ops ending together, e.g. a
        sendrecv's send and recv legs) prefer receives — a receive
        completion is the event that unblocks the program — then later
        starts (the innermost op), then names, then stream order.  Returns
        the op's position, or -1 when no op starts before *t*.
        """
        lo = bounds[rank]
        hi = bisect_left(starts, t, lo, bounds[rank + 1])
        if hi == lo:
            return -1
        capped_end = min(reach[hi - 1], t)
        best, best_key = -1, None
        # Ops before the first to reach capped_end all end before it.
        for i in range(bisect_left(reach, capped_end, lo, hi), hi):
            if ends[i] >= capped_end:
                key = (kinds[i] == RECV, starts[i], names[i])
                if best < 0 or key > best_key:
                    best, best_key = i, key
        return best

    # Start on the rank whose last op ends the run (lowest rank on ties).
    last_end, start_rank = max(
        ((ends[hi - 1], -rank) for rank, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
         if hi > lo),
        default=(0.0, 0),
    )
    rank = -start_rank
    t = last_end
    segments: list[CriticalSegment] = []
    # Every iteration strictly decreases t, and each op can contribute at
    # most a handful of segments, so total steps are bounded.
    max_steps = 4 * len(streams) + 4
    for _ in range(max_steps):
        if t <= streams.t_start:
            break
        op = covering_op(rank, t)
        if op < 0:
            # Nothing recorded before t on this rank: the remainder is idle
            # (rank startup / pre-first-op time).
            segments.append(CriticalSegment(rank, "idle", "startup",
                                            streams.t_start, t))
            t = streams.t_start
            break
        if ends[op] < t:
            # Gap between the op and the cursor: untracked time on the rank.
            segments.append(CriticalSegment(rank, "idle", "idle", ends[op], t))
            t = ends[op]
            continue
        if kinds[op] == RECV:
            send = senders[op]
            if send >= 0 and ranks[send] != rank and starts[send] < t:
                # The receive completed when the sender's message landed:
                # hop the message edge and resume on the sender.
                segments.append(CriticalSegment(
                    rank, "network", f"msg r{ranks[send]}->r{rank}",
                    starts[send], t,
                ))
                rank = ranks[send]
                t = starts[send]
                continue
            segments.append(CriticalSegment(
                rank, "wait", streams.names[names[op]], starts[op], t))
            t = starts[op]
            continue
        kind = "network" if kinds[op] == SEND else OP_KINDS[kinds[op]]
        segments.append(CriticalSegment(
            rank, kind, streams.names[names[op]], starts[op], t))
        t = starts[op]
    else:  # pragma: no cover - defensive: the walk above always terminates
        raise AnalysisError("critical-path walk did not terminate")
    segments.reverse()
    return CriticalPath(
        segments=tuple(segments), t_start=t, t_end=last_end,
    )

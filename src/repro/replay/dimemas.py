"""The replay engine: re-times a trace under new network parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.tracing.events import OP_SEND, Trace


@dataclass(frozen=True)
class NetworkParams:
    """The replayed network: per-message latency and bandwidth."""

    latency: float  # seconds, one-way
    bandwidth: float  # bytes/s; math.inf for the ideal network
    # Intra-node messages (both ranks on one node) use the local bus instead.
    local_bandwidth: float = math.inf
    local_latency: float = 0.0

    def __post_init__(self) -> None:
        # ``not >=``/``not >``: NaN compares false both ways.
        if not (self.latency >= 0 and self.local_latency >= 0):
            raise TraceError("latency must be non-negative")
        if not (self.bandwidth > 0 and self.local_bandwidth > 0):
            raise TraceError("bandwidth must be positive")


#: Zero-latency, infinite-bandwidth network (the DIMEMAS ideal case).
IDEAL_NETWORK = NetworkParams(latency=0.0, bandwidth=math.inf)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one replay."""

    runtime: float
    rank_finish_times: tuple[float, ...]
    messages_replayed: int

    def speedup_over(self, original_runtime: float) -> float:
        """How much faster the replayed scenario is."""
        if self.runtime <= 0:
            return math.inf
        return original_runtime / self.runtime


def replay(
    trace: Trace,
    network: NetworkParams,
    compute_scale: list[float] | None = None,
    rank_to_node: list[int] | None = None,
) -> ReplayResult:
    """Re-time *trace* under *network*.

    Each rank's op stream (compute bursts, sends, receives; see
    :meth:`~repro.tracing.events.Trace.op_table`) is re-executed
    with original compute durations (optionally scaled per-rank by
    ``compute_scale``, one finite non-negative factor per rank) and
    transfer costs recomputed from *network*.
    A receive consumes the send the table pairs it with
    (``OpTable.sender``: FIFO per (src, dst, tag) channel, mirroring the
    simulator's mailbox semantics).
    """
    n = trace.n_ranks
    if compute_scale is not None:
        if len(compute_scale) != n:
            raise TraceError("compute_scale must have one entry per rank")
        for rank, scale in enumerate(compute_scale):
            # ``not <=/<``: NaN compares false both ways, as in NetworkParams.
            if not 0.0 <= scale < math.inf:
                raise TraceError(
                    f"compute_scale[{rank}] must be finite and non-negative, "
                    f"got {scale}"
                )
    if rank_to_node is not None and len(rank_to_node) < n:
        raise TraceError("rank_to_node must have an entry per rank")

    table = trace.op_table()
    # Every op's duration, vectorized with the IEEE operations of the
    # record-at-a-time replay the tests keep as reference: a burst times its
    # rank's scale, a send its latency plus bytes over bandwidth.  Receives
    # take no time of their own.
    op_rank = np.repeat(np.arange(n), np.diff(table.bounds))
    if compute_scale is None:
        durations = table.seconds.copy()
    else:
        durations = table.seconds * np.asarray(compute_scale, np.float64)[op_rank]
    sends = np.flatnonzero(table.kind == OP_SEND)
    nbytes = table.nbytes[sends]
    local = np.zeros(len(sends), bool)
    if rank_to_node is not None:
        nodes = np.asarray(rank_to_node)
        local = nodes[op_rank[sends]] == nodes[table.peer[sends]]
    for on_node, lat, bw in ((False, network.latency, network.bandwidth),
                             (True, network.local_latency, network.local_bandwidth)):
        pick = local == on_node
        durations[sends[pick]] = lat + (nbytes[pick] / bw if math.isfinite(bw) else 0.0)
    del op_rank, nbytes, local

    # Each op's slot holds its duration until the walk replaces it with the
    # op's finish time: a receive reads its send's arrival there.
    times = memoryview(durations)
    senders, peers = memoryview(table.sender), memoryview(table.peer)
    bounds = table.bounds.tolist()
    cursors, stops = bounds[:-1], bounds[1:]
    clocks = [0.0] * n
    remaining = bounds[-1] - bounds[0]
    while remaining:
        progressed = False
        for rank in range(n):
            first = i = cursors[rank]
            stop = stops[rank]
            clock = clocks[rank]
            while i < stop:
                sender = senders[i]
                if sender < 0:  # not a receive
                    clock += times[i]
                    times[i] = clock
                elif sender >= cursors[peers[i]]:
                    # Blocked: the send is not replayed yet.  A message to
                    # self sent earlier in this pass counts from the next
                    # pass, which this rank's progress ensures.
                    break
                elif times[sender] > clock:
                    clock = times[sender]
                i += 1
            if i > first:
                cursors[rank] = i
                clocks[rank] = clock
                remaining -= i - first
                progressed = True
        if not progressed:
            raise TraceError("replay deadlocked: unmatched receive in trace")

    return ReplayResult(
        runtime=max(clocks) if clocks else 0.0,
        rank_finish_times=tuple(clocks),
        messages_replayed=len(sends),
    )

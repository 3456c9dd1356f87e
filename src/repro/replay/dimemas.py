"""The replay engine: re-times a trace under new network parameters."""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass

from repro.errors import TraceError
from repro.tracing.events import OP_SEND, OP_STATE, Trace


@dataclass(frozen=True)
class NetworkParams:
    """The replayed network: per-message latency and bandwidth."""

    latency: float  # seconds, one-way
    bandwidth: float  # bytes/s; math.inf for the ideal network
    # Intra-node messages (both ranks on one node) use the local bus instead.
    local_bandwidth: float = math.inf
    local_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.local_latency < 0:
            raise TraceError("latency must be non-negative")
        if self.bandwidth <= 0 or self.local_bandwidth <= 0:
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
    ``compute_scale``) and transfer costs recomputed from *network*.
    Send/receive matching is FIFO per (src, dst, tag) channel, mirroring the
    simulator's mailbox semantics.
    """
    n = trace.n_ranks
    if compute_scale is not None and len(compute_scale) != n:
        raise TraceError("compute_scale must have one entry per rank")
    scale = compute_scale or [1.0] * n

    table = trace.op_table()
    kinds = table.kind.tolist()
    peers = table.peer.tolist()
    sizes = table.nbytes.tolist()
    tags = table.tag.tolist()
    seconds = table.seconds.tolist()
    bounds = table.bounds.tolist()
    cursors, stops = bounds[:-1], bounds[1:]
    clocks = [0.0] * n
    arrivals: dict[tuple[int, int, int], deque[float]] = defaultdict(deque)
    messages = 0

    def transfer_cost(src: int, dst: int, nbytes: float) -> float:
        if (
            rank_to_node is not None
            and rank_to_node[src] == rank_to_node[dst]
        ):
            bw, lat = network.local_bandwidth, network.local_latency
        else:
            bw, lat = network.bandwidth, network.latency
        return lat + (nbytes / bw if math.isfinite(bw) else 0.0)

    remaining = bounds[-1] - bounds[0]
    while remaining:
        progressed = False
        for rank in range(n):
            first = i = cursors[rank]
            stop = stops[rank]
            while i < stop:
                kind = kinds[i]
                if kind == OP_STATE:
                    clocks[rank] += seconds[i] * scale[rank]
                elif kind == OP_SEND:
                    cost = transfer_cost(rank, peers[i], sizes[i])
                    clocks[rank] += cost
                    arrivals[(rank, peers[i], tags[i])].append(clocks[rank])
                    messages += 1
                else:
                    channel = arrivals[(peers[i], rank, tags[i])]
                    if not channel:
                        break  # blocked: matching send not replayed yet
                    clocks[rank] = max(clocks[rank], channel.popleft())
                i += 1
            if i > first:
                cursors[rank] = i
                remaining -= i - first
                progressed = True
        if not progressed:
            raise TraceError("replay deadlocked: unmatched receive in trace")

    return ReplayResult(
        runtime=max(clocks) if clocks else 0.0,
        rank_finish_times=tuple(clocks),
        messages_replayed=messages,
    )

"""Paraver-style text timelines: one character row per rank.

Renders a :class:`~repro.tracing.events.Trace` as an ASCII Gantt chart:
``#`` CPU compute, ``g`` GPU kernel, ``c`` host<->device copy/sync, ``-``
communication (send-side), ``.`` idle/waiting.  A glance shows the load
imbalance and pipeline bubbles the scalability analysis quantifies.
"""

from __future__ import annotations

import math

from repro.errors import TraceError
from repro.tracing.events import Trace

#: Drawing priority (higher wins when states overlap a cell) and glyphs.
_GLYPHS = {"compute": "#", "gpu": "g", "copy": "c", "overlap": "o"}
_PRIORITY = {"compute": 3, "gpu": 4, "copy": 2, "overlap": 1}
_COMM_GLYPH = "-"


def render_timeline(trace: Trace, width: int = 80,
                    t0: float | None = None, t1: float | None = None) -> str:
    """Render *trace* (optionally a [t0, t1] window) as text rows."""
    if width < 8:
        raise TraceError("timeline width must be at least 8")
    start = trace.t_start if t0 is None else t0
    end = trace.t_end if t1 is None else t1
    if end <= start:
        raise TraceError(f"empty timeline window [{start}, {end}]")
    span = end - start

    def columns(s: float, e: float) -> range:
        if e < start or s >= end:  # entirely outside the window
            return range(0)
        lo = max(0, math.floor((s - start) / span * width))
        hi = min(width, math.floor((e - start) / span * width) + 1)
        return range(lo, hi)

    rows = [["."] * width for _ in range(trace.n_ranks)]
    priority = [[0] * width for _ in range(trace.n_ranks)]

    for comm in trace.comms:
        for col in columns(comm.start, comm.end):
            if priority[comm.src][col] < 1:
                rows[comm.src][col] = _COMM_GLYPH
                priority[comm.src][col] = 1
    for state in trace.states:
        glyph = _GLYPHS.get(state.state, "?")
        prio = _PRIORITY.get(state.state, 1)
        for col in columns(state.start, state.end):
            if priority[state.rank][col] < prio:
                rows[state.rank][col] = glyph
                priority[state.rank][col] = prio

    header = (
        f"t = {start:.3f}s .. {end:.3f}s   "
        f"(# compute, g gpu, c copy, - comm, . idle)"
    )
    body = "\n".join(
        f"r{rank:<3}|{''.join(row)}|" for rank, row in enumerate(rows)
    )
    return header + "\n" + body


def utilization_summary(trace: Trace) -> str:
    """Per-rank useful-time percentages under the timeline."""
    duration = trace.duration
    if duration <= 0:
        raise TraceError("trace has no duration")
    lines = [f"{'rank':<6}{'useful s':>10}{'useful %':>10}"]
    for rank in range(trace.n_ranks):
        useful = trace.compute_seconds(rank)
        lines.append(f"r{rank:<5}{useful:>10.3f}{100.0 * useful / duration:>10.1f}")
    return "\n".join(lines)

"""Extrae-like tracing: states, communications, and phase markers.

A :class:`Tracer` is handed to a :class:`~repro.cluster.job.Job`; workloads
and the MPI layer record into it.  The finished :class:`Trace` feeds the
Paraver-style chopping (`repro.tracing.paraver`) and the DIMEMAS-style
replay (`repro.replay`).
"""

from repro.tracing.events import (
    CommRecord,
    MarkerRecord,
    RecvRecord,
    StateRecord,
    Trace,
    match_fifo,
)
from repro.tracing.tracer import Tracer
from repro.tracing.paraver import (
    ParsedPrv,
    chop_iterations,
    chop_window,
    parse_prv_text,
    to_pcf_text,
    to_prv_text,
    write_prv,
)
from repro.tracing.timeline import render_timeline, utilization_summary

__all__ = [
    "CommRecord",
    "MarkerRecord",
    "RecvRecord",
    "StateRecord",
    "Trace",
    "Tracer",
    "ParsedPrv",
    "chop_iterations",
    "chop_window",
    "match_fifo",
    "parse_prv_text",
    "to_pcf_text",
    "to_prv_text",
    "write_prv",
    "render_timeline",
    "utilization_summary",
]

"""Paraver-style trace chopping and the ``.prv`` text exporter.

The paper chops iterative benchmarks' traces into single-iteration windows
(PARAVER) before feeding them to DIMEMAS.  We reproduce that with marker-
based chopping: workloads emit ``iteration`` markers on rank 0; the space
between consecutive markers is one iteration window.

The exporter writes the classic Paraver text format so our traces open in
the same tool the paper used: ``1:`` state records, ``2:`` event records
(markers), and ``3:`` communication records (each send FIFO-matched to its
receive).  Output is deterministic — fixed header stamp, nanosecond integer
times, total-order sort keys — so the same trace always serializes to the
same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TraceError
from repro.tracing.events import Trace, match_fifo

#: Paraver state values for the ``.prv`` / ``.pcf`` pair.  Fixed numbering
#: (never reordered) so old traces stay readable; unknown states map to 0.
STATE_VALUES = {
    "idle": 0,
    "compute": 1,
    "gpu": 2,
    "copy": 3,
    "overlap": 4,
}

#: Paraver event type used for workload markers (user-function range).
MARKER_EVENT_TYPE = 70000001

_NS = 1e9  # Paraver times are integer nanoseconds.


def _ns(t: float) -> int:
    return round(t * _NS)


def to_prv_text(trace: Trace) -> str:
    """Serialize *trace* as Paraver ``.prv`` text (byte-stable).

    One line per record: states (type 1), marker events (type 2), and
    communications (type 3, send matched to its receive through the same
    per-(src, dst) FIFO order the mailboxes deliver in).  Records are
    sorted by (time, type, rank, ...) total-order keys.
    """
    n = trace.n_ranks
    duration = _ns(trace.t_end)
    appl = ",".join("1:1" for _ in range(n))
    header = (f"#Paraver (00/00/00 at 00:00):{duration}_ns:"
              f"1({n}):1:{n}({appl})")
    lines: list[tuple[tuple, str]] = []
    for s in trace.states:
        cpu = s.rank + 1
        value = STATE_VALUES.get(s.state, 0)
        key = (_ns(s.start), 1, s.rank, _ns(s.end), value)
        lines.append((key, f"1:{cpu}:1:{cpu}:1:{_ns(s.start)}:{_ns(s.end)}:{value}"))
    for m in trace.markers:
        cpu = m.rank + 1
        key = (_ns(m.time), 2, m.rank, 0, 0)
        lines.append((key, f"2:{cpu}:1:{cpu}:1:{_ns(m.time)}:"
                           f"{MARKER_EVENT_TYPE}:1"))
    pairs = match_fifo(trace.comms, trace.recvs,
                       send_link=lambda c: (c.src, c.dst),
                       recv_link=lambda r: (r.src, r.rank))
    for comm, recv in pairs:
        scpu = comm.src + 1
        dcpu = comm.dst + 1
        if recv is not None:
            log_recv, phys_recv = _ns(recv.start), _ns(recv.end)
        else:
            # A send whose receive never completed (fault path): close the
            # record at the send's own end so the line stays well-formed.
            log_recv = phys_recv = _ns(comm.end)
        key = (_ns(comm.start), 3, comm.src, comm.dst, _ns(comm.end))
        lines.append((key, f"3:{scpu}:1:{scpu}:1:{_ns(comm.start)}:{_ns(comm.end)}:"
                           f"{dcpu}:1:{dcpu}:1:{log_recv}:{phys_recv}:"
                           f"{round(comm.nbytes)}:{comm.tag}"))
    lines.sort(key=lambda item: item[0])
    return "\n".join([header] + [line for _, line in lines]) + "\n"


def to_pcf_text() -> str:
    """The companion ``.pcf`` config naming the state and event values."""
    lines = [
        "DEFAULT_OPTIONS",
        "",
        "LEVEL               THREAD",
        "UNITS               NANOSEC",
        "",
        "STATES",
    ]
    lines += [f"{value}    {name.upper()}"
              for name, value in sorted(STATE_VALUES.items(), key=lambda kv: kv[1])]
    lines += [
        "",
        "EVENT_TYPE",
        f"9    {MARKER_EVENT_TYPE}    Workload marker",
        "VALUES",
        "1      marker",
    ]
    return "\n".join(lines) + "\n"


def write_prv(trace: Trace, path: str | Path) -> tuple[Path, Path]:
    """Write ``<path>`` (.prv) plus its sibling ``.pcf``; returns both paths."""
    prv_path = Path(path)
    prv_path.write_text(to_prv_text(trace), encoding="utf-8")
    pcf_path = prv_path.with_suffix(".pcf")
    pcf_path.write_text(to_pcf_text(), encoding="utf-8")
    return prv_path, pcf_path


@dataclass
class ParsedPrv:
    """A ``.prv`` text read back: header plus per-type record tuples."""

    header: str
    n_ranks: int
    duration_ns: int
    states: list[tuple] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)
    comms: list[tuple] = field(default_factory=list)


def parse_prv_text(text: str) -> ParsedPrv:
    """Parse ``.prv`` text back into record tuples (for tests and tools)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#Paraver"):
        raise TraceError("not a Paraver .prv text: missing #Paraver header")
    header = lines[0]
    # The date parenthetical contains colons; fields start after "):".
    fields = header.split("):", 1)[-1].split(":")
    try:
        duration_ns = int(fields[0].removesuffix("_ns"))
        n_ranks = int(fields[1].split("(")[1].rstrip(")"))
    except (IndexError, ValueError) as exc:
        raise TraceError(f"malformed .prv header: {header!r}") from exc
    parsed = ParsedPrv(header=header, n_ranks=n_ranks, duration_ns=duration_ns)
    buckets = {1: parsed.states, 2: parsed.events, 3: parsed.comms}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(":")
        try:
            record_type = int(parts[0])
            bucket = buckets[record_type]
        except (ValueError, KeyError) as exc:
            raise TraceError(f"bad .prv record on line {lineno}: {line!r}") from exc
        bucket.append(tuple(int(p) for p in parts[1:]))
    return parsed


def chop_window(trace: Trace, t0: float, t1: float) -> Trace:
    """A sub-trace containing records overlapping [t0, t1], clipped.

    States are clipped to the window; comms/recvs are kept if they *start*
    inside it (the replay engine re-times them anyway).
    """
    if t1 <= t0:
        raise TraceError(f"empty window [{t0}, {t1}]")
    states = [
        type(s)(s.rank, s.state, max(s.start, t0), min(s.end, t1))
        for s in trace.states
        if s.end > t0 and s.start < t1
    ]
    comms = [c for c in trace.comms if t0 <= c.start < t1]
    recvs = [r for r in trace.recvs if t0 <= r.start < t1]
    markers = [m for m in trace.markers if t0 <= m.time < t1]
    return Trace(
        n_ranks=trace.n_ranks,
        states=states,
        comms=comms,
        recvs=recvs,
        markers=markers,
        t_start=t0,
        t_end=t1,
    )


def chop_iterations(trace: Trace, label: str = "iteration", rank: int = 0) -> list[Trace]:
    """Split into per-iteration windows between *rank*'s markers.

    The paper uses the whole trace as a single phase for hpl (no markers) —
    callers get that behaviour by simply not emitting markers, in which case
    this returns the full trace as one window.
    """
    times = sorted(m.time for m in trace.markers if m.label == label and m.rank == rank)
    if len(times) < 2:
        return [trace]
    return [chop_window(trace, t0, t1) for t0, t1 in zip(times[:-1], times[1:])]

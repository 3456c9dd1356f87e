"""One measured pass of one workload, in a fresh interpreter.

Run as ``python -m benchmarks.perf.child WORKLOAD SEED MODE SCRATCH``; the
parent (:mod:`benchmarks.perf.cli`) creates the empty SCRATCH directory,
sets the environment (no disk cache, default engine, one BLAS thread) and
reads the JSON object this prints as its last line.  Modes:

* ``setup``: import and build the ops, then stop (a set-up sample);
* ``bare``: run every op, timed from outside around its public call;
* ``trace``: the same under cProfile, enabled around the ops only, and
  report the per-layer roll-up and the ops' simulated-domain counts.

``setup`` and ``bare`` children also run the host-speed probe
(:mod:`benchmarks.perf.speed`) and report their times both as measured
and rescaled to the reference speed.  Traced children do not: the
profiler would slow the probe along with everything else.
"""

import time

#: Child entry: set-up time is measured from here, before ``import repro``.
T0 = time.perf_counter()

import cProfile
import hashlib
import json
import pstats
import random
import resource
import sys
import traceback
from pathlib import Path
from typing import Any

from benchmarks.perf.speed import SpeedProbe, at_reference

MODES = ("setup", "bare", "trace")


def digest(text: str) -> str:
    """The sha256 an op's rendered output is checked by."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Spans:
    """Benchmark-side spans, kept in memory and shipped to the parent."""

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None, op: int | None) -> int:
        """Record one span (perf_counter seconds); returns its id."""
        self.rows.append({
            "id": len(self.rows), "name": name, "start": start - T0,
            "end": end - T0, "parent": parent, "op": op,
        })
        return len(self.rows) - 1


def run_ops(workload, ops, spans: Spans, profiler=None) -> tuple[list[dict], list]:
    """Issue *ops* back to back; returns per-op records and their results.

    An op that raises is recorded as failed and the loop goes on.
    """
    records, results = [], []
    batch_start = time.perf_counter()
    batch = spans.add("batch", batch_start, batch_start, parent=None, op=None)
    for index, op in enumerate(ops):
        result = None
        error = None
        start = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                result = op.call()
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception:  # an op failure is a measured outcome, not a crash
            error = traceback.format_exc()
        end = time.perf_counter()
        record = {"name": op.name, "start": start - T0, "seconds": end - start,
                  "error": error, "digest": None, "ok": False}
        span = spans.add(f"op {op.name}", start, end, parent=batch, op=index)
        if error is None:
            try:
                record["digest"] = digest(workload.render(result))
                record["ok"] = bool(workload.check(result))
                for label, row_start, row_end in workload.host_rows(result):
                    spans.add(label, row_start, row_end, parent=span, op=index)
            except Exception:
                record["error"] = traceback.format_exc()
        records.append(record)
        results.append(result)
    spans.rows[batch]["end"] = time.perf_counter() - T0
    return records, results


def measure(workload_name: str, seed: int, mode: str, scratch: Path,
            probe: SpeedProbe | None) -> dict[str, Any]:
    """Build, shuffle and (unless *mode* is ``setup``) run the workload.

    With a running *probe*, ``*_ref_s`` give the times at reference speed.
    """
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    spans = Spans()
    ops = workload.build(seed, scratch)
    random.Random(seed).shuffle(ops)
    setup_end = time.perf_counter()
    spans.add("setup", T0, setup_end, parent=None, op=None)
    out: dict[str, Any] = {"mode": mode, "setup_s": setup_end - T0, "ops": []}
    if probe is not None:
        out["setup_ref_s"], _ = at_reference([(T0, setup_end)], probe.samples)
    if mode != "setup":
        profiler = cProfile.Profile() if mode == "trace" else None
        records, results = run_ops(workload, ops, spans, profiler)
        out["ops"] = records
        out["wall_s"] = sum(record["seconds"] for record in records)
        if probe is not None:
            windows = [(T0 + r["start"], T0 + r["start"] + r["seconds"])
                       for r in records]
            out["wall_ref_s"], out["speed"] = at_reference(windows, probe.samples)
        if profiler is not None:
            import repro
            from benchmarks.perf.layers import rollup, sum_facts

            out["layers"] = rollup(pstats.Stats(profiler).stats,
                                   Path(repro.__file__).parent)
            out["facts"] = sum_facts(
                workload.facts(result) for result in results if result is not None
            )
    # ru_maxrss is KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["spans"] = spans.rows
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, scratch = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; choose from {MODES}")
    probe = None if mode == "trace" else SpeedProbe()
    if probe is not None:
        probe.start()
    try:
        result = measure(workload, int(seed), mode, Path(scratch), probe)
    finally:
        if probe is not None:
            probe.stop()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

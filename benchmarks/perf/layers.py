"""Roll a cProfile run up into per-layer metrics.

A layer is a ``repro`` subpackage, found from each profiled function's file
path.  Two buckets complete the picture: ``other`` (modules directly under
``repro`` and the subpackages not listed as layers) and ``external``
(everything outside the package: the stdlib, numpy, scipy, builtins, and
this benchmark's own frames).

Seconds are cProfile's ``tottime`` and are advisory: the profiler inflates
Python calls but not native work, which shifts the shares.  Calls are
exact and repeat from run to run.  cProfile counts each resumption of a
generator as a call, so the counts of generator functions (the MPI
collectives, ``Communicator.send``) are resumptions.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterable, Mapping

LAYERS = (
    "sim", "mpi", "network", "fastpath", "cuda", "hardware", "cluster",
    "workloads", "telemetry", "tracing", "replay", "insight", "faults",
    "campaign",
)
BUCKETS = LAYERS + ("other", "external")

#: Deterministic counts: metric -> (file under the package, function names).
COUNTED = {
    "sim.events": ("sim/core.py", ("step",)),
    "sim.resumes": ("sim/core.py", ("_resume",)),
    "network.transfers": ("network/fabric.py", ("transfer",)),
    "mpi.sends": ("mpi/communicator.py", ("send",)),
    "mpi.collectives": ("mpi/communicator.py", (
        "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
        "scatter", "alltoall", "reduce_scatter", "scan",
    )),
    # ("replay.calls" is the layer's own call total, so a distinct name.)
    "replay.replays": ("replay/dimemas.py", ("replay",)),
    "telemetry.spans": ("telemetry/sink.py", (
        "span", "async_span", "record_span",
    )),
    "campaign.store_puts": ("campaign/store.py", ("put",)),
}

#: Counts read from the ops' public results, not from the profile.
FACTS = ("network.wire_bytes", "mpi.retries", "faults.attempts")


def package_path(filename: str, package_root: PurePath) -> str | None:
    """*filename* relative to the package root (``sim/core.py``), or None."""
    try:
        return PurePath(filename).relative_to(package_root).as_posix()
    except ValueError:
        return None


def bucket_of(relative: str | None) -> str:
    """The layer bucket of a package-relative path (None: external)."""
    if relative is None:
        return "external"
    head, sep, _ = relative.partition("/")
    return head if sep and head in LAYERS else "other"


def rollup(
    stats: Mapping[tuple[str, int, str], tuple],
    package_root: PurePath,
) -> dict[str, float]:
    """Per-layer ``self_s``/``share``/``calls`` plus the :data:`COUNTED` counts.

    *stats* is ``pstats.Stats(...).stats``: ``(file, line, function)`` ->
    ``(primitive calls, total calls, tottime, cumtime, callers)``.
    """
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    counts = dict.fromkeys(COUNTED, 0)
    wanted = {
        (path, function): metric
        for metric, (path, functions) in COUNTED.items()
        for function in functions
    }
    for (filename, _line, function), (primitive, total, tottime, *_) in stats.items():
        relative = package_path(filename, package_root)
        bucket = bucket_of(relative)
        self_s[bucket] += tottime
        calls[bucket] += primitive
        # Python 3.12+ may report qualified names ("Fabric.transfer").
        metric = wanted.get((relative, function.rpartition(".")[2]))
        if metric is not None:
            counts[metric] += total
    busy = sum(self_s.values())
    metrics: dict[str, float] = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_s"] = self_s[bucket]
        metrics[f"{bucket}.share"] = self_s[bucket] / busy if busy else 0.0
        metrics[f"{bucket}.calls"] = calls[bucket]
    metrics.update(counts)
    return metrics


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{bucket}.{kind}" for bucket in BUCKETS
             for kind in ("self_s", "share", "calls")]
    return names + list(COUNTED) + list(FACTS) + ["trace_overhead"]


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".share"):
        return "fraction"
    if name == "network.wire_bytes":
        return "bytes"
    if name == "trace_overhead":
        return "ratio"
    return "count"


def sum_facts(facts: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Add up the per-op simulated-domain counts (absent ones are zero)."""
    totals = dict.fromkeys(FACTS, 0)
    for fact in facts:
        for name, value in fact.items():
            totals[name] += value
    return totals

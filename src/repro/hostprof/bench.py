"""Host-activity measurement: ``repro profile`` and ``BENCH_HOST.json``.

``BENCH_seed.json`` gates the *performance model* (simulated numbers);
this module gates the *simulator* — how much activity a fixed workload set
generates.  ``BENCH_HOST.json`` holds only deterministic ``counts``:
events, process switches, flow rounds, MPI hops, span emissions, and
heap/flow high-water marks per workload.  They are functions of the
workload alone and hard-gated exactly (any drift means a change altered
how much work the kernel does, which is precisely what a perf-oriented
change needs to see).  Wall time is not recorded here: profiled single-shot
timings mostly measure the profiler, so bare repeated wall-time numbers
come from ``benchmarks/perf`` instead.

Runs are always cold (a profiler observes real execution, not a cache
hit), with a telemetry sink attached so span-emission cost is included in
what is being profiled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.hostprof.clock import HostClock
from repro.hostprof.profiler import HostProfiler, format_hotspot_table

#: Schema version stamped into every BENCH_HOST.json.
#: v3 keeps only the deterministic ``counts`` section.
HOST_SCHEMA = 3

#: The fixed throughput set: two GPGPU codes plus one NPB CPU code, small
#: enough to finish in CI seconds but exercising fabric + MPI + telemetry.
PROFILE_WORKLOADS = ("cloverleaf", "jacobi", "cg")

_PROFILE_NODES = 4
_PROFILE_NETWORK = "10G"


@dataclass
class ProfileRun:
    """One profiled cold run: the workload identity plus its profiler."""

    name: str
    nodes: int
    network: str
    sim_seconds: float
    profiler: HostProfiler

    @property
    def wall_seconds(self) -> float:
        """Total advisory wall time the profiler charged to this run."""
        return sum(self.profiler.wall.values())


def profile_workload(
    name: str,
    nodes: int = _PROFILE_NODES,
    network: str = _PROFILE_NETWORK,
    clock: HostClock | None = None,
) -> ProfileRun:
    """Run *name* cold with a :class:`HostProfiler` attached.

    The profiler is attached to the cluster's environment before the run
    starts, so every event dispatch is observed; a telemetry sink rides
    along so span churn is part of the measured work.  All wall-clock
    readings stay inside the profiler (*clock* is injectable for tests).
    """
    from repro.campaign.spec import RunSpec, build_cluster, build_workload
    from repro.telemetry.sink import Telemetry
    from repro.workloads import ALL_NAMES

    if name not in ALL_NAMES:
        raise ConfigurationError(
            f"unknown workload {name!r}; known workloads: "
            f"{', '.join(sorted(ALL_NAMES))}"
        )
    spec = RunSpec.normalize(name, nodes=nodes, network=network)
    workload = build_workload(spec.name, spec.constructor_kwargs())
    profiler = HostProfiler(clock=clock)
    with profiler.section("build"):
        cluster = build_cluster(spec)
        cluster.env.set_host_profiler(profiler)
        telemetry = Telemetry(sample_interval=0.0)
    rpn = spec.ranks_per_node
    with profiler.section("run"):
        result = workload.run_on(
            cluster, ranks_per_node=rpn, tracer=None, telemetry=telemetry
        )
    profiler.finish()
    return ProfileRun(
        name=name,
        nodes=nodes,
        network=network,
        sim_seconds=result.elapsed_seconds,
        profiler=profiler,
    )


def collect_host_baseline(
    workloads: tuple[str, ...] = PROFILE_WORKLOADS,
    nodes: int = _PROFILE_NODES,
    network: str = _PROFILE_NETWORK,
    clock: HostClock | None = None,
) -> tuple[dict[str, Any], list[ProfileRun]]:
    """Measure the host-activity baseline for *workloads*.

    Returns the BENCH_HOST.json document plus the underlying profiled
    runs (the CLI renders the hotspot Markdown report from the latter).
    """
    runs = [
        profile_workload(name, nodes=nodes, network=network, clock=clock)
        for name in workloads
    ]
    document = {
        "schema": HOST_SCHEMA,
        "config": {"nodes": nodes, "network": network},
        "counts": {
            run.name: run.profiler.deterministic_counts() for run in runs
        },
    }
    return document, runs


def write_host_baseline(path: str | Path, baseline: dict[str, Any]) -> Path:
    """Serialize *baseline* byte-stably (sorted keys, trailing newline)."""
    path = Path(path)
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_host_baseline(path: str | Path) -> dict[str, Any]:
    """Read a BENCH_HOST.json file, validating its schema."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(
            f"host baseline {path} does not exist; write one first with "
            f"`python -m repro profile --bench --baseline {path}`"
        )
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != HOST_SCHEMA:
        raise ConfigurationError(
            f"host baseline {path} has schema {document.get('schema')!r}, "
            f"expected {HOST_SCHEMA}; regenerate it with "
            f"`python -m repro profile --bench --baseline {path}`"
        )
    return document


def compare_host_baseline(
    baseline: dict[str, Any], current: dict[str, Any]
) -> list[str]:
    """Drifted deterministic count fields, deterministically ordered.

    Only the ``counts`` section participates: these are exact-match
    integers.  Any other section is ignored.
    """
    drifts: list[str] = []
    base_counts = baseline.get("counts", {})
    curr_counts = current.get("counts", {})
    for workload in sorted(set(base_counts) | set(curr_counts)):
        base_row = base_counts.get(workload)
        curr_row = curr_counts.get(workload)
        if base_row is None or curr_row is None:
            state = "missing" if curr_row is None else "new"
            drifts.append(f"{workload}: workload {state} in current measurement")
            continue
        for field in sorted(set(base_row) | set(curr_row)):
            expected = base_row.get(field)
            observed = curr_row.get(field)
            if expected != observed:
                drifts.append(f"{workload}.{field}: {expected!r} -> {observed!r}")
    return drifts


def format_host_check(drifts: list[str]) -> str:
    """Human-readable drift summary for the CLI."""
    if not drifts:
        return "host profile check: all deterministic count fields match"
    lines = [
        f"host profile check: {len(drifts)} deterministic count field(s) "
        "drifted (the workload set now generates different kernel "
        "activity; rerun `python -m repro profile --bench` and commit "
        "BENCH_HOST.json if intentional):"
    ]
    lines += [f"  {drift}" for drift in drifts]
    return "\n".join(lines)


def format_host_report_markdown(runs: list[ProfileRun]) -> str:
    """The hotspot Markdown report CI uploads as an artifact."""
    lines = ["# Host profile — per-subsystem hotspots", ""]
    lines.append(
        "Wall columns are advisory (machine-dependent); call counts are "
        "deterministic for the fixed workload set."
    )
    for run in runs:
        lines.append("")
        lines.append(f"## {run.name} (nodes={run.nodes}, {run.network})")
        lines.append("")
        wall = run.wall_seconds
        rate = run.sim_seconds / wall if wall > 0 else 0.0
        lines.append(
            f"sim {run.sim_seconds:.6f} s in {wall:.4f} wall s "
            f"({rate:.1f} sim-s/wall-s)"
        )
        lines.append("")
        lines.append("```")
        lines.append(format_hotspot_table(run.profiler))
        lines.append("```")
    return "\n".join(lines) + "\n"

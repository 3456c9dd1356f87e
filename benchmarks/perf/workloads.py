"""The four benchmark workloads: which public calls each op makes, and what
of its output is digested, checked and counted.

Every workload is a closed loop of ops issued back to back by one client
(``jobs=1``, no threads, no pool).  Each op is one call of a public entry
point of ``repro``; the child process times it from outside.  ``repro`` is
imported inside :attr:`Workload.build`, so the import is part of the
measured set-up and the parent process never imports it.

Why these four (each stresses a different mix of layers):

* ``sweep``: bare, untraced, contention-free simulation at paper scale,
  plus the result store's write path.  Kernel, MPI and fabric work
  dominates; observability must cost nothing here.
* ``figures``: Fig. 5 regenerated cold.  Traced runs from 1 to 16 nodes on
  both NICs, DIMEMAS replays and USL fits: the paper's own job.
* ``report``: insight reports with telemetry recorded and analysed, where
  recording cost and the analysis layers show.
* ``faults``: crash, NIC degradation, a straggler and message loss with
  retry: the fabric path the fast path is ineligible for, plus MPI retry
  and restart.  The only workload whose work depends on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Paper scale: every workload runs its points at 16 nodes.
NODES = 16
REPORT_WORKLOADS = ("cg", "hpl", "cloverleaf")
FAULT_WORKLOADS = ("cloverleaf", "tealeaf3d", "cg")


@dataclass(frozen=True)
class Op:
    """One public call the client issues; ``call()`` returns its result."""

    name: str
    call: Callable[[], Any]


@dataclass(frozen=True)
class Workload:
    """How to build a workload's ops and read their results."""

    name: str
    #: False when the ops' outputs do not depend on the seed (it then only
    #: shuffles their order), so seed 0's reference digests apply to all.
    seeded: bool
    #: ``build(seed, scratch)`` imports repro and returns the ops.
    build: Callable[[int, Path], list[Op]]
    #: The text whose sha256 is the op's digest.
    render: Callable[[Any], str]
    #: Invariants that hold for every seed.
    check: Callable[[Any], bool]
    #: Simulated-domain counts: ``network.wire_bytes``, ``mpi.retries``,
    #: ``faults.attempts`` (whichever the result exposes).
    facts: Callable[[Any], dict[str, float]]
    #: Extra host spans ``(label, start, end)`` in ``time.perf_counter``
    #: seconds that the library recorded inside the op.
    host_rows: Callable[[Any], list[tuple[str, float, float]]] = field(
        default=lambda result: []
    )


# -- sweep --------------------------------------------------------------------


@dataclass
class _SweepResult:
    campaign: Any
    recorder: Any
    #: perf_counter reading taken when the recorder started its clock.
    origin: float


def _sweep_build(seed: int, scratch: Path) -> list[Op]:
    from repro.campaign import (
        ResultStore,
        build_campaign,
        run_campaign,
    )
    from repro.hostprof import CampaignHostRecorder
    from repro.workloads import ALL_NAMES

    store = ResultStore(scratch / "store")

    def op(spec) -> Op:
        def call() -> _SweepResult:
            origin = time.perf_counter()
            recorder = CampaignHostRecorder(clock=time.perf_counter)
            campaign = run_campaign([spec], jobs=1, store=store, host=recorder)
            return _SweepResult(campaign, recorder, origin)

        return Op(spec.name, call)

    specs = build_campaign(ALL_NAMES, nodes=(NODES,), networks=("10G",))
    return [op(spec) for spec in specs]


def _sweep_render(result: _SweepResult) -> str:
    from repro.campaign import format_campaign_table

    return format_campaign_table(result.campaign)


def _sweep_rows(result: _SweepResult) -> list[tuple[str, float, float]]:
    return [
        (f"spec {record['label']}", result.origin + record["submitted"],
         result.origin + record["finished"])
        for record in result.recorder.records.values()
        if record["finished"] is not None
    ]


SWEEP = Workload(
    name="sweep",
    seeded=False,
    build=_sweep_build,
    render=_sweep_render,
    check=lambda result: all(row.completed for row in result.campaign.rows),
    facts=lambda result: {
        "network.wire_bytes": sum(
            row.network_bytes for row in result.campaign.rows
        ),
    },
    host_rows=_sweep_rows,
)


# -- figures ------------------------------------------------------------------


def _figures_build(seed: int, scratch: Path) -> list[Op]:
    from repro.bench.experiments import gpgpu_scalability

    return [Op("fig5", gpgpu_scalability)]


def _curve_values(curve) -> tuple:
    return (curve.workload, curve.sizes, curve.measured_1g,
            curve.measured_10g, curve.ideal_network, curve.ideal_load_balance)


def _figures_render(curves) -> str:
    return "\n".join(repr(_curve_values(curve)) for curve in curves) + "\n"


def _figures_check(curves) -> bool:
    return bool(curves) and all(
        math.isfinite(value) and value > 0
        for curve in curves
        for series in _curve_values(curve)[2:]
        for value in series
    )


def _figures_facts(curves) -> dict[str, float]:
    # gpgpu_scalability returns speedups only; the runs behind them are
    # read back from run_workload's in-process memo (no new simulation).
    from repro.bench import run_workload

    total = 0.0
    for curve in curves:
        for nodes in (1, *curve.sizes):
            for network in ("1G", "10G"):
                run = run_workload(curve.workload, nodes=nodes,
                                   network=network, traced=True)
                total += run.result.network_bytes
    return {"network.wire_bytes": total}


FIGURES = Workload(
    name="figures",
    seeded=False,
    build=_figures_build,
    render=_figures_render,
    check=_figures_check,
    facts=_figures_facts,
)


# -- report -------------------------------------------------------------------


def _report_build(seed: int, scratch: Path) -> list[Op]:
    from repro.insight import build_report

    def op(name: str) -> Op:
        return Op(name, lambda: build_report(name, nodes=NODES, roofline="2d"))

    return [op(name) for name in REPORT_WORKLOADS]


def _report_render(report) -> str:
    from repro.insight import render_json

    return render_json(report)


REPORT = Workload(
    name="report",
    seeded=False,
    build=_report_build,
    render=_report_render,
    check=lambda report: report.runtime_seconds > 0,
    # Only the per-rank ridgeline exposes bytes; CPU-only cg has none.
    facts=lambda report: {
        "network.wire_bytes": sum(
            point.network_bytes for point in report.ridgeline.points
        ) if report.ridgeline is not None else 0,
    },
)


# -- faults -------------------------------------------------------------------


@dataclass
class _FaultResult:
    baseline: Any
    report: Any


def _faults_build(seed: int, scratch: Path) -> list[Op]:
    from repro.bench import run_workload
    from repro.faults.experiments import demo_schedule, run_degraded

    def op(name: str) -> Op:
        def call() -> _FaultResult:
            baseline = run_workload(name, nodes=NODES, traced=True)
            schedule = demo_schedule(NODES, baseline.runtime, seed)
            # run_degraded's clean half is served from run_workload's memo.
            return _FaultResult(baseline, run_degraded(name, schedule, nodes=NODES))

        return Op(name, call)

    return [op(name) for name in FAULT_WORKLOADS]


def _faults_render(result: _FaultResult) -> str:
    from repro.faults.experiments import format_report

    return format_report(result.report)


FAULTS = Workload(
    name="faults",
    seeded=True,
    build=_faults_build,
    render=_faults_render,
    check=lambda result: (
        result.report.completed
        and result.report.degraded_runtime >= result.report.baseline_runtime
    ),
    facts=lambda result: {
        "network.wire_bytes": result.baseline.result.network_bytes,
        "mpi.retries": result.report.total_retries,
        "faults.attempts": len(result.report.attempts),
    },
)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (SWEEP, FIGURES, REPORT, FAULTS)
}

"""Resilience experiments: the paper's measurements rerun under faults.

:func:`run_degraded` replays a benchmark (the Fig. 4/5 measurement path)
twice — once clean, once under a :class:`FaultSchedule` — with restart
semantics: a run killed by a node crash is restarted on the surviving
nodes (crashed nodes excluded, schedule remapped), and the wasted time of
every failed attempt counts against the degraded runtime, the way a real
batch job eats the cost of a mid-run failure.

The report quantifies the damage in the paper's own vocabulary: the
*effective* network ceiling of the extended Roofline (Eq. 3 with the NIC
rate time-averaged over degradation/flap windows) and the shift in the
LB · Ser · Trf efficiency decomposition (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.runner import ExperimentRun, run_workload
from repro.campaign.spec import build_cluster_spec
from repro.cluster.cluster import Cluster
from repro.core import measure_roofline_point
from repro.core.extended import RooflinePoint
from repro.errors import AnalysisError, ConfigurationError, TraceError
from repro.faults.model import (
    FaultSchedule,
    MessageLoss,
    NicDegradation,
    NodeCrash,
    StragglerJitter,
)
from repro.mpi import RetryPolicy
from repro.scalability.efficiency import EfficiencyBreakdown, parallel_efficiency
from repro.tracing import Tracer
from repro.units import to_gbyte_s, to_gflops
from repro.workloads import make_workload

#: Seed offset applied when a failed attempt excluded no node (pure message
#: loss / timeout): rerolling the streams is the only way forward.
_REROLL = 1


@dataclass
class AttemptRecord:
    """One launch of the degraded job."""

    nodes: int
    elapsed_seconds: float
    completed: bool
    failures: dict[int, str]
    excluded_nodes: tuple[int, ...]  # original numbering


@dataclass
class FaultExperimentReport:
    """Baseline vs degraded measurements for one benchmark."""

    workload: str
    system: str
    network: str
    nodes: int
    schedule: FaultSchedule
    baseline_runtime: float
    degraded_runtime: float
    wasted_seconds: float
    attempts: list[AttemptRecord]
    excluded_nodes: tuple[int, ...]
    completed: bool
    total_retries: int
    baseline_network_bandwidth: float
    effective_network_bandwidth: float
    baseline_point: RooflinePoint | None
    baseline_efficiency: EfficiencyBreakdown | None
    degraded_efficiency: EfficiencyBreakdown | None

    @property
    def slowdown(self) -> float:
        """Degraded / baseline runtime."""
        if self.baseline_runtime <= 0:
            return float("inf")
        return self.degraded_runtime / self.baseline_runtime

    @property
    def effective_attainable(self) -> float | None:
        """Eq. 3 re-evaluated with the degraded network ceiling."""
        point = self.baseline_point
        if point is None:
            return None
        model = replace(
            point.model, network_bandwidth=max(self.effective_network_bandwidth, 1e-9)
        )
        return model.attainable(
            point.operational_intensity, point.network_intensity
        )


def run_degraded(
    name: str,
    schedule: FaultSchedule,
    nodes: int = 4,
    network: str = "10G",
    system: str = "tx1",
    ranks_per_node: int | None = None,
    retry: RetryPolicy | None = None,
    max_restarts: int = 4,
    telemetry=None,
    use_cache: bool = True,
    **workload_kwargs,
) -> FaultExperimentReport:
    """Measure benchmark *name* clean and under *schedule*, with restarts.

    The *clean* baseline goes through ``run_workload``'s two-tier result
    cache (set ``use_cache=False`` to force a fresh measurement), so
    repeated fault studies over one benchmark warm-start the undamaged
    half from ``.repro-cache/``; degraded attempts are always simulated —
    fault injection mutates the cluster and is never cached.

    Each failed attempt's elapsed time is wasted (it counts toward the
    degraded runtime); nodes that crashed are excluded and the schedule is
    remapped onto the survivors.  A failed attempt that crashed no node
    (message loss exhausted the retry budget) rerolls the schedule seed —
    deterministic retry of an identical attempt would fail identically.

    A *telemetry* sink observes the **first** degraded attempt — the one the
    full schedule fires against, so crash/degradation spans land on its
    timeline.  (A sink binds to a single simulation environment; restart
    attempts build fresh clusters and run unobserved.)
    """
    baseline = run_workload(
        name, nodes=nodes, network=network, system=system,
        ranks_per_node=ranks_per_node, traced=True, use_cache=use_cache,
        **workload_kwargs,
    )
    baseline_runtime = baseline.runtime
    if retry is None:
        # Without a policy a survivor blocked on a dead peer waits forever,
        # and the attempt's wall clock stretches to whatever unrelated
        # events remain queued.  Default to dead-peer detection on the
        # job's own timescale: no healthy wait approaches a full baseline
        # runtime.
        retry = RetryPolicy(
            timeout=max(1e-4, baseline_runtime),
            max_retries=5,
            backoff_base=max(1e-6, 5e-3 * baseline_runtime),
            jitter=0.1,
        )

    attempts: list[AttemptRecord] = []
    excluded: list[int] = []
    # original_ids[i] = original numbering of current node i.
    original_ids = list(range(nodes))
    current_schedule = schedule
    wasted = 0.0
    total_retries = 0
    final: ExperimentRun | None = None

    for attempt_index in range(max_restarts + 1):
        workload = make_workload(name, **workload_kwargs)
        cluster = Cluster(build_cluster_spec(system, len(original_ids), network))
        rpn = ranks_per_node or workload.default_ranks_per_node
        tracer = Tracer(cluster.node_count * rpn)
        result = workload.run_on(
            cluster, ranks_per_node=rpn, tracer=tracer,
            faults=current_schedule, retry=retry, on_fault="tolerate",
            telemetry=telemetry if attempt_index == 0 else None,
        )
        total_retries += result.comm_retries
        crashed_now = tuple(original_ids[i] for i in cluster.failed_node_ids)
        record = AttemptRecord(
            nodes=cluster.node_count,
            elapsed_seconds=result.elapsed_seconds,
            completed=result.completed,
            failures=dict(result.failures),
            excluded_nodes=crashed_now,
        )
        attempts.append(record)
        if result.completed:
            final = ExperimentRun(
                workload=workload,
                cluster=cluster,
                result=result,
                trace=tracer.finalize(),
                rank_to_node=[r // rpn for r in range(cluster.node_count * rpn)],
            )
            break
        wasted += result.elapsed_seconds
        if crashed_now:
            excluded.extend(crashed_now)
            survivors = [
                i for i in range(cluster.node_count)
                if i not in cluster.failed_node_ids
            ]
            if not survivors:
                break
            mapping = {old: new for new, old in enumerate(survivors)}
            current_schedule = current_schedule.remap_nodes(mapping)
            original_ids = [original_ids[i] for i in survivors]
        else:
            # Nothing to exclude: reroll the stochastic streams.
            current_schedule = FaultSchedule(
                current_schedule.faults, seed=current_schedule.seed + _REROLL
            )

    completed = final is not None
    degraded_runtime = wasted + (final.runtime if final is not None else 0.0)

    # Effective network ceiling: the NIC's achievable rate scaled by the
    # worst node's time-averaged multiplier over the baseline window.
    nominal = baseline.cluster.spec.nic.achievable_rate
    window = max(baseline_runtime, 1e-12)
    effective = nominal * min(
        (schedule.mean_rate_multiplier(n, 0.0, window) for n in range(nodes)),
        default=1.0,
    )

    try:
        point = measure_roofline_point(
            name, baseline.result, baseline.cluster,
            precision=baseline.workload.precision,
        )
    except AnalysisError:
        point = None

    def _efficiency(run: ExperimentRun | None) -> EfficiencyBreakdown | None:
        if run is None or run.trace is None:
            return None
        try:
            return parallel_efficiency(run.trace, rank_to_node=run.rank_to_node)
        except TraceError:
            return None

    return FaultExperimentReport(
        workload=name,
        system=system,
        network=network,
        nodes=nodes,
        schedule=schedule,
        baseline_runtime=baseline_runtime,
        degraded_runtime=degraded_runtime,
        wasted_seconds=wasted,
        attempts=attempts,
        excluded_nodes=tuple(excluded),
        completed=completed,
        total_retries=total_retries,
        baseline_network_bandwidth=nominal,
        effective_network_bandwidth=effective,
        baseline_point=point,
        baseline_efficiency=_efficiency(baseline),
        degraded_efficiency=_efficiency(final),
    )


def demo_schedule(nodes: int, baseline_runtime: float, seed: int = 0) -> FaultSchedule:
    """The stock demo: a mid-run crash plus a degraded NIC and a straggler."""
    if nodes < 2:
        raise ConfigurationError("the demo needs at least 2 nodes")
    return FaultSchedule(
        (
            NodeCrash(node_id=nodes - 1, at=0.5 * baseline_runtime),
            NicDegradation(
                node_id=0, start=0.0, end=0.4 * baseline_runtime, multiplier=0.35
            ),
            StragglerJitter(rank=1, mean=0.08, std=0.02),
            MessageLoss(probability=0.01),
        ),
        seed=seed,
    )


def run_demo(
    name: str = "jacobi",
    nodes: int = 4,
    network: str = "10G",
    seed: int = 0,
    telemetry=None,
    use_cache: bool = True,
    **workload_kwargs,
) -> FaultExperimentReport:
    """The ``repro faults --demo`` experiment: degraded Jacobi end-to-end.

    Both baseline measurements (the schedule-sizing run here and the clean
    half inside :func:`run_degraded`) share one cache entry, so a repeat
    demo warm-starts them from the persistent store.
    """
    workload_kwargs.setdefault("n", 4096)
    workload_kwargs.setdefault("iterations", 30)
    baseline = run_workload(
        name, nodes=nodes, network=network, system="tx1", traced=True,
        use_cache=use_cache, **workload_kwargs,
    )
    schedule = demo_schedule(nodes, baseline.runtime, seed=seed)
    # Timeout: a handful of iteration periods — long enough that a slow
    # neighbour is not mistaken for a dead one, short enough that dead-peer
    # detection costs a bounded slice of the run.
    iterations = workload_kwargs.get("iterations", 30)
    timeout = max(1e-4, 4.0 * baseline.runtime / max(iterations, 1))
    retry = RetryPolicy(
        timeout=timeout,
        max_retries=5,
        backoff_base=timeout / 50.0,
        backoff_factor=2.0,
        jitter=0.1,
    )
    return run_degraded(
        name, schedule, nodes=nodes, network=network, system="tx1",
        retry=retry, telemetry=telemetry, use_cache=use_cache,
        **workload_kwargs,
    )


def format_report(report: FaultExperimentReport) -> str:
    """Human-readable summary of a resilience experiment."""
    lines = [
        f"Resilience report: {report.workload} on {report.nodes}x {report.system} "
        f"({report.network})",
        f"  schedule: {len(report.schedule)} faults, seed={report.schedule.seed}",
        f"  baseline runtime : {report.baseline_runtime:.4f} s",
    ]
    if report.completed:
        lines.append(
            f"  degraded runtime : {report.degraded_runtime:.4f} s "
            f"({report.slowdown:.2f}x, {report.wasted_seconds:.4f} s wasted in "
            f"failed attempts)"
        )
    else:
        lines.append(
            f"  degraded run DID NOT complete within "
            f"{len(report.attempts)} attempts "
            f"({report.wasted_seconds:.4f} s wasted)"
        )
    for i, attempt in enumerate(report.attempts):
        status = "completed" if attempt.completed else (
            f"FAILED ({len(attempt.failures)} ranks; "
            + (f"crashed nodes {list(attempt.excluded_nodes)}"
               if attempt.excluded_nodes else "no node lost")
            + ")"
        )
        lines.append(
            f"  attempt {i + 1}: {attempt.nodes} nodes, "
            f"{attempt.elapsed_seconds:.4f} s, {status}"
        )
    if report.excluded_nodes:
        lines.append(f"  excluded nodes   : {list(report.excluded_nodes)}")
    ratio = (
        report.effective_network_bandwidth / report.baseline_network_bandwidth
        if report.baseline_network_bandwidth > 0 else 0.0
    )
    lines.append(
        f"  network ceiling  : {to_gbyte_s(report.baseline_network_bandwidth):.3f}"
        f" GB/s -> effective"
        f" {to_gbyte_s(report.effective_network_bandwidth):.3f} GB/s"
        f" ({100.0 * ratio:.1f}%)"
    )
    point = report.baseline_point
    if point is not None and report.effective_attainable is not None:
        lines.append(
            f"  roofline bound   : {to_gflops(point.attainable):.3f} GFLOP/s"
            f" -> effective {to_gflops(report.effective_attainable):.3f} GFLOP/s"
            f" at (OI={point.operational_intensity:.2f},"
            f" NI={point.network_intensity:.2f})"
        )
    base_eff, deg_eff = report.baseline_efficiency, report.degraded_efficiency
    if base_eff is not None:
        lines.append(
            f"  LB-Ser-Trf (base): LB={base_eff.load_balance:.3f} "
            f"Ser={base_eff.serialization:.3f} Trf={base_eff.transfer:.3f} "
            f"eta={base_eff.efficiency:.3f}"
        )
    if deg_eff is not None:
        lines.append(
            f"  LB-Ser-Trf (deg) : LB={deg_eff.load_balance:.3f} "
            f"Ser={deg_eff.serialization:.3f} Trf={deg_eff.transfer:.3f} "
            f"eta={deg_eff.efficiency:.3f}"
        )
    return "\n".join(lines)

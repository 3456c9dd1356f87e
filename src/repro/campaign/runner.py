"""Campaign execution: shard a grid of RunSpecs across worker processes.

A *campaign* is an ordered, deduplicated list of
:class:`~repro.campaign.spec.RunSpec`; :func:`run_campaign` executes it —
warm specs straight from the persistent store, cold specs handed to the
:class:`~repro.campaign.supervisor.CampaignSupervisor`, which fans them
over a ``ProcessPoolExecutor`` (or runs serially with ``jobs=1``) with
retries, worker-crash recovery, hung-task timeouts, and poison-spec
quarantine — and merges results **by spec identity, never by completion
order**, so the summary table is byte-identical whatever the worker
interleaving (or fault history: a transient crash retried to success
produces the same row as a clean run).

Campaign-level telemetry (cache hits/misses, runs executed, retries,
quarantines, lost workers, worker utilization) is recorded on a standard
:class:`~repro.telemetry.instruments.Registry` so the counters export
through the existing Prometheus-style writer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.campaign.chaos import ChaosSchedule, corrupt_store_entry
from repro.campaign.serialize import (
    UncacheableRunError,
    result_from_payload,
    run_to_payload,
    summarize_result,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, default_store
from repro.campaign.supervisor import (
    OUTCOME_OK,
    CampaignSupervisor,
    SpecRecord,
)
from repro.core import (
    DRAM_LEVEL,
    L2_LEVEL,
    NETWORK_LEVEL,
    Placement,
    RunTotals,
    place,
)
from repro.errors import ConfigurationError, SpecQuarantinedError
from repro.telemetry.instruments import Registry

#: Sentinel: "use the process default store" (None means "no store").
_DEFAULT_STORE = object()


@dataclass(frozen=True)
class CampaignRow:
    """One merged campaign result: spec identity plus summary metrics."""

    workload: str
    system: str
    nodes: int
    network: str
    ranks_per_node: int
    runtime_seconds: float
    gflops: float
    mflops_per_watt: float
    energy_joules: float
    network_bytes: float
    completed: bool
    #: True when this row came from the persistent store (no simulation).
    cached: bool
    #: Supervisor taxonomy: ok / retried / quarantined / lost-worker.
    outcome: str = "ok"
    #: Execution attempts consumed (1 for a clean first-try run).
    attempts: int = 1
    #: Last error text for quarantined / lost-worker rows.
    error: str | None = None
    #: Hierarchical-roofline inputs (zero for CPU-only / failed rows).
    gpu_flops: float = 0.0
    gpu_dram_bytes: float = 0.0
    gpu_l2_bytes: float = 0.0
    #: The run under its cluster's ceilings; None when the row has no
    #: GPGPU measurements to place.
    placement: Placement | None = None

    @property
    def binding_level(self) -> str | None:
        """Binding bandwidth roof (l2 / dram / network), if placed."""
        return None if self.placement is None else self.placement.binding_level


@dataclass
class CampaignResult:
    """Everything :func:`run_campaign` measured, deterministically ordered."""

    rows: list[CampaignRow]
    cache_hits: int
    cache_misses: int
    jobs: int
    workers_used: int
    registry: Registry
    #: Failed attempts that were retried (events, not specs).
    retried: int = 0
    #: Specs that exhausted their retry budget on in-worker errors.
    quarantined: int = 0
    #: Attempts lost to worker death or the task timeout.
    lost_workers: int = 0
    #: Process pools torn down and rebuilt (crashes + hangs).
    pool_rebuilds: int = 0
    #: Tasks culled by the per-task timeout watchdog.
    timeouts: int = 0
    #: Corrupt store entries detected, deleted, and re-run.
    store_repairs: int = 0

    @property
    def runs(self) -> int:
        """Number of distinct specs in the campaign."""
        return len(self.rows)

    @property
    def failed_rows(self) -> list[CampaignRow]:
        """Rows that ended quarantined / lost-worker (no measurements)."""
        return [row for row in self.rows if not row.completed]

    def raise_for_failures(self) -> None:
        """Strict mode: raise :class:`SpecQuarantinedError` on any failure.

        ``run_campaign`` itself never raises for quarantined specs — the
        campaign *completes* and names them.  Callers that need
        all-or-nothing semantics opt in here.
        """
        failed = self.failed_rows
        if failed:
            listing = "; ".join(
                f"{row.workload}/{row.system}x{row.nodes}/{row.network} "
                f"({row.outcome} after {row.attempts} attempts: {row.error})"
                for row in failed
            )
            raise SpecQuarantinedError(
                f"{len(failed)} of {len(self.rows)} specs did not "
                f"complete: {listing}"
            )


#: ``RunSpec.normalize``'s own parameters: a campaign sets them for the whole
#: grid, so no ``workload_kwargs`` entry may name one.
_SPEC_SETTINGS = (
    "name", "nodes", "network", "system", "ranks_per_node", "traced", "hardware",
)


def build_campaign(
    workloads: Sequence[str],
    nodes: Sequence[int] = (4,),
    networks: Sequence[str] = ("10G",),
    system: str = "tx1",
    ranks_per_node: int | None = None,
    workload_kwargs: dict[str, dict[str, Any]] | None = None,
) -> list[RunSpec]:
    """The workload x nodes x network grid as normalized, deduped specs.

    Canonicalization can fold grid points together (every ``thunderx``
    point collapses onto one server, for instance); duplicates are dropped
    keeping first occurrence, so each simulation runs once.
    """
    if not workloads:
        raise ConfigurationError("a campaign needs at least one workload")
    kwargs_map = workload_kwargs or {}
    unknown = sorted(set(kwargs_map) - set(workloads))
    if unknown:
        raise ConfigurationError(
            f"workload_kwargs for {', '.join(unknown)} do not match any "
            f"campaign workload"
        )
    for name, kwargs in kwargs_map.items():
        for key in _SPEC_SETTINGS:
            if key in kwargs:
                raise ConfigurationError(
                    f"workload_kwargs for {name!r} cannot set {key!r}: it is a "
                    f"run setting, not a workload parameter (a campaign sets "
                    f"the grid and runs untraced on catalog hardware)"
                )
    specs: list[RunSpec] = []
    seen: set[tuple] = set()
    for name in workloads:
        for node_count in nodes:
            for network in networks:
                spec = RunSpec.normalize(
                    name,
                    nodes=node_count,
                    network=network,
                    system=system,
                    ranks_per_node=ranks_per_node,
                    **kwargs_map.get(name, {}),
                )
                if spec.key not in seen:
                    seen.add(spec.key)
                    specs.append(spec)
    return specs


def _require_type(
    path: Path, key: str, value: Any, kinds: tuple[type, ...], label: str
) -> None:
    """Up-front campaign-file type validation naming the offending key.

    (Historically a ``"nodes": 4`` scalar or a string ``ranks_per_node``
    sailed through here and failed much later as a bare ``TypeError``
    deep inside normalization.)
    """
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigurationError(
            f"campaign file {path}: key {key!r} must be {label}, "
            f"got {type(value).__name__} ({value!r})"
        )


def _require_list(
    path: Path, key: str, value: Any, item_kinds: tuple[type, ...], label: str
) -> None:
    _require_type(path, key, value, (list,), f"a list of {label}")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, item_kinds):
            raise ConfigurationError(
                f"campaign file {path}: key {key!r} must hold {label}, "
                f"got {type(item).__name__} ({item!r})"
            )


def load_campaign_file(path: str | Path) -> list[RunSpec]:
    """Parse a JSON campaign file into specs.

    Schema (all keys except ``workloads`` optional)::

        {
          "workloads": ["jacobi", "cg"],
          "nodes": [2, 4],
          "networks": ["1G", "10G"],
          "system": "tx1",
          "ranks_per_node": null,
          "workload_kwargs": {"jacobi": {"n": 1024, "iterations": 8}}
        }

    Wrong-typed values (``"nodes": 4``, a string ``ranks_per_node``) are
    rejected here with a :class:`ConfigurationError` naming the key,
    instead of surfacing later as a bare ``TypeError`` mid-normalization.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"campaign file {path} does not exist")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"campaign file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise ConfigurationError(f"campaign file {path} must hold a JSON object")
    known = {
        "workloads", "nodes", "networks", "system", "ranks_per_node",
        "workload_kwargs",
    }
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigurationError(
            f"campaign file {path}: unknown key(s) {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(known))}"
        )
    workloads = document.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise ConfigurationError(
            f"campaign file {path} needs a non-empty 'workloads' list"
        )
    _require_list(path, "workloads", workloads, (str,), "workload name strings")
    nodes = document.get("nodes", [4])
    _require_list(path, "nodes", nodes, (int,), "integer node counts")
    networks = document.get("networks", ["10G"])
    _require_list(path, "networks", networks, (str,), "network name strings")
    system = document.get("system", "tx1")
    _require_type(path, "system", system, (str,), "a system name string")
    ranks_per_node = document.get("ranks_per_node")
    if ranks_per_node is not None:
        _require_type(
            path, "ranks_per_node", ranks_per_node, (int,),
            "an integer (or null)",
        )
    workload_kwargs = document.get("workload_kwargs")
    if workload_kwargs is not None:
        _require_type(
            path, "workload_kwargs", workload_kwargs, (dict,),
            "an object of per-workload parameter objects",
        )
        for name, kwargs in workload_kwargs.items():
            _require_type(
                path, f"workload_kwargs.{name}", kwargs, (dict,),
                "a parameter object",
            )
    return build_campaign(
        workloads,
        nodes=nodes,
        networks=networks,
        system=system,
        ranks_per_node=ranks_per_node,
        workload_kwargs=workload_kwargs,
    )


def execute_spec(spec: RunSpec, store: ResultStore | None) -> dict[str, Any]:
    """Simulate one cold spec, publish it, and return its summary row.

    Shared by the serial path and the pool workers (via
    :mod:`repro.campaign.supervisor`).
    """
    from repro.bench.runner import run_spec

    run = run_spec(spec, use_cache=False)
    if store is not None:
        try:
            payload = run_to_payload(run)
        except UncacheableRunError:
            pass  # ad-hoc rank return values: summarized, not stored
        else:
            store.put("run", spec.digest, spec.fingerprint, payload)
    return summarize_result(run.result)


def _placement_for(spec: RunSpec, summary: dict[str, Any]) -> Placement | None:
    """One summary row under its cluster's ceilings (None if not GPGPU).

    Reads only the summary's totals and the spec-rebuilt cluster, so cold
    and warm rows land on the same answer.
    """
    from repro.campaign.spec import build_cluster
    from repro.workloads import GPGPU_FACTORIES

    if summary["gpu_flops"] <= 0:
        return None
    cluster = build_cluster(spec)
    if cluster.spec.node_spec.gpu is None:
        return None
    totals = RunTotals(
        flops=summary["gpu_flops"],
        dram_bytes=summary["gpu_dram_bytes"],
        l2_bytes=summary["gpu_l2_bytes"],
        network_bytes=summary["network_bytes"],
        elapsed_seconds=summary["runtime_seconds"],
    )
    # Only GPGPU presets measure GPU FLOPs; the class names the precision
    # without rebuilding the workload.
    precision = GPGPU_FACTORIES[spec.name][0].precision
    return place(totals, cluster, precision=precision, name=spec.name)


def _merge_row(
    spec: RunSpec, summary: dict[str, Any], cached: bool,
    outcome: str = "ok", attempts: int = 1, error: str | None = None,
) -> CampaignRow:
    return CampaignRow(
        workload=spec.name,
        system=spec.system,
        nodes=spec.nodes,
        network=spec.network,
        ranks_per_node=spec.ranks_per_node,
        runtime_seconds=summary["runtime_seconds"],
        gflops=summary["gflops"],
        mflops_per_watt=summary["mflops_per_watt"],
        energy_joules=summary["energy_joules"],
        network_bytes=summary["network_bytes"],
        completed=summary["completed"],
        cached=cached,
        outcome=outcome,
        attempts=attempts,
        error=error,
        gpu_flops=summary["gpu_flops"],
        gpu_dram_bytes=summary["gpu_dram_bytes"],
        gpu_l2_bytes=summary["gpu_l2_bytes"],
        placement=_placement_for(spec, summary),
    )


def _failure_row(spec: RunSpec, record: SpecRecord) -> CampaignRow:
    """The ``completed=False`` row a quarantined spec contributes."""
    return CampaignRow(
        workload=spec.name,
        system=spec.system,
        nodes=spec.nodes,
        network=spec.network,
        ranks_per_node=spec.ranks_per_node,
        runtime_seconds=0.0,
        gflops=0.0,
        mflops_per_watt=0.0,
        energy_joules=0.0,
        network_bytes=0.0,
        completed=False,
        cached=record.cached,
        outcome=record.outcome,
        attempts=record.attempts,
        error=record.error,
    )


def _row_from_record(spec: RunSpec, record: SpecRecord) -> CampaignRow:
    if record.completed:
        return _merge_row(
            spec, record.row, record.cached,
            outcome=record.outcome, attempts=record.attempts,
            error=record.error,
        )
    return _failure_row(spec, record)


def run_campaign(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    store: ResultStore | None = _DEFAULT_STORE,  # type: ignore[assignment]
    retries: int = 2,
    task_timeout: float | None = None,
    chaos: ChaosSchedule | None = None,
    sleep: Any = None,
    host: Any = None,
    progress: Any = None,
) -> CampaignResult:
    """Execute *specs* under supervision, warm-starting from *store*.

    ``store`` defaults to the process-wide persistent store (pass ``None``
    to run storeless).  With ``jobs > 1`` cold specs are sharded across a
    process pool; results always merge in spec order.  Rerunning an
    interrupted campaign warm-starts every spec that reached the store.

    Supervision: failed attempts are retried up to *retries* times with
    seeded exponential backoff; a spec that keeps failing is quarantined
    (the campaign completes with a ``completed=False`` row naming it);
    worker crashes rebuild the pool and resubmit only the lost specs;
    *task_timeout* culls hung workers, so it needs ``jobs > 1``.  *chaos*
    injects a deterministic fault schedule (see
    :mod:`repro.campaign.chaos`); *sleep* replaces ``time.sleep`` for the
    retry backoff.

    Host observability (both purely advisory — attach either and every
    table and cache entry stays byte-identical): *host* is a
    :class:`repro.hostprof.CampaignHostRecorder` collecting per-spec
    wall/queue-wait/worker timings, surfaced as ``campaign_host_*``
    registry metrics; *progress* is a callable fired with each terminal
    :class:`SpecRecord` as it is decided (the ``--progress`` heartbeat).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if task_timeout is not None:
        if task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if jobs == 1:
            raise ConfigurationError(
                "task_timeout needs jobs > 1: a serial campaign has no "
                "worker process to cull"
            )
    if store is _DEFAULT_STORE:
        store = default_store()
    ordered: list[RunSpec] = []
    seen: set[tuple] = set()
    for spec in specs:
        if spec.key not in seen:
            seen.add(spec.key)
            ordered.append(spec)
    if not ordered:
        raise ConfigurationError("a campaign needs at least one run spec")

    repairs_before = store.corrupt_repaired if store is not None else 0
    if chaos is not None and store is not None:
        for digest in chaos.corrupt:
            corrupt_store_entry(store, "run", digest)

    rows: dict[str, CampaignRow] = {}
    pending: list[RunSpec] = []
    hits = 0
    for spec in ordered:
        payload = (
            store.get("run", spec.digest, spec.fingerprint)
            if store is not None else None
        )
        if payload is None:
            pending.append(spec)
            continue
        row = summarize_result(result_from_payload(payload["result"]))
        rows[spec.digest] = _merge_row(spec, row, True)
        hits += 1
        if progress is not None:
            progress(SpecRecord(
                spec=spec, outcome=OUTCOME_OK, attempts=1,
                row=row, cached=True,
            ))

    supervisor = CampaignSupervisor(
        pending,
        jobs=jobs,
        store=store,
        retries=retries,
        task_timeout=task_timeout,
        chaos=chaos,
        sleep=sleep,
        host=host,
        progress=progress,
    )
    records = supervisor.run()
    for digest, record in records.items():
        rows[digest] = _row_from_record(record.spec, record)

    misses = len(pending)
    repairs = (
        store.corrupt_repaired - repairs_before if store is not None else 0
    )
    registry = Registry()
    registry.counter(
        "campaign_cache_hits_total",
        "campaign runs served from the persistent result store",
    ).inc(hits)
    registry.counter(
        "campaign_cache_misses_total",
        "campaign runs that had to simulate",
    ).inc(misses)
    registry.counter(
        "campaign_runs_total", "distinct run specs in the campaign",
    ).inc(len(ordered))
    registry.counter(
        "campaign_retries_total",
        "failed attempts retried under the supervisor's backoff policy",
    ).inc(supervisor.counters["retries"])
    registry.counter(
        "campaign_quarantined_total",
        "poison specs quarantined after exhausting their retry budget",
    ).inc(supervisor.counters["quarantined"])
    registry.counter(
        "campaign_lost_workers_total",
        "attempts lost to worker death or the task timeout",
    ).inc(supervisor.counters["lost_workers"])
    registry.counter(
        "campaign_pool_rebuilds_total",
        "worker pools torn down and rebuilt after crashes or hangs",
    ).inc(supervisor.counters["pool_rebuilds"])
    registry.counter(
        "campaign_task_timeouts_total",
        "tasks culled by the per-task timeout watchdog",
    ).inc(supervisor.counters["timeouts"])
    registry.counter(
        "campaign_store_repairs_total",
        "corrupt store entries detected, deleted, and re-run",
    ).inc(repairs)
    registry.gauge(
        "campaign_workers_configured", "worker processes requested (--jobs)",
    ).set(jobs)
    registry.gauge(
        "campaign_workers_used", "worker processes that executed >= 1 run",
    ).set(len(supervisor.pids))
    if host is not None:
        host.register_metrics(registry)
    merged = [rows[spec.digest] for spec in ordered]
    intensity_gauge = registry.gauge(
        "campaign_roofline_intensity",
        "per-run measured intensity against each bandwidth roof",
        unit="flop_per_byte",
        labelnames=("run", "level"),
    )
    binding_gauge = registry.gauge(
        "campaign_roofline_binding",
        "1 on the bandwidth roof that binds each run, 0 elsewhere",
        labelnames=("run", "level"),
    )
    for row in merged:
        if row.placement is None:
            continue
        run_label = f"{row.workload}/{row.system}x{row.nodes}/{row.network}"
        levels = row.placement.level_intensities
        for level, intensity in (
            *levels.items(), (NETWORK_LEVEL, row.placement.network_intensity),
        ):
            if math.isfinite(intensity):
                intensity_gauge.set(intensity, run=run_label, level=level)
            binding_gauge.set(
                1.0 if level == row.binding_level else 0.0,
                run=run_label, level=level,
            )
    return CampaignResult(
        rows=merged,
        cache_hits=hits,
        cache_misses=misses,
        jobs=jobs,
        workers_used=len(supervisor.pids),
        registry=registry,
        retried=supervisor.counters["retries"],
        quarantined=supervisor.counters["quarantined"],
        lost_workers=supervisor.counters["lost_workers"],
        pool_rebuilds=supervisor.counters["pool_rebuilds"],
        timeouts=supervisor.counters["timeouts"],
        store_repairs=repairs,
    )


def format_campaign_table(result: CampaignResult) -> str:
    """The deterministic summary table (fixed widths, fixed float formats).

    Deliberately excludes cache provenance (that lives in
    :func:`format_campaign_stats`): the table is byte-identical whether
    rows came from workers, the serial path, a warm store — or a
    fault-injected run whose transient failures all retried to success.
    """
    header = (
        f"{'workload':<12} {'system':<9} {'nodes':>5} {'net':>4} {'rpn':>4} "
        f"{'runtime[s]':>14} {'GFLOPS':>10} {'MFLOPS/W':>10} "
        f"{'energy[J]':>14} {'ok':>3}"
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        lines.append(
            f"{row.workload:<12} {row.system:<9} {row.nodes:>5} "
            f"{row.network:>4} {row.ranks_per_node:>4} "
            f"{row.runtime_seconds:>14.6f} {row.gflops:>10.3f} "
            f"{row.mflops_per_watt:>10.1f} {row.energy_joules:>14.2f} "
            f"{'yes' if row.completed else 'NO':>3}"
        )
    return "\n".join(lines)


def format_campaign_stats(result: CampaignResult) -> str:
    """The (cache-state-dependent) counter summary printed after the table."""
    lines = [
        f"cache: {result.cache_hits} hits, {result.cache_misses} misses",
        f"workers: {result.workers_used} used of {result.jobs} requested",
    ]
    recovered = (
        result.retried + result.quarantined + result.lost_workers
        + result.pool_rebuilds + result.timeouts
    )
    if recovered:
        lines.append(
            f"recovery: {result.retried} retried, "
            f"{result.quarantined} quarantined, "
            f"{result.lost_workers} lost workers, "
            f"{result.timeouts} timeouts, "
            f"{result.pool_rebuilds} pool rebuilds"
        )
    if result.store_repairs:
        lines.append(
            f"store: {result.store_repairs} corrupt entries repaired"
        )
    for row in result.rows:
        placement = row.placement
        if placement is None:
            continue
        levels = placement.level_intensities
        lines.append(
            f"roofline: {row.workload}/{row.system}x{row.nodes}/{row.network} "
            f"binds {placement.binding_level} "
            f"(OI_l2 {_fmt_intensity(levels[L2_LEVEL])}, "
            f"OI_dram {_fmt_intensity(levels[DRAM_LEVEL])}, "
            f"NI {_fmt_intensity(placement.network_intensity)})"
        )
    return "\n".join(lines)


def _fmt_intensity(value: float) -> str:
    """Fixed-format FLOP/byte for the stat lines ('inf' for silent axes)."""
    if math.isinf(value):
        return "inf"
    return f"{value:.3f}"


def format_campaign_failures(result: CampaignResult) -> str:
    """Human-readable listing of quarantined / lost-worker specs."""
    failed = result.failed_rows
    if not failed:
        return ""
    lines = ["failed specs:"]
    for row in failed:
        lines.append(
            f"  {row.workload}/{row.system}x{row.nodes}/{row.network} "
            f"rpn={row.ranks_per_node}: {row.outcome} after "
            f"{row.attempts} attempt(s): {row.error}"
        )
    return "\n".join(lines)

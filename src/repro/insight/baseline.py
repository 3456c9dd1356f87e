"""The benchmark-regression baseline: write once, check on every build.

``python -m repro bench --baseline BENCH_seed.json`` measures a fixed,
cheap, deterministic set of headline numbers — per-workload runtime,
energy efficiency, wire traffic, the binding roofline ceiling, the
η = LB · Ser · Trf factors, and the simulator's own activity counts (events,
processes, MPI spans, fabric transfers, telemetry spans) — and writes them
as a committed JSON baseline.
``python -m repro bench --check`` re-measures and exits non-zero on any
drift beyond tolerance, which turns "did this PR change the performance
model?" from a human diff into a CI gate.  The simulator is deterministic,
so the expected drift is exactly zero; the tolerance only absorbs
cross-platform libm noise in float metrics.  Integer counts compare
exactly: any drift means a change altered how much work the simulator
does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core import place
from repro.errors import ConfigurationError
from repro.insight.decompose import cross_check
from repro.insight.roofline import completion_totals
from repro.telemetry.sink import Telemetry

#: Schema version stamped into every baseline file.
#: v2 adds the integer activity counts to every row.
BASELINE_SCHEMA = 2

#: The measured set: GPGPU workloads whose ceilings the paper names, plus
#: one NPB code to keep the CPU path under regression watch.
BASELINE_WORKLOADS = ("cloverleaf", "jacobi", "tealeaf2d", "tealeaf3d", "hpl", "cg")

#: Default relative tolerance for --check (the sim is deterministic; this
#: absorbs only cross-platform floating-point noise).
DEFAULT_TOLERANCE = 1e-6

_BASELINE_NODES = 4
_BASELINE_NETWORK = "10G"


def collect_baseline(
    workloads: tuple[str, ...] = BASELINE_WORKLOADS,
    nodes: int = _BASELINE_NODES,
    network: str = _BASELINE_NETWORK,
) -> dict[str, Any]:
    """Measure the baseline metrics for *workloads* on a fresh cluster each.

    Telemetry-instrumented runs bypass the run cache (the sink is
    stateful), so the derived per-workload *row* is what warm-starts:
    each is persisted in the campaign result store under its RunSpec
    digest, and a repeat ``repro bench --check`` with unchanged sources
    reads the rows back instead of re-simulating.
    """
    from repro.bench.runner import run_workload
    from repro.campaign.spec import RunSpec
    from repro.campaign.store import default_store
    from repro.workloads import ALL_NAMES, GPGPU_NAMES

    store = default_store()
    metrics: dict[str, dict[str, Any]] = {}
    for name in workloads:
        if name not in ALL_NAMES:
            raise ConfigurationError(
                f"unknown workload {name!r}; known workloads: "
                f"{', '.join(sorted(ALL_NAMES))}"
            )
        spec = RunSpec.normalize(name, nodes=nodes, network=network, traced=True)
        if store is not None:
            cached_row = store.get("baseline-row", spec.digest, spec.fingerprint)
            if cached_row is not None:
                metrics[name] = cached_row
                continue
        telemetry = Telemetry(sample_interval=0.0)
        run = run_workload(
            name, nodes=nodes, network=network, traced=True,
            use_cache=False, telemetry=telemetry,
        )
        result = run.result
        registry = telemetry.registry
        row: dict[str, Any] = {
            "runtime_seconds": result.elapsed_seconds,
            "mflops_per_watt": result.mflops_per_watt(),
            "network_bytes": result.network_bytes,
            # Deterministic simulator-activity counts from the same run:
            # how much work the kernel, MPI layer, fabric and sink did.
            "events": int(registry.get("sim_events_processed_total").value()),
            "processes": int(registry.get("sim_processes_started_total").value()),
            "mpi_hops": telemetry.span_counts().get("mpi", 0),
            "fabric_flow_rounds": int(registry.get("fabric_transfers_total").value()),
            "telemetry_spans": len(telemetry.spans),
        }
        check = cross_check(run.trace, rank_to_node=run.rank_to_node)
        row["load_balance"] = check.replay.load_balance
        row["serialization"] = check.replay.serialization
        row["transfer"] = check.replay.transfer
        if name in GPGPU_NAMES:
            point = place(
                completion_totals(result), run.cluster,
                precision=run.workload.precision, name=name,
            ).point
            row["limit"] = point.limit.value
            row["percent_of_roof"] = point.percent_of_peak
        metrics[name] = row
        if store is not None:
            store.put("baseline-row", spec.digest, spec.fingerprint, row)
    return {
        "schema": BASELINE_SCHEMA,
        "config": {"nodes": nodes, "network": network},
        "metrics": metrics,
    }


def write_baseline(path: str | Path, baseline: dict[str, Any]) -> Path:
    """Serialize *baseline* byte-stably (sorted keys, trailing newline)."""
    path = Path(path)
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Read a baseline file, validating its schema."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(
            f"baseline file {path} does not exist; write one first with "
            f"`python -m repro bench --baseline {path}`"
        )
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"baseline {path} has schema {document.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA}; regenerate it with "
            f"`python -m repro bench --baseline {path}`"
        )
    return document


@dataclass(frozen=True)
class Drift:
    """One metric that moved beyond tolerance."""

    workload: str
    metric: str
    baseline: Any
    current: Any
    relative: float  # relative numeric drift; inf for categorical changes

    def __str__(self) -> str:
        if math.isinf(self.relative):
            return (f"{self.workload}.{self.metric}: "
                    f"{self.baseline!r} -> {self.current!r}")
        return (f"{self.workload}.{self.metric}: {self.baseline:.9g} -> "
                f"{self.current:.9g} ({self.relative:+.3%})")


def compare_baseline(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Drift]:
    """Every metric drifting beyond *tolerance*, deterministically ordered.

    Float metrics compare by relative difference (absolute when the
    baseline is 0); integer counts compare exactly whatever *tolerance*
    is; categorical metrics (the binding-ceiling name) and missing/new
    workloads or metrics report as infinite drift.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    drifts: list[Drift] = []
    base_metrics = baseline.get("metrics", {})
    curr_metrics = current.get("metrics", {})
    for workload in sorted(set(base_metrics) | set(curr_metrics)):
        base_row = base_metrics.get(workload)
        curr_row = curr_metrics.get(workload)
        if base_row is None or curr_row is None:
            drifts.append(Drift(
                workload, "(workload)",
                "absent" if base_row is None else "present",
                "absent" if curr_row is None else "present",
                float("inf"),
            ))
            continue
        for metric in sorted(set(base_row) | set(curr_row)):
            expected = base_row.get(metric)
            observed = curr_row.get(metric)
            if expected is None or observed is None:
                drifts.append(Drift(workload, metric, expected, observed,
                                    float("inf")))
                continue
            if isinstance(expected, str) or isinstance(observed, str):
                if expected != observed:
                    drifts.append(Drift(workload, metric, expected, observed,
                                        float("inf")))
                continue
            expected_f = float(expected)
            observed_f = float(observed)
            if expected_f == 0.0:
                relative = abs(observed_f)
            else:
                relative = (observed_f - expected_f) / abs(expected_f)
            if _is_count(expected) or _is_count(observed):
                drifted = expected != observed
            else:
                drifted = abs(relative) > tolerance
            if drifted:
                drifts.append(Drift(workload, metric, expected_f, observed_f,
                                    relative))
    return drifts


def _is_count(value: Any) -> bool:
    """True for the integer activity counts (``bool`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_drift_report(drifts: list[Drift], tolerance: float) -> str:
    """Human-readable drift summary for the CLI."""
    if not drifts:
        return f"bench check: no drift beyond tolerance {tolerance:g}"
    lines = [f"bench check: {len(drifts)} metric(s) drifted beyond "
             f"tolerance {tolerance:g} (counts compare exactly):"]
    lines += [f"  {drift}" for drift in drifts]
    return "\n".join(lines)

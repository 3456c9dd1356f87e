"""ExperimentRun <-> JSON payload for the persistent store.

The payload captures everything downstream consumers read off a cached
run — the full :class:`~repro.cluster.job.JobResult` (energy, per-rank
counters, GPU profiler records), the trace when one was collected, and the
rank placement.  The workload and cluster are *rebuilt* from the
:class:`~repro.campaign.spec.RunSpec` on load (their construction is cheap
and deterministic); a reloaded run therefore carries a fresh, un-simulated
cluster whose ``spec``/``node_count`` match the original — which is all
the analysis layers consult.

Floats survive the JSON round trip exactly (``repr`` round-tripping), so
tables regenerated from a warm store are byte-identical to cold runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Any

from repro.cluster.job import JobResult, RankCounters
from repro.cluster.metering import EnergyReport
from repro.cuda.events import CopyRecord, KernelRecord, Profiler
from repro.errors import ReproError
from repro.tracing.events import (
    CommRecord,
    MarkerRecord,
    RecvRecord,
    Records,
    StateRecord,
    Trace,
)

#: Payload layout version (independent of the store schema).
PAYLOAD_SCHEMA = 1


class UncacheableRunError(ReproError):
    """The run carries values the JSON store cannot represent faithfully.

    Raised (and swallowed by the caller) when e.g. a rank program returned
    an ad-hoc object; such runs simply stay in the in-process cache.
    """


def payload_checksum(payload: Any) -> str:
    """A short content checksum of a JSON-safe payload.

    The store writes this next to every entry and re-derives it on read,
    so a flipped bit (or a hand-edited file) is detected even when the
    damage leaves the JSON well-formed.  Canonical serialization
    (sorted keys, no whitespace) makes the checksum independent of how
    the document happened to be written.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _pack(record: Any) -> list[Any]:
    """A dataclass instance as a field-ordered value list."""
    return [getattr(record, f.name) for f in fields(record)]


def _unpack(cls: type, values: list[Any]) -> Any:
    """Rebuild a dataclass from :func:`_pack` output."""
    return cls(*values)


def _rows(records: Records) -> list[list[Any]]:
    """Trace records as field-ordered value lists, read from their columns."""
    return [list(row) for row in zip(*records.columns)]


def _checked(value: Any, where: str) -> Any:
    """*value* if it round-trips through JSON unchanged, else an error."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_checked(item, where) for item in value]
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return {key: _checked(item, where) for key, item in value.items()}
    raise UncacheableRunError(
        f"{where} holds {type(value).__name__}, which the result store "
        f"cannot serialize faithfully"
    )


def run_to_payload(run) -> dict[str, Any]:
    """Serialize an :class:`~repro.bench.runner.ExperimentRun`.

    Raises :class:`UncacheableRunError` when a rank return value is not
    JSON-representable.
    """
    result = run.result
    payload: dict[str, Any] = {
        "schema": PAYLOAD_SCHEMA,
        "result": {
            "elapsed_seconds": result.elapsed_seconds,
            "energy": _pack(result.energy),
            "rank_values": _checked(result.rank_values, "rank_values"),
            "counters": [_pack(c) for c in result.counters],
            "comm_seconds": list(result.comm_seconds),
            "network_bytes": result.network_bytes,
            "gpu_dram_bytes": result.gpu_dram_bytes,
            "gpu_flops": result.gpu_flops,
            "cpu_flops": result.cpu_flops,
            "gpu_profilers": [
                {
                    "kernels": [_pack(k) for k in p.kernels],
                    "copies": [_pack(c) for c in p.copies],
                }
                for p in result.gpu_profilers
            ],
            "failures": {str(rank): text for rank, text in result.failures.items()},
            "comm_retries": result.comm_retries,
            "loopback_bytes": result.loopback_bytes,
        },
        "rank_to_node": list(run.rank_to_node),
        "trace": None,
    }
    trace = run.trace
    if trace is not None:
        payload["trace"] = {
            "n_ranks": trace.n_ranks,
            "states": _rows(trace.states),
            "comms": _rows(trace.comms),
            "recvs": _rows(trace.recvs),
            "markers": _rows(trace.markers),
            "t_start": trace.t_start,
            "t_end": trace.t_end,
        }
    return payload


def result_from_payload(document: dict[str, Any]) -> JobResult:
    """Rebuild the :class:`JobResult` part of a payload."""
    return JobResult(
        elapsed_seconds=document["elapsed_seconds"],
        energy=_unpack(EnergyReport, document["energy"]),
        rank_values=list(document["rank_values"]),
        counters=[_unpack(RankCounters, c) for c in document["counters"]],
        comm_seconds=list(document["comm_seconds"]),
        network_bytes=document["network_bytes"],
        gpu_dram_bytes=document["gpu_dram_bytes"],
        gpu_flops=document["gpu_flops"],
        cpu_flops=document["cpu_flops"],
        gpu_profilers=[
            Profiler(
                kernels=[_unpack(KernelRecord, k) for k in p["kernels"]],
                copies=[_unpack(CopyRecord, c) for c in p["copies"]],
            )
            for p in document["gpu_profilers"]
        ],
        failures={int(rank): text for rank, text in document["failures"].items()},
        comm_retries=document["comm_retries"],
        loopback_bytes=document["loopback_bytes"],
    )


def trace_from_payload(document: dict[str, Any] | None) -> Trace | None:
    """Rebuild the trace part of a payload (None when the run was untraced)."""
    if document is None:
        return None
    return Trace(
        n_ranks=document["n_ranks"],
        states=Records.from_rows(StateRecord, document["states"]),
        comms=Records.from_rows(CommRecord, document["comms"]),
        recvs=Records.from_rows(RecvRecord, document["recvs"]),
        markers=Records.from_rows(MarkerRecord, document["markers"]),
        t_start=document["t_start"],
        t_end=document["t_end"],
    )


def publish_run(spec, run, store) -> None:
    """Store a fresh *run* under *spec* unless *store* is None or the run's
    rank return values are ad hoc (:class:`UncacheableRunError`)."""
    if store is None:
        return
    try:
        payload = run_to_payload(run)
    except UncacheableRunError:
        return
    store.put("run", spec.digest, spec.fingerprint, payload)


def run_from_payload(spec, payload: dict[str, Any]):
    """Rebuild a full :class:`~repro.bench.runner.ExperimentRun` from *spec*.

    The workload and cluster are reconstructed fresh; the measurements come
    verbatim from the payload.
    """
    from repro.bench.runner import ExperimentRun

    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise UncacheableRunError(
            f"payload schema {payload.get('schema')!r} != {PAYLOAD_SCHEMA}"
        )
    return ExperimentRun.revive(
        spec,
        result_from_payload(payload["result"]),
        trace_from_payload(payload.get("trace")),
        payload["rank_to_node"],
    )


def summarize_result(result: JobResult) -> dict[str, Any]:
    """The campaign summary row of one measured result (pure arithmetic).

    Cold rows, warm store hits (via :func:`result_from_payload`), pool
    workers and the uncacheable fallback all summarize through here, and
    floats survive the JSON round trip exactly, so every path produces
    bit-identical rows.
    """
    from repro.units import mflops_per_watt, to_gflops

    elapsed = result.elapsed_seconds
    flops = result.gpu_flops + result.cpu_flops
    throughput = flops / elapsed if elapsed else 0.0
    power = result.energy.average_power_watts
    # A flat sum in kernel order, so every path adds the same floats in
    # the same order.
    gpu_l2_bytes = sum(
        kernel.l2_bytes
        for profiler in result.gpu_profilers
        for kernel in profiler.kernels
    )
    return {
        "runtime_seconds": elapsed,
        "gflops": to_gflops(throughput),
        "mflops_per_watt": (
            mflops_per_watt(throughput, power) if power > 0 else 0.0
        ),
        "energy_joules": result.energy.total_joules,
        "network_bytes": result.network_bytes,
        "completed": not result.failures,
        # Roofline extras: the hierarchical binding level is derivable from
        # a summary row alone (runner does the placement arithmetic).
        "gpu_flops": result.gpu_flops,
        "gpu_dram_bytes": result.gpu_dram_bytes,
        "gpu_l2_bytes": gpu_l2_bytes,
    }

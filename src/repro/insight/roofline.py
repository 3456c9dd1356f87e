"""Run totals read from a telemetry sink.

A run is placed by :func:`repro.core.model_io.place` from one
:class:`~repro.core.model_io.RunTotals` record.  Most callers read that
record from the :class:`~repro.cluster.job.JobResult`
(:meth:`RunTotals.of <repro.core.model_io.RunTotals.of>`); reports and
the ``repro bench`` baseline still read it from what a telemetry sink
measured — CUDA kernel spans carry their FLOP, DRAM- and L2-byte costs,
``cuda_copy_bytes_total`` the host<->device staging traffic,
``fabric_bytes_total`` the wire bytes, and ``job_elapsed_seconds`` the
runtime.  The two sources agree up to float association (the test suite
checks it).
"""

from __future__ import annotations

import re

from repro.core import RunTotals
from repro.errors import AnalysisError
from repro.telemetry.sink import Telemetry

_KERNEL_NAME = re.compile(r"^kernel:")


def intensities_from_telemetry(telemetry: Telemetry) -> RunTotals:
    """The totals of a run recorded with *telemetry* attached.

    GPU FLOPs and kernel DRAM/L2 traffic come from the CUDA kernel spans;
    staging traffic from the ``cuda_copy_bytes_total`` counter; wire bytes
    from ``fabric_bytes_total``; runtime from the ``job_elapsed_seconds``
    gauge.
    """
    flops = 0.0
    kernel_dram = 0.0
    kernel_l2 = 0.0
    kernels = 0
    for span in telemetry.spans:
        if span.category == "cuda" and _KERNEL_NAME.match(span.name):
            flops += float(span.args.get("flops", 0.0))
            kernel_dram += float(span.args.get("dram_bytes", 0.0))
            kernel_l2 += float(span.args.get("l2_bytes", 0.0))
            kernels += 1
    if kernels == 0 or flops <= 0:
        raise AnalysisError(
            "no CUDA kernel spans in the sink: roofline placement needs a "
            "GPGPU workload recorded with telemetry attached"
        )
    dram_bytes = kernel_dram + _counter_total(telemetry, "cuda_copy_bytes_total")
    if dram_bytes <= 0:
        raise AnalysisError(
            "no DRAM traffic measured (kernel spans and "
            "cuda_copy_bytes_total recorded zero bytes): operational "
            "intensity is undefined"
        )
    network_bytes = _counter_total(telemetry, "fabric_bytes_total")
    if network_bytes <= 0:
        raise AnalysisError(
            "no network traffic measured (fabric_bytes_total recorded "
            "zero bytes): network intensity is undefined"
        )
    elapsed = _gauge_value(telemetry, "job_elapsed_seconds")
    if elapsed <= 0:
        raise AnalysisError(
            "job_elapsed_seconds gauge missing or zero: the sink must "
            "observe a full job run"
        )
    return RunTotals(
        flops=flops,
        dram_bytes=dram_bytes,
        # Copies reach DRAM through the DMA path, not the GPU L2, so the
        # L2-level counter is kernel traffic only.
        l2_bytes=kernel_l2,
        network_bytes=network_bytes,
        elapsed_seconds=elapsed,
    )


def _counter_total(telemetry: Telemetry, name: str) -> float:
    if name not in telemetry.registry:
        return 0.0
    return sum(value for _, value in telemetry.registry.get(name).series())


def _gauge_value(telemetry: Telemetry, name: str) -> float:
    if name not in telemetry.registry:
        return 0.0
    values = [value for _, value in telemetry.registry.get(name).series()]
    return values[-1] if values else 0.0

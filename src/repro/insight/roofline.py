"""Run totals folded from the run record in completion order.

A run is placed by :func:`repro.core.model_io.place` from one
:class:`~repro.core.model_io.RunTotals` record.  Fig. 4, Table II and
campaign rows read it with :meth:`RunTotals.of
<repro.core.model_io.RunTotals.of>`, which sums each node's profiler in
turn.  Reports and the ``repro bench`` baseline read it with
:func:`completion_totals`, which folds the same
:class:`~repro.cuda.events.Profiler` records in the order the run
completed them: the order in which an attached telemetry sink closes
their spans and counts their copy bytes.  The two folds agree up to float
association; this one reproduces the sink's totals bit for bit, so the
report bytes do not depend on whether a sink was attached (DESIGN.md §11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core import RunTotals
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.cluster.job import JobResult
    from repro.cuda.events import CopyRecord, KernelRecord


def _completion_order(
    per_node: Iterable[Sequence[KernelRecord | CopyRecord]],
) -> list[KernelRecord | CopyRecord]:
    """Every node's records merged by ``(end, start, node, per-node index)``."""
    keyed = sorted(
        (record.end, record.start, node, index, record)
        for node, records in enumerate(per_node)
        for index, record in enumerate(records)
    )
    return [row[-1] for row in keyed]


def completion_totals(result: JobResult) -> RunTotals:
    """The totals of *result*, folded left to right in completion order.

    FLOPs and kernel DRAM/L2 bytes are summed over the kernels; the
    host<->device staging bytes are summed per copy kind, kinds in
    first-seen order, and added to the kernel DRAM bytes as one term.
    Wire bytes and runtime are the record's own.
    """
    profilers = result.gpu_profilers
    kernels = _completion_order(p.kernels for p in profilers)
    flops = kernel_dram = kernel_l2 = 0.0
    for kernel in kernels:
        flops += kernel.flops
        kernel_dram += kernel.dram_bytes
        kernel_l2 += kernel.l2_bytes
    if not kernels or flops <= 0:
        raise AnalysisError(
            "no GPU kernels in the run record (JobResult.gpu_profilers): "
            "roofline placement needs a GPGPU workload"
        )
    copy_bytes: dict[str, float] = {}
    for copy in _completion_order(p.copies for p in profilers):
        copy_bytes[copy.kind] = copy_bytes.get(copy.kind, 0.0) + copy.nbytes
    dram_bytes = kernel_dram + sum(copy_bytes.values())
    if dram_bytes <= 0:
        raise AnalysisError(
            "no DRAM traffic in the run record (kernel dram_bytes and copy "
            "nbytes sum to zero): operational intensity is undefined"
        )
    if result.network_bytes <= 0:
        raise AnalysisError(
            "no network traffic in the run record (JobResult.network_bytes "
            "is zero): network intensity is undefined"
        )
    if result.elapsed_seconds <= 0:
        raise AnalysisError(
            "JobResult.elapsed_seconds is zero: the record must cover a "
            "full job run"
        )
    return RunTotals(
        flops=flops,
        dram_bytes=dram_bytes,
        # Copies reach DRAM through the DMA path, not the GPU L2, so the
        # L2-level total is kernel traffic only.
        l2_bytes=kernel_l2,
        network_bytes=result.network_bytes,
        elapsed_seconds=result.elapsed_seconds,
    )

"""Device contexts, buffers, copies, and kernel launches."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.cuda.events import CopyRecord, KernelRecord, Profiler
from repro.errors import CudaError
from repro.hardware.node import Node
from repro.sim import Resource
from repro.telemetry.instruments import SIZE_BUCKETS
from repro.telemetry.sink import NULL


@dataclass(frozen=True)
class KernelSpec:
    """Cost description of one kernel launch.

    ``flops`` and ``dram_bytes`` describe the launch's total work and its
    DRAM-visible traffic under normal caching (the GPU model handles the
    bypass case).
    """

    name: str
    flops: float
    dram_bytes: float
    precision: str = "double"
    #: Declared L2-level request traffic for workloads that know their reuse
    #: structure; ``None`` defers to the GPU model's miss-ratio estimate.
    l2_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.flops < 0 or self.dram_bytes < 0:
            raise CudaError(f"{self.name}: flops/dram_bytes must be non-negative")
        if self.l2_bytes is not None and self.l2_bytes < 0:
            raise CudaError(f"{self.name}: l2_bytes must be non-negative")


_SPACES = ("host", "device", "managed", "mapped")


class Buffer:
    """A tracked allocation in one of the four address spaces."""

    _ids = itertools.count()

    def __init__(self, context: "CudaContext", nbytes: float, space: str) -> None:
        if space not in _SPACES:
            raise CudaError(f"unknown address space {space!r}")
        if nbytes <= 0:
            raise CudaError("allocation must be positive")
        self.context = context
        self.nbytes = float(nbytes)
        self.space = space
        self.buffer_id = next(self._ids)
        self.freed = False

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<Buffer#{self.buffer_id} {self.space} {self.nbytes:.3e}B {state}>"


class CudaContext:
    """The CUDA runtime of one GPU-bearing node.

    ``pcie_bandwidth`` is set for discrete cards; on unified-memory SoCs the
    host<->device copy goes over the shared DRAM bus instead.
    """

    def __init__(
        self,
        node: Node,
        pcie_bandwidth: float | None = None,
        migration_overhead: float = 25e-6,
    ) -> None:
        self.node = node
        self.gpu = node.require_gpu()
        self.env = node.env
        self.pcie_bandwidth = pcie_bandwidth
        self.migration_overhead = migration_overhead
        self.profiler = Profiler()
        self._live_buffers: dict[int, Buffer] = {}
        assert node.gpu_engine is not None
        self._engine: Resource = node.gpu_engine
        self._telemetry = NULL
        self._track = f"cuda.node{node.node_id}"
        self._wire_instruments()

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink recording kernel/copy spans and counters."""
        self._telemetry = telemetry if telemetry is not None else NULL
        self._wire_instruments()

    def _wire_instruments(self) -> None:
        tm = self._telemetry
        self._kernels_counter = tm.counter(
            "cuda_kernels_total", "kernel launches completed",
        )
        self._copies_counter = tm.counter(
            "cuda_copies_total", "explicit copies and UM migrations",
            labelnames=("kind",),
        )
        self._copy_bytes_counter = tm.counter(
            "cuda_copy_bytes_total", "bytes moved by copies and migrations",
            unit="bytes", labelnames=("kind",),
        )
        #: Bound (copies, bytes) counter children per copy kind.
        self._copy_counters: dict[str, tuple[Any, Any]] = {}
        self._l2_bytes_counter = tm.counter(
            "cuda_l2_bytes_total", "kernel L2-level request traffic",
            unit="bytes",
        )
        self._kernel_seconds_histogram = tm.histogram(
            "cuda_kernel_seconds", "on-engine kernel execution time",
            unit="seconds",
        )
        self._copy_bytes_histogram = tm.histogram(
            "cuda_copy_bytes", "size of individual copies",
            unit="bytes", buckets=SIZE_BUCKETS,
        )

    # -- allocation -------------------------------------------------------------

    def _alloc(self, nbytes: float, space: str) -> Buffer:
        buf = Buffer(self, nbytes, space)
        self.node.dram.allocate(nbytes)
        self._live_buffers[buf.buffer_id] = buf
        return buf

    def malloc(self, nbytes: float) -> Buffer:
        """cudaMalloc: a device-space buffer."""
        return self._alloc(nbytes, "device")

    def malloc_host(self, nbytes: float) -> Buffer:
        """Pinned host allocation."""
        return self._alloc(nbytes, "host")

    def malloc_managed(self, nbytes: float) -> Buffer:
        """cudaMallocManaged: unified-memory pool."""
        return self._alloc(nbytes, "managed")

    def host_alloc_mapped(self, nbytes: float) -> Buffer:
        """cudaHostAlloc(..., cudaHostAllocMapped): zero-copy buffer."""
        return self._alloc(nbytes, "mapped")

    def free(self, buf: Buffer) -> None:
        """Release a buffer; double-free raises."""
        if buf.freed:
            raise CudaError(f"double free of {buf!r}")
        if buf.buffer_id not in self._live_buffers:
            raise CudaError(f"{buf!r} does not belong to this context")
        buf.freed = True
        del self._live_buffers[buf.buffer_id]
        self.node.dram.release(buf.nbytes)

    @property
    def live_bytes(self) -> float:
        """Bytes currently allocated through this context."""
        return sum(b.nbytes for b in self._live_buffers.values())

    # -- copies ------------------------------------------------------------------

    def _copy_seconds(self, nbytes: float) -> float:
        if self.pcie_bandwidth is not None:
            return nbytes / self.pcie_bandwidth
        return self.node.dram.copy_seconds(nbytes)

    def memcpy(self, dst: Buffer, src: Buffer, nbytes: float | None = None, kind: str | None = None):
        """Generator: cudaMemcpy between two buffers.

        ``kind`` is derived from the buffer spaces if not given
        (``h2d``/``d2h``/``d2d``).  Zero-copy (mapped) buffers need no copies
        by construction, so copying one is rejected as a programming error.
        """
        for buf in (dst, src):
            if buf.freed:
                raise CudaError(f"memcpy on freed buffer {buf!r}")
            if buf.space == "mapped":
                raise CudaError("memcpy on a zero-copy (mapped) buffer is meaningless")
        size = min(dst.nbytes, src.nbytes) if nbytes is None else float(nbytes)
        if size < 0 or size > min(dst.nbytes, src.nbytes):
            raise CudaError(f"memcpy size {size} exceeds buffer bounds")
        if kind is None:
            kind = {
                ("host", "device"): "d2h",
                ("device", "host"): "h2d",
                ("device", "device"): "d2d",
            }.get((dst.space, src.space), "h2d")

        start = self.env.now
        with self._telemetry.async_span(
            self._track, f"memcpy:{kind}", "cuda", nbytes=size,
        ):
            with self.node.copy_engine.request() as req:
                yield req
                yield self.env.timeout(self._copy_seconds(size))
        self.node.dram.record_copy_traffic(size)
        self._count_copy(kind, size)
        self.profiler.record_copy(CopyRecord(kind, start, self.env.now, size))

    def migrate(self, buf: Buffer, nbytes: float | None = None):
        """Generator: unified-memory driver migration of a managed buffer."""
        if buf.space != "managed":
            raise CudaError("migrate applies to managed buffers only")
        size = buf.nbytes if nbytes is None else float(nbytes)
        start = self.env.now
        with self._telemetry.async_span(
            self._track, "migration", "cuda", nbytes=size,
        ):
            with self.node.copy_engine.request() as req:
                yield req
                yield self.env.timeout(self.migration_overhead + self._copy_seconds(size))
        self.node.dram.record_copy_traffic(size)
        self._count_copy("migration", size)
        self.profiler.record_copy(CopyRecord("migration", start, self.env.now, size))

    def _count_copy(self, kind: str, size: float) -> None:
        """Copy-kind counters and the copy-size histogram for one copy."""
        bound = self._copy_counters.get(kind)
        if bound is None:
            bound = self._copy_counters[kind] = (
                self._copies_counter.labels(kind=kind),
                self._copy_bytes_counter.labels(kind=kind),
            )
        copies, copy_bytes = bound
        copies.inc()
        copy_bytes.inc(size)
        self._copy_bytes_histogram.observe(size)

    # -- kernels -------------------------------------------------------------------

    def launch(self, kernel: KernelSpec, *, bypass_cache: bool = False, stream=None):
        """Generator: run *kernel* on the GPU engine.

        Holds the engine for the kernel duration (no MPS: kernels from
        different processes serialize), charges GPU power, records DRAM
        traffic, and appends a profiler record.  Pass ``stream`` to serialize
        against other work on the same :class:`~repro.cuda.stream.Stream`.
        """
        cost = self.gpu_cost(kernel, bypass_cache=bypass_cache)
        with self._telemetry.async_span(
            self._track, f"kernel:{kernel.name}", "cuda",
            flops=kernel.flops, dram_bytes=cost.dram_bytes,
            l2_bytes=cost.l2_bytes,
        ):
            stream_req = stream.enter() if stream is not None else None
            if stream_req is not None:
                yield stream_req
            with self._engine.request() as req:
                yield req
                start = self.env.now
                yield self.env.timeout(cost.seconds)
        if stream is not None:
            stream.leave(stream_req)
        self._kernels_counter.inc()
        self._l2_bytes_counter.inc(cost.l2_bytes)
        self._kernel_seconds_histogram.observe(cost.seconds)
        self.node.power.add_gpu_busy(cost.seconds, start=start)
        self.node.dram.record_gpu_traffic(cost.dram_bytes)
        record = KernelRecord(
            name=kernel.name,
            start=start,
            end=self.env.now,
            flops=kernel.flops,
            dram_bytes=cost.dram_bytes,
            l2_utilization=cost.l2_utilization,
            l2_read_throughput=cost.l2_read_throughput,
            memory_stall_fraction=cost.memory_stall_fraction,
            l2_bytes=cost.l2_bytes,
        )
        self.profiler.record_kernel(record)
        return record

    def gpu_cost(self, kernel: KernelSpec, *, bypass_cache: bool = False):
        """The GPU model's cost estimate for *kernel* (no simulated time)."""
        return self.gpu.kernel_cost(
            kernel.flops,
            kernel.dram_bytes,
            precision=kernel.precision,
            bypass_cache=bypass_cache,
            l2_bytes=kernel.l2_bytes,
        )

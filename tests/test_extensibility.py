"""The tutorial's extension path must work: a third-party workload defined
purely against the public API runs, measures, traces, and replays."""

import pytest

from repro.cluster import Cluster
from repro.cluster.cluster import tx1_cluster_spec
from repro.core import LimitingFactor, measure_roofline_point
from repro.counters import PMU_V3_EVENTS, collect_counters
from repro.cuda import KernelSpec
from repro.hardware.cpu import WorkloadCPUProfile
from repro.replay import ideal_network_runtime
from repro.scalability import parallel_efficiency
from repro.tracing import Tracer
from repro.units import mib
from repro.workloads.base import GpuIterativeWorkload, Workload, block_partition


class SpectralWorkload(Workload):
    """The tutorial's example: FFT passes + all-to-all transposes."""

    name = "spectral"
    uses_gpu = True
    default_ranks_per_node = 1

    def __init__(self, n=4096, iterations=10):
        self.n = n
        self.iterations = iterations

    @property
    def cpu_profile(self):
        return WorkloadCPUProfile(
            name="spectral", branch_fraction=0.08, branch_entropy=0.1,
            memory_fraction=0.35, working_set_per_rank_bytes=mib(4),
            flops_per_instruction=1.0,
        )

    def program(self, ctx):
        rows = block_partition(self.n, ctx.size, ctx.rank)
        kernel = KernelSpec(
            name="spectral-pass",
            flops=5.0 * rows * self.n * 12,
            dram_bytes=16.0 * rows * self.n,
        )
        for _ in range(self.iterations):
            yield from ctx.cpu_compute(self.cpu_profile, 2e5)
            yield from ctx.gpu_kernel(kernel)
            pair = 16.0 * rows * self.n / ctx.size
            yield from ctx.comm.alltoall([None] * ctx.size, nbytes=pair)
        return self.iterations


class MiniStencil(GpuIterativeWorkload):
    """A 30-line custom solver through the iterative shortcut."""

    name = "mini-stencil"

    def __init__(self, n=2048, iters=12, **kwargs):
        super().__init__(**kwargs)
        self.n, self._iters = n, iters

    @property
    def cpu_profile(self):
        return WorkloadCPUProfile(name="mini", working_set_per_rank_bytes=mib(1))

    def iterations(self):
        return self._iters

    def local_bytes(self, size, rank):
        return 16.0 * block_partition(self.n, size, rank) * self.n

    def kernel_flops(self, size, rank):
        return 8.0 * block_partition(self.n, size, rank) * self.n

    def kernel_dram_bytes(self, size, rank):
        return 16.0 * block_partition(self.n, size, rank) * self.n

    def halo_bytes(self, size, rank):
        return 8.0 * self.n

    def reductions_per_iteration(self):
        return 1


def test_custom_workload_runs_and_measures():
    cluster = Cluster(tx1_cluster_spec(4))
    result = SpectralWorkload().run_on(cluster)
    assert result.elapsed_seconds > 0
    assert result.gpu_flops > 0
    assert result.network_bytes > 0
    assert result.mflops_per_watt() > 0


def test_custom_workload_roofline_placement():
    cluster = Cluster(tx1_cluster_spec(4))
    workload = SpectralWorkload()
    result = workload.run_on(cluster)
    point = measure_roofline_point(
        "spectral", result, cluster, precision=workload.precision
    )
    assert point.limit in (LimitingFactor.OPERATIONAL, LimitingFactor.NETWORK)
    assert 0 < point.percent_of_peak <= 100


def test_custom_workload_counters_and_traces():
    cluster = Cluster(tx1_cluster_spec(4))
    tracer = Tracer(4)
    result = SpectralWorkload().run_on(cluster, tracer=tracer)
    report = collect_counters(result, PMU_V3_EVENTS)
    assert report[PMU_V3_EVENTS[0]] > 0
    trace = tracer.finalize()
    breakdown = parallel_efficiency(trace, rank_to_node=[0, 1, 2, 3])
    assert 0 < breakdown.efficiency <= 1.0
    t_ideal = ideal_network_runtime(trace, rank_to_node=[0, 1, 2, 3])
    assert 0 < t_ideal <= trace.duration * 1.2


def test_iterative_shortcut_subclass():
    cluster = Cluster(tx1_cluster_spec(2))
    result = MiniStencil().run_on(cluster)
    assert result.rank_values == [12, 12]
    assert result.gpu_flops == pytest.approx(2 * 12 * 8.0 * 1024 * 2048)


def test_iterative_shortcut_network_sensitivity():
    slow = MiniStencil().run_on(Cluster(tx1_cluster_spec(4, "1G")))
    fast = MiniStencil().run_on(Cluster(tx1_cluster_spec(4, "10G")))
    assert fast.elapsed_seconds <= slow.elapsed_seconds

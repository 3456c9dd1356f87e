"""Unit + integration tests for the workload suite."""

import pytest

from repro.cluster import Cluster
from repro.cluster.cluster import (
    gtx980_cluster_spec,
    thunderx_cluster_spec,
    tx1_cluster_spec,
)
from repro.cuda import MemoryModel
from repro.errors import ConfigurationError
from repro.workloads import (
    ALL_NAMES,
    GPGPU_NAMES,
    NPB_NAMES,
    HplWorkload,
    ImageClassificationWorkload,
    JacobiWorkload,
    TeaLeaf3DWorkload,
    block_partition,
    gpgpu_workload,
    make_workload,
    network_spec,
    npb_workload,
)
from repro.workloads.npb.common import rank_skew


# -- helpers ---------------------------------------------------------------------


def run(workload, nodes=2, network="10G", **kwargs):
    cluster = Cluster(tx1_cluster_spec(nodes, network))
    return workload.run_on(cluster, **kwargs), cluster


# -- partitioning ------------------------------------------------------------------


def test_block_partition_covers_total():
    sizes = [block_partition(103, 8, i) for i in range(8)]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1


def test_block_partition_validation():
    with pytest.raises(ConfigurationError):
        block_partition(10, 0, 0)
    with pytest.raises(ConfigurationError):
        block_partition(10, 4, 4)


def test_rank_skew_bounds_and_determinism():
    values = [rank_skew(r, 0.3) for r in range(64)]
    assert all(0.7 <= v <= 1.3 for v in values)
    assert values == [rank_skew(r, 0.3) for r in range(64)]
    assert len(set(values)) > 32  # actually spreads


# -- registry ---------------------------------------------------------------------


def test_factories_cover_all_names():
    for name in ALL_NAMES:
        workload = make_workload(name)
        assert workload.name == name


def test_unknown_workload_rejected():
    with pytest.raises(ConfigurationError):
        make_workload("doom")
    with pytest.raises(ConfigurationError):
        gpgpu_workload("bt")
    with pytest.raises(ConfigurationError):
        npb_workload("hpl")


# -- GPGPU iterative solvers --------------------------------------------------------


@pytest.mark.parametrize("name", ["jacobi", "tealeaf2d", "tealeaf3d", "cloverleaf"])
def test_iterative_workload_runs_and_measures(name):
    workload = make_workload(name)
    # Shrink for test speed.
    if hasattr(workload, "steps"):
        workload.steps = 2
    if hasattr(workload, "cg_iterations"):
        workload.cg_iterations = 3
    if hasattr(workload, "_iterations"):
        workload._iterations = 6
    result, cluster = run(workload, nodes=2)
    assert result.elapsed_seconds > 0
    assert result.gpu_flops > 0
    assert result.gpu_dram_bytes > 0
    assert result.network_bytes > 0
    assert result.energy_joules > 0


def test_jacobi_strong_scaling_reduces_runtime():
    def measure(nodes):
        w = JacobiWorkload(n=8192, iterations=8)
        result, _ = run(w, nodes=nodes)
        return result.elapsed_seconds

    t2, t8 = measure(2), measure(8)
    assert t8 < t2
    assert t2 / t8 > 2.0  # jacobi scales well


def test_tealeaf3d_faster_on_10g():
    def measure(network):
        w = TeaLeaf3DWorkload(n=256, steps=1, cg_iterations=10)
        result, _ = run(w, nodes=8, network=network)
        return result.elapsed_seconds

    t1, t10 = measure("1G"), measure("10G")
    assert t1 / t10 > 1.5  # the paper's headline network win


def test_jacobi_memory_model_switch():
    def measure(model):
        w = JacobiWorkload(n=8192, iterations=8, memory_model=model)
        result, _ = run(w, nodes=1)
        return result.elapsed_seconds

    t_hd = measure(MemoryModel.HOST_DEVICE)
    t_zc = measure(MemoryModel.ZERO_COPY)
    t_um = measure(MemoryModel.UNIFIED)
    assert t_zc > 1.5 * t_hd  # Table III: zero-copy penalty
    assert t_um == pytest.approx(t_hd, rel=0.2)


def test_iterative_workload_traces_iterations():
    from repro.tracing import Tracer, chop_iterations

    w = JacobiWorkload(n=8192, iterations=5)
    cluster = Cluster(tx1_cluster_spec(2))
    tracer = Tracer(2)
    w.run_on(cluster, tracer=tracer)
    windows = chop_iterations(tracer.finalize())
    assert len(windows) == 5


# -- hpl ---------------------------------------------------------------------------


def test_hpl_gpu_runs():
    w = HplWorkload(n=8192, nb=1024)
    result, cluster = run(w, nodes=2)
    # At nb/n = 1/8 the discrete panel sum is ~82% of 2/3 n^3.
    assert result.gpu_flops > 0.75 * w.total_flops()
    assert result.rank_values[0] == pytest.approx(w.total_flops())
    assert result.network_bytes > 0


def test_hpl_cpu_mode_uses_no_gpu():
    w = HplWorkload(n=4096, nb=1024, mode="cpu")
    assert w.default_ranks_per_node == 4
    result, _ = run(w, nodes=2)
    assert result.gpu_flops == 0.0
    assert result.cpu_flops > 0


def test_hpl_gpu_beats_cpu_on_tx1():
    """The GPGPU version must outperform the CPU version (Table IV)."""
    gpu, _ = run(HplWorkload(n=8192, nb=1024, mode="gpu"), nodes=2)
    cpu, _ = run(HplWorkload(n=8192, nb=1024, mode="cpu"), nodes=2)
    assert gpu.elapsed_seconds < cpu.elapsed_seconds


def test_hpl_work_ratio_slows_and_drains_efficiency():
    """Fig. 7: shifting work to one CPU core lowers energy efficiency."""
    full, _ = run(HplWorkload(n=8192, nb=1024, gpu_work_ratio=1.0), nodes=2)
    half, _ = run(HplWorkload(n=8192, nb=1024, gpu_work_ratio=0.6), nodes=2)
    assert half.elapsed_seconds > full.elapsed_seconds
    assert half.mflops_per_watt() < full.mflops_per_watt()


def test_hpl_collocated_improves_throughput():
    """Table IV: CPU+GPU collocation beats GPU-only throughput."""
    gpu, _ = run(HplWorkload(n=8192, nb=1024), nodes=2)
    both, _ = run(HplWorkload(n=8192, nb=1024, mode="collocated"), nodes=2)
    assert both.total_flops > gpu.total_flops
    assert both.throughput_flops > gpu.throughput_flops


def test_hpl_validation():
    with pytest.raises(ConfigurationError):
        HplWorkload(n=100, nb=1024)
    with pytest.raises(ConfigurationError):
        HplWorkload(mode="fpga")
    with pytest.raises(ConfigurationError):
        HplWorkload(gpu_work_ratio=0.0)
    with pytest.raises(ConfigurationError, match="gpu_work_ratio"):
        HplWorkload(mode="collocated", gpu_work_ratio=0.8)


# -- caffe ------------------------------------------------------------------------


def test_network_specs():
    alexnet = network_spec("alexnet")
    googlenet = network_spec("googlenet")
    # AlexNet: ~61 M params, ~1.4 GFLOP; GoogLeNet: ~7 M params, ~3 GFLOP.
    assert 55e6 * 4 < alexnet.weight_bytes < 70e6 * 4
    assert 1.2e9 < alexnet.flops_per_image < 1.7e9
    assert googlenet.weight_bytes < 0.2 * alexnet.weight_bytes
    assert googlenet.flops_per_image > 1.5 * alexnet.flops_per_image
    with pytest.raises(ConfigurationError):
        network_spec("resnet")


def test_image_classification_runs():
    w = ImageClassificationWorkload("alexnet", total_images=256, batch_size=32)
    result, cluster = run(w, nodes=2)
    assert sum(result.rank_values) >= 256
    assert result.gpu_flops > 0
    assert result.network_bytes > 0  # NFS fetches


def test_classification_scales_with_nodes():
    def throughput(nodes):
        w = ImageClassificationWorkload("googlenet", total_images=512, batch_size=32)
        result, _ = run(w, nodes=nodes)
        return 512 / result.elapsed_seconds

    assert throughput(4) > 1.7 * throughput(2)


def test_classification_insensitive_to_network_speed():
    """alexnet/googlenet barely use the cluster network (Fig. 1)."""
    def runtime(network):
        w = ImageClassificationWorkload("alexnet", total_images=256, batch_size=32)
        result, _ = run(w, nodes=2, network=network)
        return result.elapsed_seconds

    assert runtime("1G") < 1.25 * runtime("10G") + 1e-9


# -- NPB ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NPB_NAMES)
def test_npb_runs_on_tx1_cluster(name):
    w = npb_workload(name)
    result, _ = run(w, nodes=2)  # 8 ranks
    assert result.elapsed_seconds > 0
    assert all(c.instructions > 0 for c in result.counters)
    if name != "ep":
        assert result.network_bytes > 0


def test_npb_runs_on_thunderx():
    w = npb_workload("mg")
    cluster = Cluster(thunderx_cluster_spec())
    result = w.run_on(cluster, ranks_per_node=64)
    assert result.elapsed_seconds > 0
    assert result.network_bytes == 0.0  # everything is intra-node


def test_ft_is_network_hungry():
    """ft moves far more bytes than bt at the same scale (Fig. 6 driver)."""
    ft, _ = run(npb_workload("ft"), nodes=2)
    bt, _ = run(npb_workload("bt"), nodes=2)
    assert ft.network_bytes > 5 * bt.network_bytes


def test_lu_wavefront_serializes():
    """lu's pipeline leaves ranks waiting: comm time far above bt's."""
    lu, _ = run(npb_workload("lu"), nodes=2)
    assert max(lu.comm_seconds) > 0


def test_npb_imbalance_visible_in_compute_seconds():
    cg, _ = run(npb_workload("cg"), nodes=2)
    compute = [c.compute_seconds for c in cg.counters]
    assert max(compute) > 1.15 * min(compute)


# -- cross-system runs --------------------------------------------------------------


def test_gpu_workload_runs_on_gtx980_cluster():
    w = ImageClassificationWorkload("googlenet", total_images=256, batch_size=32)
    cluster = Cluster(gtx980_cluster_spec(2))
    result = w.run_on(cluster)
    assert sum(result.rank_values) >= 256
    assert result.gpu_flops > 0


def test_hpl_runs_on_gtx980_cluster():
    w = HplWorkload(n=8192, nb=1024)
    cluster = Cluster(gtx980_cluster_spec(2))
    result = w.run_on(cluster)
    assert result.gpu_flops > 0


def test_googlenet_inception_table_is_faithful():
    """The enumerated inception modules reproduce GoogLeNet v1's published
    totals: ~1.5 GMAC (~3 GFLOP) per image and ~7 M parameters."""
    from repro.workloads.caffe import _INCEPTION_MODULES, _inception_costs

    spec = network_spec("googlenet")
    assert 2.9e9 < spec.flops_per_image < 3.4e9
    assert 6.5e6 * 4 < spec.weight_bytes < 7.5e6 * 4
    assert len(_INCEPTION_MODULES) == 9
    # Output channels of 3a are 64+128+32+32 = 256, feeding 3b's input.
    m3a, m3b = _INCEPTION_MODULES[0], _INCEPTION_MODULES[1]
    assert m3a[3] + m3a[5] + m3a[7] + m3a[8] == m3b[2]
    # Every module contributes six conv branches.
    assert len(_inception_costs(*m3a)) == 6

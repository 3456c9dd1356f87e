"""Unit tests for repro.hardware: caches, CPU, GPU, DRAM, NIC, power, catalog."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    CacheHierarchy,
    CacheLevel,
    CPUCoreModel,
    CPUCoreSpec,
    DRAMModel,
    DRAMSpec,
    GPUModel,
    GPUSpec,
    NICSpec,
    PowerModel,
    PowerSpec,
    WorkloadCPUProfile,
    catalog,
)
from repro.units import gbit_s, gbyte_s, ghz, gib, kib, mib, to_gflops


# -- caches ---------------------------------------------------------------------


def test_cache_miss_ratio_grows_with_working_set():
    level = CacheLevel("L2", mib(2))
    small = level.miss_ratio(kib(64))
    large = level.miss_ratio(mib(32))
    assert 0.0 < small < large <= 1.0


def test_cache_miss_ratio_zero_working_set():
    level = CacheLevel("L1D", kib(32))
    assert level.miss_ratio(0.0) == 0.0


def test_cache_miss_ratio_clamped_to_one():
    level = CacheLevel("L1D", kib(32), base_miss_ratio=0.5, miss_exponent=1.0)
    assert level.miss_ratio(gib(1)) == 1.0


def test_shared_cache_contention_raises_misses():
    level = CacheLevel("L2", mib(16), shared_by=48)
    alone = level.miss_ratio(mib(8), active_sharers=1)
    crowded = level.miss_ratio(mib(8), active_sharers=48)
    assert crowded > alone


def test_private_cache_ignores_sharers():
    level = CacheLevel("L1D", kib(32), shared_by=1)
    assert level.miss_ratio(kib(64), 1) == level.miss_ratio(kib(64), 16)


def test_cache_validation():
    with pytest.raises(ConfigurationError):
        CacheLevel("bad", 0)
    with pytest.raises(ConfigurationError):
        CacheLevel("bad", kib(32), shared_by=0)
    with pytest.raises(ConfigurationError):
        CacheLevel("bad", kib(32), base_miss_ratio=0.0)


def test_amat_monotone_in_working_set():
    caches = catalog.TX1_CACHES
    assert caches.average_memory_access_cycles(kib(16)) < caches.average_memory_access_cycles(
        mib(64)
    )


def test_amat_at_least_l1_latency():
    caches = catalog.TX1_CACHES
    assert caches.average_memory_access_cycles(0.0) >= caches.l1d.latency_cycles


# -- CPU -------------------------------------------------------------------------


def _profile(**kw):
    defaults = dict(name="test", branch_fraction=0.15, branch_entropy=0.3,
                    memory_fraction=0.3, working_set_per_rank_bytes=mib(8))
    defaults.update(kw)
    return WorkloadCPUProfile(**defaults)


def test_cpu_execution_time_scales_with_instructions():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    p = _profile()
    t1 = model.seconds_for(p, 1e9)
    t2 = model.seconds_for(p, 2e9)
    assert t2 == pytest.approx(2 * t1)


def test_cpu_branch_entropy_slows_execution():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    easy = model.execute(_profile(branch_entropy=0.0), 1e9)
    hard = model.execute(_profile(branch_entropy=1.0), 1e9)
    assert hard.seconds > easy.seconds
    assert hard.branch_mispredictions > easy.branch_mispredictions
    assert hard.instructions_speculative > easy.instructions_speculative


def test_cpu_working_set_slows_execution():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    small = model.execute(_profile(working_set_per_rank_bytes=kib(16)), 1e9)
    big = model.execute(_profile(working_set_per_rank_bytes=mib(256)), 1e9)
    assert big.seconds > small.seconds
    assert big.l2_miss_ratio > small.l2_miss_ratio


def test_thunderx_mispredicts_more_than_a57():
    a57 = catalog.CORTEX_A57
    tx = catalog.THUNDERX_CORE
    assert tx.branch_mispredict_rate(0.8) > a57.branch_mispredict_rate(0.8)


def test_cpu_ipc_bounded_by_base():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    run = model.execute(_profile(), 1e9)
    assert 0 < run.ipc <= catalog.CORTEX_A57.base_ipc


def test_cpu_counters_consistency():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    run = model.execute(_profile(), 1e9)
    assert run.instructions_speculative >= run.instructions_retired
    assert run.l2_misses <= run.l2_accesses <= run.instructions_retired
    assert run.flops == pytest.approx(1e9 * 0.25)


def test_cpu_negative_instructions_rejected():
    model = CPUCoreModel(catalog.CORTEX_A57, catalog.TX1_CACHES)
    with pytest.raises(ConfigurationError):
        model.execute(_profile(), -1.0)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        _profile(branch_fraction=1.5)
    with pytest.raises(ConfigurationError):
        _profile(branch_entropy=-0.1)
    with pytest.raises(ConfigurationError):
        _profile(working_set_per_rank_bytes=-1)


# -- GPU -----------------------------------------------------------------------


def test_tx1_gpu_peak_flops():
    spec = catalog.TX1_GPU
    # 256 cores * 2 FLOP * 0.998 GHz = ~511 GFLOPS SP, /32 DP.
    assert to_gflops(spec.peak_sp_flops) == pytest.approx(511.0, rel=0.01)
    assert to_gflops(spec.peak_dp_flops) == pytest.approx(16.0, rel=0.01)


def test_gpu_compute_bound_kernel():
    model = GPUModel(catalog.TX1_GPU, sustained_efficiency=1.0)
    # Huge flops, tiny memory -> compute bound.
    cost = model.kernel_cost(flops=1e10, dram_bytes=1e3)
    assert not cost.memory_bound
    assert cost.seconds == pytest.approx(1e10 / catalog.TX1_GPU.peak_dp_flops)


def test_gpu_memory_bound_kernel():
    model = GPUModel(catalog.TX1_GPU)
    cost = model.kernel_cost(flops=1e6, dram_bytes=1e9)
    assert cost.memory_bound
    assert cost.seconds == pytest.approx(1e9 / catalog.TX1_GPU.memory_bandwidth)


def test_gpu_zero_copy_bypass_slows_memory_bound_kernel():
    model = GPUModel(catalog.TX1_GPU)
    cached = model.kernel_cost(flops=1e6, dram_bytes=1e9)
    bypass = model.kernel_cost(flops=1e6, dram_bytes=1e9, bypass_cache=True)
    assert bypass.seconds > cached.seconds
    assert bypass.l2_utilization == 0.0
    assert bypass.l2_read_throughput == 0.0
    assert cached.l2_utilization > 0.0
    assert cached.l2_read_throughput > 0.0
    assert bypass.memory_stall_fraction >= cached.memory_stall_fraction


def test_gpu_single_precision_faster_than_double():
    model = GPUModel(catalog.TX1_GPU)
    dp = model.kernel_cost(flops=1e9, dram_bytes=0.0, precision="double")
    sp = model.kernel_cost(flops=1e9, dram_bytes=0.0, precision="single")
    assert sp.seconds < dp.seconds


def test_gpu_unknown_precision_rejected():
    model = GPUModel(catalog.TX1_GPU)
    with pytest.raises(ConfigurationError):
        model.kernel_cost(1.0, 1.0, precision="half")


def test_gpu_achieved_flops_below_peak():
    model = GPUModel(catalog.TX1_GPU)
    cost = model.kernel_cost(flops=1e9, dram_bytes=1e8)
    assert cost.achieved_flops <= catalog.TX1_GPU.peak_dp_flops


def test_gtx980_outmuscles_tx1_gpu():
    assert catalog.GTX980.peak_dp_flops > catalog.TX1_GPU.peak_dp_flops
    assert catalog.GTX980.memory_bandwidth > catalog.TX1_GPU.memory_bandwidth


# -- DRAM ------------------------------------------------------------------------


def test_dram_allocate_release_cycle():
    dram = DRAMModel(catalog.TX1_DRAM)
    dram.allocate(gib(1))
    assert dram.allocated_bytes == gib(1)
    dram.release(gib(1))
    assert dram.allocated_bytes == 0.0


def test_dram_oom():
    dram = DRAMModel(catalog.TX1_DRAM)
    with pytest.raises(MemoryError):
        dram.allocate(gib(5))


def test_dram_over_release_rejected():
    dram = DRAMModel(catalog.TX1_DRAM)
    dram.allocate(100.0)
    with pytest.raises(ConfigurationError):
        dram.release(200.0)


def test_dram_traffic_accounting():
    dram = DRAMModel(catalog.TX1_DRAM)
    dram.record_gpu_traffic(1e9)
    dram.record_cpu_traffic(2e9)
    dram.record_copy_traffic(5e8)
    assert dram.traffic.total_bytes == pytest.approx(3.5e9)


def test_unified_copy_costs_double_transfer():
    dram = DRAMModel(catalog.TX1_DRAM)
    t = dram.copy_seconds(1e9)
    assert t == pytest.approx(2e9 / min(catalog.TX1_DRAM.cpu_bandwidth,
                                        catalog.TX1_DRAM.gpu_bandwidth))


# -- NIC ------------------------------------------------------------------------


def test_nic_transfer_time():
    nic = catalog.XGBE_PCIE
    assert nic.transfer_seconds(nic.achievable_rate) == pytest.approx(1.0)


def test_nic_achievable_capped_by_line_rate():
    with pytest.raises(ConfigurationError):
        NICSpec("bad", line_rate=gbit_s(1), achievable_rate=gbit_s(2),
                latency_one_way=1e-4, power_watts=1.0)


def test_10gbe_beats_1gbe_in_both_dimensions():
    assert catalog.XGBE_PCIE.achievable_rate > catalog.GBE_ONBOARD.achievable_rate
    assert catalog.XGBE_PCIE.latency_one_way < catalog.GBE_ONBOARD.latency_one_way
    assert catalog.XGBE_PCIE.power_watts > catalog.GBE_ONBOARD.power_watts


# -- power ------------------------------------------------------------------------


def test_power_idle_only():
    pm = PowerModel(catalog.TX1_POWER)
    assert pm.energy_joules(10.0) == pytest.approx(catalog.TX1_POWER.idle_watts * 10.0)


def test_power_busy_components_add_energy():
    pm = PowerModel(catalog.TX1_POWER)
    pm.add_cpu_busy(4.0)  # 4 core-seconds
    pm.add_gpu_busy(2.0)
    expected = (
        catalog.TX1_POWER.idle_watts * 10.0
        + catalog.TX1_POWER.cpu_core_active_watts * 4.0
        + catalog.TX1_POWER.gpu_active_watts * 2.0
    )
    assert pm.energy_joules(10.0) == pytest.approx(expected)


def test_power_average_below_max():
    pm = PowerModel(catalog.TX1_POWER)
    pm.add_cpu_busy(1.0)
    avg = pm.average_power_watts(10.0)
    peak = pm.max_power_watts(active_cores=4, gpu_active=True)
    assert catalog.TX1_POWER.idle_watts < avg < peak


def test_power_reset():
    pm = PowerModel(catalog.TX1_POWER)
    pm.add_gpu_busy(5.0)
    pm.reset()
    assert pm.energy_joules(1.0) == pytest.approx(catalog.TX1_POWER.idle_watts)


def test_power_validation():
    pm = PowerModel(catalog.TX1_POWER)
    with pytest.raises(ConfigurationError):
        pm.add_cpu_busy(-1.0)
    with pytest.raises(ConfigurationError):
        pm.add_gpu_busy(1.0, utilization=2.0)
    with pytest.raises(ConfigurationError):
        pm.energy_joules(-1.0)


# -- catalog-level sanity ---------------------------------------------------------


def test_tx1_node_spec():
    spec = catalog.jetson_tx1()
    assert spec.core_count == 4
    assert spec.gpu is not None
    assert spec.dram.unified


def test_thunderx_node_spec():
    spec = catalog.cavium_thunderx()
    assert spec.core_count == 96
    assert spec.gpu is None


def test_gtx980_node_spec():
    spec = catalog.gtx980_host()
    assert spec.gpu is not None and spec.gpu.sm_count == 16
    assert not spec.dram.unified


def test_equal_power_budget_cluster_sizing():
    """16 TX1 nodes + 10GbE, one ThunderX server, and 2 GTX980 hosts all land
    near the paper's common ~350 W max-load budget."""
    tx1 = catalog.jetson_tx1()
    tx1_max = 16 * (
        PowerModel(tx1.power).max_power_watts(4, True) + catalog.XGBE_PCIE.power_watts
    )
    cavium = catalog.cavium_thunderx()
    cavium_max = PowerModel(cavium.power).max_power_watts(96, False)
    gtx = catalog.gtx980_host()
    # The paper's GPGPU workloads drive the GTX hosts with the GPU plus one
    # or two feeder cores, so that is the comparable max-load point.
    gtx_max = 2 * PowerModel(gtx.power).max_power_watts(2, True)
    for total in (tx1_max, cavium_max, gtx_max):
        assert 280.0 <= total <= 420.0


def test_same_sm_count_at_16_nodes():
    # 16 TX1 nodes x 2 SMs == 2 GTX980 x 16 SMs (Fig. 10's "same SM count").
    assert 16 * catalog.TX1_GPU.sm_count == 2 * catalog.GTX980.sm_count


# -- NaN and catalog overrides ----------------------------------------------------


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: NICSpec("x", 1.0, NAN, 0.0, 1.0),
    lambda: NICSpec("x", NAN, 1.0, 0.0, 1.0),
    lambda: NICSpec("x", 1.0, 1.0, NAN, 1.0),
    lambda: GPUSpec("x", 2, 256, NAN, kib(256), gbyte_s(10)),
    lambda: GPUSpec("x", 2, 256, ghz(1.0), kib(256), NAN),
    lambda: DRAMSpec("x", gib(4), NAN, gbyte_s(10)),
    lambda: DRAMSpec("x", gib(4), gbyte_s(10), NAN),
    lambda: CPUCoreSpec("x", NAN, 1.0, 15, 0.1),
])
def test_catalog_validators_reject_nan(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("value", [NAN, float("inf"), True, "fast", None])
def test_hardware_override_must_be_a_finite_number(value):
    from repro.campaign import RunSpec

    with pytest.raises(ConfigurationError, match="'nic.achievable_rate'"):
        RunSpec.normalize("jacobi", hardware={"nic.achievable_rate": value})


def test_hardware_override_is_validated_by_the_component():
    from repro.campaign import RunSpec

    line_rate = catalog.XGBE_PCIE.line_rate
    with pytest.raises(ConfigurationError, match="exceeds line rate"):
        RunSpec.normalize("jacobi", hardware={"nic.achievable_rate": 2 * line_rate})
    with pytest.raises(ConfigurationError, match="positive"):
        RunSpec.normalize("jacobi", hardware={"gpu.memory_bandwidth": -1.0})

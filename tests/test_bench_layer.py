"""Tests for the experiment harness (repro.bench): runner, caching,
table formatting, and the cheap experiment functions end to end."""

import pytest

from repro.bench import calibration, experiments as ex, tables
from repro.bench.runner import CLUSTER_SIZES, clear_cache, run_spec, run_workload
from repro.campaign import RunSpec
from repro.core import LimitingFactor


def test_cluster_sizes_match_paper():
    assert CLUSTER_SIZES == (2, 4, 8, 16)


def test_run_workload_basic_fields():
    run = run_workload("jacobi", nodes=2, use_cache=False)
    assert run.runtime > 0
    assert run.cluster.node_count == 2
    assert run.rank_to_node == [0, 1]
    assert run.trace is None


def test_run_workload_traced():
    run = run_workload("jacobi", nodes=2, traced=True, use_cache=False)
    assert run.trace is not None
    assert run.trace.n_ranks == 2
    assert run.trace.total_network_bytes() > 0


def test_run_workload_cache_hits():
    from repro.bench.runner import cache_stats

    clear_cache()
    first = run_workload("jacobi", nodes=2)
    second = run_workload("jacobi", nodes=2)
    # Cache hits hand out defensive snapshots, never a shared object ...
    assert first is not second
    assert first.result is not second.result
    # ... but the measurements are bit-identical and the hit was counted.
    assert first.result.elapsed_seconds == second.result.elapsed_seconds
    assert cache_stats()["memory_hits"] == 1
    third = run_workload("jacobi", nodes=2, use_cache=False)
    assert third is not first
    assert cache_stats()["memory_hits"] == 1  # bypass did not touch the cache
    clear_cache()


def test_run_workload_kwargs_affect_cache_key():
    clear_cache()
    a = run_workload("jacobi", nodes=2, iterations=5)
    b = run_workload("jacobi", nodes=2, iterations=6)
    assert a is not b
    assert a.result.gpu_flops < b.result.gpu_flops
    clear_cache()


def test_run_workload_systems():
    thunder = run_workload("ep", system="thunderx", use_cache=False)
    assert thunder.cluster.node_count == 1
    assert len(thunder.result.counters) == 64  # the paper's 64 ranks
    gtx = run_workload("jacobi", system="gtx980", nodes=2, use_cache=False)
    assert gtx.cluster.spec.pcie_bandwidth is not None
    with pytest.raises(ValueError):
        run_workload("jacobi", system="cray")


def test_determinism_same_key_same_numbers():
    a = run_workload("tealeaf2d", nodes=2, use_cache=False)
    b = run_workload("tealeaf2d", nodes=2, use_cache=False)
    assert a.runtime == b.runtime
    assert a.result.energy_joules == b.result.energy_joules


# -- experiment functions (cheap configurations) ----------------------------------


def test_network_comparison_small():
    cells = ex.network_comparison(workloads=("jacobi",), sizes=(2,))
    assert len(cells) == 1
    cell = cells[0]
    assert cell.speedup >= 1.0
    assert cell.energy_ratio > 0
    text = tables.format_network_comparison(cells)
    assert "jacobi" in text and "average" in text


def test_average_by_size():
    cells = ex.network_comparison(workloads=("jacobi", "tealeaf2d"), sizes=(2,))
    averages = ex.average_by_size(cells)
    assert set(averages) == {2}
    spd, enr = averages[2]
    values = [c.speedup for c in cells]
    assert min(values) <= spd <= max(values)


def test_traffic_points_formatting():
    points = ex.traffic_characterization(nodes=2)
    assert len(points) == 14  # 7 workloads x 2 networks
    text = tables.format_traffic(points)
    assert "tealeaf3d-10G" in text


def test_roofline_points_small_cluster():
    points = ex.roofline_points(nodes=2)
    assert set(points) == {"1G", "10G"}
    for network, plist in points.items():
        assert len(plist) == 7
        for p in plist:
            assert p.limit in (LimitingFactor.NETWORK, LimitingFactor.OPERATIONAL)


def test_memory_model_rows_normalized():
    rows = ex.memory_model_study(sizes=(1,))
    base = [r for r in rows if r.model == "host-device"]
    assert all(r.runtime == 1.0 for r in base)
    text = tables.format_memory_models(rows)
    assert "zero-copy" in text


def test_work_ratio_small():
    study = ex.work_ratio_study(ratios=(1.0, 0.5), sizes=(2,))
    assert study[2][1.0] == 1.0
    assert study[2][0.5] < 1.0
    assert "GPU ratio" in tables.format_work_ratio(study)


def test_collocation_study_measures_through_one_run_path(monkeypatch):
    """Every Table IV run, collocated hpl included, is simulated by the
    runner's one cold-run function, never by a private cluster."""
    from repro.bench import runner
    from repro.workloads.base import Workload

    depth = [0]
    inside_simulate = []
    simulate, run_on = runner._simulate, Workload.run_on

    def counting_simulate(*args, **kwargs):
        depth[0] += 1
        try:
            return simulate(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counting_run_on(self, *args, **kwargs):
        inside_simulate.append(depth[0] > 0)
        return run_on(self, *args, **kwargs)

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setattr(runner, "_cache", {})
    monkeypatch.setattr(runner, "_simulate", counting_simulate)
    monkeypatch.setattr(Workload, "run_on", counting_run_on)
    # One usable CPU keeps every run in this process, where the counters
    # can see it; pool workers run the same _simulate (tests/test_campaign.py).
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    rows = ex.collocation_study(sizes=(2,))
    assert [row.config for row in rows] == [
        "CPU+1G", "CPU+10G", "GPU+1G", "GPU+10G", "CPU+GPU+1G", "CPU+GPU+10G",
    ]
    assert inside_simulate == [True] * 6


def test_microbench_values():
    data = ex.network_microbench()
    assert data["10G"]["iperf_gbit"] > data["1G"]["iperf_gbit"]
    assert "iperf" in tables.format_microbench(data)


# -- calibration ledger -------------------------------------------------------------


def test_descriptive_tables_content():
    t5 = calibration.table5_rows()
    assert ("CPU cores", "96", "4 Cortex-A57") in t5
    t7 = calibration.table7_rows()
    assert any("2048 CUDA" in row[1] for row in t7)


def test_ledger_entries_have_provenance():
    for entry in calibration.CALIBRATION_LEDGER:
        assert entry.name and entry.value
        assert entry.provenance in ("paper", "reconstructed", "calibrated",
                                    "paper/reconstructed")


# -- sensitivity module (cheap configurations) ---------------------------------------


def test_sensitivity_perturbation_machinery():
    from repro.bench import sensitivity as sens

    baseline = sens._perturbed_spec(2, "10G", "ep")
    assert baseline == RunSpec.normalize("ep", nodes=2) and not baseline.hardware
    doubled = sens._perturbed_spec(2, "10G", "ep", gpu_bw_scale=2.0)
    base_gpu = run_spec(baseline).cluster.spec.node_spec.gpu
    run = run_spec(doubled)
    assert run.cluster.spec.node_spec.gpu.memory_bandwidth == pytest.approx(
        2.0 * base_gpu.memory_bandwidth
    )
    slower = sens._perturbed_spec(2, "1G", "ep", nic_rate_scale=0.5)
    assert dict(slower.hardware)["nic.achievable_rate"] == pytest.approx(
        0.5 * run.cluster.spec.nic.achievable_rate * 0.53 / 3.3, rel=0.01
    )


def test_sensitivity_nic_scale_capped_at_line_rate():
    from repro.bench import sensitivity as sens

    capped = run_spec(sens._perturbed_spec(2, "1G", "ep", nic_rate_scale=100.0))
    assert capped.cluster.spec.nic.achievable_rate == capped.cluster.spec.nic.line_rate


def test_scatter_render():
    from repro.bench.tables import render_scatter_ascii

    art = render_scatter_ascii(
        [("hpl", 1.5, 0.02), ("jacobi", 14.0, 0.03), ("tealeaf3d", 8.5, 0.13)],
        x_label="DRAM GB/s", y_label="net GB/s",
    )
    assert "H = hpl" in art and "T = tealeaf3d" in art
    assert "DRAM GB/s" in art
    with pytest.raises(ValueError):
        render_scatter_ascii([])
    with pytest.raises(ValueError):
        render_scatter_ascii([("x", -1.0, 1.0)])


def test_top_level_package_api():
    import repro

    assert repro.__version__ == "1.0.0"
    cluster = repro.Cluster(repro.tx1_cluster_spec(2))
    workload = repro.make_workload("jacobi", iterations=4)
    result = workload.run_on(cluster)
    point = repro.measure_roofline_point(
        "jacobi", result, cluster, precision=workload.precision
    )
    assert point.limit in (repro.LimitingFactor.OPERATIONAL,
                           repro.LimitingFactor.NETWORK)
    for name in repro.__all__:
        assert hasattr(repro, name)

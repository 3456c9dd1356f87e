"""Tests for the extension features: GPUDirect what-if, affinity study,
DVFS/bcast ablations, weak scaling, timelines, and the CLI."""

import pytest

from repro.bench import ablations as ab
from repro.cli import build_parser, main
from repro.cluster import Cluster
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import TraceError
from repro.tracing import Tracer, render_timeline, utilization_summary
from repro.workloads import JacobiWorkload, TeaLeaf3DWorkload


# -- GPUDirect what-if ---------------------------------------------------------


def test_gpudirect_reduces_runtime():
    staged = TeaLeaf3DWorkload(steps=1, cg_iterations=8)
    direct = TeaLeaf3DWorkload(steps=1, cg_iterations=8, gpudirect=True)
    t_staged = staged.run_on(Cluster(tx1_cluster_spec(8))).elapsed_seconds
    t_direct = direct.run_on(Cluster(tx1_cluster_spec(8))).elapsed_seconds
    assert t_direct < t_staged


def test_gpudirect_keeps_numeric_contract():
    """GPUDirect changes the data path, not the computation."""
    staged = TeaLeaf3DWorkload(steps=1, cg_iterations=4)
    direct = TeaLeaf3DWorkload(steps=1, cg_iterations=4, gpudirect=True)
    r_staged = staged.run_on(Cluster(tx1_cluster_spec(2)))
    r_direct = direct.run_on(Cluster(tx1_cluster_spec(2)))
    assert r_staged.gpu_flops == r_direct.gpu_flops
    assert r_staged.network_bytes == r_direct.network_bytes


def test_gpudirect_ablation_structure():
    results = ab.gpudirect_ablation(sizes=(4,))
    assert len(results) == 1
    assert results[0].speedup > 1.0


# -- affinity stability ------------------------------------------------------------


def test_affinity_study_reduces_variance():
    study = ab.affinity_stability_study(benchmark="mg", runs=4)
    assert study.pinned_std < study.floating_std
    assert study.std_reduction > 3.0
    assert study.floating_mean > study.pinned_mean  # migrations also cost time


def test_affinity_study_validates_runs():
    with pytest.raises(ValueError):
        ab.affinity_stability_study(runs=1)


# -- DVFS ---------------------------------------------------------------------------


def test_dvfs_higher_clock_is_faster():
    out = ab.dvfs_ablation(benchmark="ep", nodes=2)
    assert out["1.9GHz"] < out["1.73GHz"]
    # ep is CPU-bound: the gain should be a large share of the clock delta.
    gain = out["1.73GHz"] / out["1.9GHz"]
    assert 1.02 < gain <= 1.9 / 1.73 + 0.01


# -- bcast ablation -------------------------------------------------------------------


def test_bcast_algorithm_matters_for_hpl():
    out = ab.bcast_algorithm_ablation(nodes=8)
    assert out["scatter-allgather"] < out["binomial"]


def test_bcast_ablation_restores_threshold():
    from repro.mpi.communicator import Communicator

    before = Communicator.BCAST_LARGE_THRESHOLD
    ab.bcast_algorithm_ablation(nodes=2)
    assert Communicator.BCAST_LARGE_THRESHOLD == before


# -- weak scaling --------------------------------------------------------------------


def test_weak_scaling_efficiency_high():
    points = ab.weak_scaling_study(sizes=(1, 4), base_n=4096)
    assert points[0].efficiency == pytest.approx(1.0)
    assert points[1].efficiency > 0.9  # jacobi weak-scales well
    assert points[1].grid_n == 8192


def test_weak_scaling_beats_strong_scaling_efficiency():
    """The Tibidabo observation: at fixed per-node work, efficiency stays
    near 1 while strong scaling decays."""
    weak = ab.weak_scaling_study(sizes=(1, 16), base_n=4096)[-1].efficiency
    strong_base = JacobiWorkload(n=4096, iterations=30).run_on(
        Cluster(tx1_cluster_spec(1))
    )
    strong_16 = JacobiWorkload(n=4096, iterations=30).run_on(
        Cluster(tx1_cluster_spec(16))
    )
    strong_eff = strong_base.elapsed_seconds / strong_16.elapsed_seconds / 16
    assert weak > strong_eff


# -- timeline -------------------------------------------------------------------------


def _sample_trace():
    tracer = Tracer(2)
    tracer.record_state(0, "compute", 0.0, 4.0)
    tracer.record_state(0, "gpu", 4.0, 6.0)
    tracer.record_comm(0, 1, 1e6, 6.0, 8.0, tag=0)
    tracer.record_state(1, "compute", 0.0, 2.0)
    tracer.record_state(1, "copy", 2.0, 3.0)
    tracer.record_recv(1, 0, 1e6, 3.0, 8.0, tag=0)
    return tracer.finalize()


def test_timeline_glyphs():
    art = render_timeline(_sample_trace(), width=40)
    lines = art.splitlines()
    assert len(lines) == 3  # header + 2 ranks
    assert "#" in lines[1] and "g" in lines[1] and "-" in lines[1]
    assert "c" in lines[2] and "." in lines[2]


def test_timeline_window():
    art = render_timeline(_sample_trace(), width=40, t0=4.0, t1=6.0)
    # Inside the window rank 0 is purely on the GPU.
    row0 = art.splitlines()[1]
    assert set(row0[5:-1]) == {"g"}


def test_timeline_window_skips_states_ending_before_it():
    # The copy ends 0.04 s (less than one column) before the window opens;
    # it must not be drawn in the window's first column.
    tracer = Tracer(2)
    tracer.record_state(0, "gpu", 4.0, 6.0)
    tracer.record_state(1, "copy", 3.0, 3.96)
    tracer.record_comm(1, 0, 1e3, 2.0, 3.99, tag=0)
    art = render_timeline(tracer.finalize(), width=40, t0=4.0, t1=6.0)
    assert art.splitlines()[2] == "r1  |" + "." * 40 + "|"


def test_timeline_validation():
    trace = _sample_trace()
    with pytest.raises(TraceError):
        render_timeline(trace, width=4)
    with pytest.raises(TraceError):
        render_timeline(trace, t0=5.0, t1=5.0)


def test_utilization_summary():
    text = utilization_summary(_sample_trace())
    assert "r0" in text and "r1" in text
    assert "75.0" in text  # rank 0: 6s useful of 8s


# -- CLI ----------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "hpl" in out and "thunderx" in out and "table2" in out


def test_cli_run(capsys):
    assert main(["run", "jacobi", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "GFLOPS" in out and "MFLOPS/W" in out and "roofline" in out


def test_cli_run_with_timeline(capsys):
    assert main(["run", "ep", "--nodes", "2", "--timeline", "--width", "50"]) == 0
    out = capsys.readouterr().out
    assert "useful %" in out


def test_cli_experiment_microbench(capsys):
    assert main(["experiment", "microbench"]) == 0
    assert "iperf" in capsys.readouterr().out


def test_cli_experiment_unknown(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_cli_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom3"])


def test_cli_report(tmp_path, capsys):
    assert main(["report", "--outdir", str(tmp_path), "--experiments",
                 "microbench"]) == 0
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "REPORT.md").exists()

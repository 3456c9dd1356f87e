"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each function isolates one modeling or
system-design decision and quantifies its effect, regenerable via the
``benchmarks/bench_ablation_*.py`` modules.

* :func:`gpudirect_ablation` — the paper notes GPUDirect is unsupported on
  the TX1, forcing halo traffic through host staging; what would a
  GPUDirect-capable SoC buy?
* :func:`affinity_stability_study` — §IV-A: pinning MPI processes to cores
  collapses the run-to-run standard deviation on the 96-core ThunderX.
* :func:`dvfs_ablation` — the paper's footnote: the TX1 is documented at
  1.9 GHz but runs at 1.73 GHz; how much CPU performance is on the table?
* :func:`bcast_algorithm_ablation` — large-message broadcast algorithm
  (binomial tree vs scatter+allgather) under hpl's panel broadcasts.
* :func:`weak_scaling_study` — the related-work lens: hpl-class codes weak-
  scale well on SoC clusters (Tibidabo); grow the problem with the cluster.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from repro.bench.runner import prefetch, run_spec, run_workload
from repro.campaign.spec import RunSpec
from repro.cluster import Cluster, Job
from repro.cluster.cluster import thunderx_cluster_spec
from repro.errors import AnalysisError
from repro.units import ghz
from repro.workloads import npb_workload


# ---------------------------------------------------------------------------
# GPUDirect what-if
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpuDirectResult:
    """Speedup a GPUDirect-capable SoC would offer per cluster size."""

    workload: str
    nodes: int
    runtime_staged: float
    runtime_gpudirect: float

    @property
    def speedup(self) -> float:
        """Staged / GPUDirect runtime."""
        return self.runtime_staged / self.runtime_gpudirect


def gpudirect_ablation(sizes: tuple[int, ...] = (4, 16),
                       network: str = "10G") -> list[GpuDirectResult]:
    """tealeaf3d (the halo-heaviest code) with and without GPUDirect."""
    results = []
    for nodes in sizes:
        staged = run_workload("tealeaf3d", nodes=nodes, network=network)
        direct = run_workload(
            "tealeaf3d", nodes=nodes, network=network, gpudirect=True
        )
        results.append(
            GpuDirectResult(
                workload="tealeaf3d",
                nodes=nodes,
                runtime_staged=staged.runtime,
                runtime_gpudirect=direct.runtime,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Affinity pinning stability (§IV-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinityResult:
    """Run-to-run runtime statistics with and without pinning."""

    pinned_mean: float
    pinned_std: float
    floating_mean: float
    floating_std: float

    @property
    def std_reduction(self) -> float:
        """How many times smaller the pinned standard deviation is."""
        return self.floating_std / self.pinned_std if self.pinned_std > 0 else math.inf


def affinity_stability_study(benchmark: str = "bt", runs: int = 8) -> AffinityResult:
    """Repeat an NPB run on the ThunderX with/without pinned affinity.

    The paper: fixing each MPI process to one core reduced the runtime
    standard deviation from 9.3 s to 0.3 s across runs.
    """
    if runs < 2:
        raise AnalysisError("need at least two runs for a standard deviation")

    def sample(pin: bool, seed: int) -> float:
        workload = npb_workload(benchmark)
        cluster = Cluster(thunderx_cluster_spec())
        job = Job(cluster, ranks_per_node=64, pin_affinity=pin, seed=seed)
        return job.run(workload.program).elapsed_seconds

    pinned = [sample(True, seed) for seed in range(runs)]
    floating = [sample(False, 1000 + seed) for seed in range(runs)]
    return AffinityResult(
        pinned_mean=statistics.mean(pinned),
        pinned_std=statistics.stdev(pinned),
        floating_mean=statistics.mean(floating),
        floating_std=statistics.stdev(floating),
    )


# ---------------------------------------------------------------------------
# DVFS: the 1.73 GHz vs documented 1.9 GHz footnote
# ---------------------------------------------------------------------------


def _runtimes(specs: dict[str, RunSpec]) -> dict[str, float]:
    """Each labelled spec's runtime, the cold ones simulated in parallel."""
    prefetch(specs.values())
    return {label: run_spec(spec).runtime for label, spec in specs.items()}


def dvfs_ablation(benchmark: str = "bt", nodes: int = 4) -> dict[str, float]:
    """NPB runtime at the boards' 1.73 GHz vs the documented 1.9 GHz."""
    return _runtimes({
        label: RunSpec.normalize(benchmark, nodes=nodes, hardware={"cpu.frequency_hz": hz})
        for label, hz in (("1.73GHz", ghz(1.73)), ("1.9GHz", ghz(1.9)))
    })


# ---------------------------------------------------------------------------
# Broadcast algorithm ablation
# ---------------------------------------------------------------------------


def bcast_algorithm_ablation(nodes: int = 16, network: str = "10G") -> dict[str, float]:
    """hpl runtime with the scatter+allgather large-message broadcast vs
    forcing hpl's panel and U broadcasts down the binomial tree."""
    return _runtimes({
        bcast: RunSpec.normalize("hpl", nodes=nodes, network=network, bcast=bcast)
        for bcast in ("scatter-allgather", "binomial")
    })


# ---------------------------------------------------------------------------
# Weak scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakScalingPoint:
    """One cluster size of the weak-scaling sweep."""

    nodes: int
    grid_n: int
    runtime: float
    efficiency: float  # t(1) / t(P); 1.0 = perfect weak scaling


def weak_scaling_study(
    sizes: tuple[int, ...] = (1, 4, 16),
    base_n: int = 4096,
    network: str = "10G",
) -> list[WeakScalingPoint]:
    """jacobi with the grid grown as n = base_n * sqrt(P): constant work
    per node, the regime where SoC clusters shine (Tibidabo's hpl)."""
    baseline = None
    points = []
    for nodes in sizes:
        n = int(base_n * math.sqrt(nodes))
        runtime = run_workload(
            "jacobi", nodes=nodes, network=network, n=n, iterations=30
        ).runtime
        if baseline is None:
            baseline = runtime
        points.append(
            WeakScalingPoint(
                nodes=nodes,
                grid_n=n,
                runtime=runtime,
                efficiency=baseline / runtime,
            )
        )
    return points

"""The canned experiments, one per paper table/figure (DESIGN.md E1-E15).

Every function returns plain data structures the ``benchmarks/`` modules
print as paper-style rows; nothing here touches pytest so the experiments
are equally usable from examples and notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.analysis import build_observation_matrix, fit_pls, select_components_by_press
from repro.bench.runner import (
    CLUSTER_SIZES,
    ExperimentRun,
    prefetch,
    run_spec,
    run_workload,
)
from repro.campaign.spec import RunSpec
from repro.core import (
    ExtendedRoofline,
    RooflinePoint,
    measure_roofline_point,
    roofline_for_cluster,
)
from repro.counters import PMU_V3_EVENTS, collect_counters, derive_metrics
from repro.cuda import MemoryModel
from repro.hardware import catalog
from repro.network import SwitchSpec
from repro.replay import (
    ideal_load_balance_runtime,
    ideal_network_runtime,
    network_from_nic,
    replay,
)
from repro.scalability.extrapolate import ScalingFit, fit_usl
from repro.units import to_gbit_s, to_gbyte_s, to_gflops, to_ms
from repro.workloads import GPGPU_NAMES, NPB_NAMES

#: The scientific GPGPU benchmarks that communicate to solve one problem
#: (alexnet/googlenet are excluded from scalability analysis, §III-B.4).
GPGPU_SCIENTIFIC = ("hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d")

#: Fig. 8's candidate variables: portable events/metrics only, excluding
#: response-adjacent ones (IPC, cycles) as the paper's variable set does.
#: BR_MIS_RATIO and SPEC_RATIO are exact linear duplicates of BR_MIS_PRED
#: and INST_SPEC in relative form (the instruction stream is identical on
#: both systems), so only one of each pair enters the matrix; BR_RETIRED and
#: INST_RETIRED are constant-ratio distractors PLS should zero out.
PLS_VARIABLES = (
    "BR_MIS_PRED",
    "INST_SPEC",
    "LD_MISS_RATIO",
    "L1D_MISS_RATIO",
    "BR_RETIRED",
    "INST_RETIRED",
)


# ---------------------------------------------------------------------------
# E1/E2 — Figs. 1-2: 10 GbE vs 1 GbE speedup and energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkComparison:
    """One workload/size cell of Figs. 1-2."""

    workload: str
    nodes: int
    speedup: float  # runtime(1G) / runtime(10G)
    energy_ratio: float  # energy(10G) / energy(1G); < 1 means 10G wins


def network_comparison(
    workloads: Iterable[str] | None = None,
    sizes: Iterable[int] = CLUSTER_SIZES,
) -> list[NetworkComparison]:
    """Runtime and energy of every workload under both NICs (Figs. 1-2)."""
    names = tuple(workloads) if workloads else GPGPU_NAMES + NPB_NAMES
    sizes = tuple(sizes)
    specs = {
        (name, nodes, network): RunSpec.normalize(name, nodes=nodes, network=network)
        for name in names for nodes in sizes for network in ("1G", "10G")
    }
    prefetch(specs.values())
    cells = []
    for name in names:
        for nodes in sizes:
            one = run_spec(specs[name, nodes, "1G"])
            ten = run_spec(specs[name, nodes, "10G"])
            cells.append(
                NetworkComparison(
                    workload=name,
                    nodes=nodes,
                    speedup=one.runtime / ten.runtime,
                    energy_ratio=ten.result.energy_joules / one.result.energy_joules,
                )
            )
    return cells


def average_by_size(cells: list[NetworkComparison]) -> dict[int, tuple[float, float]]:
    """Per-cluster-size averages of (speedup, energy ratio)."""
    out: dict[int, tuple[float, float]] = {}
    for nodes in sorted({c.nodes for c in cells}):
        group = [c for c in cells if c.nodes == nodes]
        out[nodes] = (
            float(np.mean([c.speedup for c in group])),
            float(np.mean([c.energy_ratio for c in group])),
        )
    return out


# ---------------------------------------------------------------------------
# E3 — Fig. 3: DRAM vs network traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficPoint:
    """One labelled point of Fig. 3 (per-node average rates, GB/s)."""

    workload: str
    network: str
    dram_rate: float
    network_rate: float


def traffic_characterization(nodes: int = 16) -> list[TrafficPoint]:
    """Average DRAM-to-GPGPU and network traffic for the GPGPU set (Fig. 3)."""
    points = []
    for name in GPGPU_NAMES:
        for network in ("1G", "10G"):
            run = run_workload(name, nodes=nodes, network=network)
            points.append(
                TrafficPoint(
                    workload=name,
                    network=network,
                    dram_rate=to_gbyte_s(run.result.gpu_dram_bytes / run.runtime / nodes),
                    network_rate=to_gbyte_s(run.result.network_bytes / run.runtime / nodes),
                )
            )
    return points


# ---------------------------------------------------------------------------
# E4/E5 — Fig. 4 + Table II: the extended Roofline
# ---------------------------------------------------------------------------


def roofline_models(nodes: int = 16) -> dict[str, ExtendedRoofline]:
    """The per-node extended-Roofline ceilings under each NIC (Fig. 4)."""
    return {
        network: roofline_for_cluster(
            run_workload("jacobi", nodes=nodes, network=network).cluster
        )
        for network in ("1G", "10G")
    }


def roofline_points(nodes: int = 16) -> dict[str, list[RooflinePoint]]:
    """Table II: measured intensities/throughput per benchmark per NIC.

    Each point is placed against its workload's kernel precision (the CNNs
    run single precision; the intensities are precision-agnostic).
    """
    out: dict[str, list[RooflinePoint]] = {}
    for network in ("1G", "10G"):
        points = []
        for name in GPGPU_NAMES:
            run = run_workload(name, nodes=nodes, network=network)
            points.append(measure_roofline_point(
                name, run.result, run.cluster, precision=run.workload.precision
            ))
        out[network] = points
    return out


# ---------------------------------------------------------------------------
# E6/E7 — Figs. 5-6: scalability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalabilityCurve:
    """One workload's Fig. 5/6 panel."""

    workload: str
    sizes: tuple[int, ...]
    measured_1g: tuple[float, ...]  # speedups vs 1 node
    measured_10g: tuple[float, ...]
    ideal_network: tuple[float, ...]  # replayed speedups
    ideal_load_balance: tuple[float, ...]
    fit_1g: ScalingFit
    fit_10g: ScalingFit
    fit_ideal_network: ScalingFit
    fit_ideal_lb: ScalingFit

    def extrapolate(self, nodes: float) -> dict[str, float]:
        """Model speedups at *nodes* (the paper extrapolates to 256)."""
        return {
            "1G": float(self.fit_1g.speedup(nodes)),
            "10G": float(self.fit_10g.speedup(nodes)),
            "ideal-network": float(self.fit_ideal_network.speedup(nodes)),
            "ideal-LB": float(self.fit_ideal_lb.speedup(nodes)),
        }


def _what_if(spec: RunSpec, run: ExperimentRun) -> tuple[float, float, float] | None:
    """A multi-node 10G run's replayed runtimes: under its measured network,
    an ideal network and an ideal load balance (None for the other runs,
    which Figs. 5-6 do not replay)."""
    if spec.network != "10G" or spec.nodes == 1:
        return None
    net = network_from_nic(run.cluster.spec.nic, run.cluster.spec.switch)
    t_replay = replay(run.trace, net, rank_to_node=run.rank_to_node).runtime
    t_ideal = ideal_network_runtime(run.trace, rank_to_node=run.rank_to_node)
    t_lb = ideal_load_balance_runtime(run.trace, net, rank_to_node=run.rank_to_node)
    return t_replay, t_ideal, t_lb


def _scalability_for(name: str, sizes: tuple[int, ...],
                     specs: dict[tuple[int, str], RunSpec],
                     what_if: dict[RunSpec, tuple[float, float, float] | None],
                     ) -> ScalabilityCurve:
    base_1g = run_spec(specs[1, "1G"])
    base_10g = run_spec(specs[1, "10G"])
    m1, m10, inet, ilb = [], [], [], []
    for nodes in sizes:
        r1 = run_spec(specs[nodes, "1G"])
        r10 = run_spec(specs[nodes, "10G"])
        m1.append(base_1g.runtime / r1.runtime)
        m10.append(base_10g.runtime / r10.runtime)
        # Scenario speedups are computed against a same-network replay
        # baseline so replay-model bias cancels: the what-if factor is
        # (scenario replay / baseline replay), applied to the measurement.
        t_replay, t_ideal, t_lb = what_if[specs[nodes, "10G"]]
        t_replay = max(t_replay, 1e-12)
        inet.append(base_10g.runtime / max(r10.runtime * t_ideal / t_replay, 1e-12))
        ilb.append(base_10g.runtime / max(r10.runtime * t_lb / t_replay, 1e-12))
    nodes_f = [float(n) for n in sizes]
    return ScalabilityCurve(
        workload=name,
        sizes=tuple(sizes),
        measured_1g=tuple(m1),
        measured_10g=tuple(m10),
        ideal_network=tuple(inet),
        ideal_load_balance=tuple(ilb),
        fit_1g=fit_usl(nodes_f, m1),
        fit_10g=fit_usl(nodes_f, m10),
        fit_ideal_network=fit_usl(nodes_f, inet),
        fit_ideal_lb=fit_usl(nodes_f, ilb),
    )


def _scalability_curves(names: tuple[str, ...], sizes: tuple[int, ...],
                        ranks_per_node: int | None, **kwargs) -> list[ScalabilityCurve]:
    """One panel per workload; every panel's runs are prefetched together
    and each run's replays are computed where it is simulated."""
    specs = {
        name: {
            (nodes, network): RunSpec.normalize(
                name, nodes=nodes, network=network, traced=True,
                ranks_per_node=ranks_per_node, **kwargs)
            for nodes in (1, *sizes) for network in ("1G", "10G")
        }
        for name in names
    }
    what_if = prefetch(
        (spec for curve in specs.values() for spec in curve.values()), then=_what_if)
    return [_scalability_for(name, sizes, specs[name], what_if) for name in names]


def gpgpu_scalability(sizes: tuple[int, ...] = CLUSTER_SIZES) -> list[ScalabilityCurve]:
    """Fig. 5: the five communicating GPGPU benchmarks."""
    return _scalability_curves(GPGPU_SCIENTIFIC, sizes, ranks_per_node=None)


def npb_scalability(sizes: tuple[int, ...] = CLUSTER_SIZES) -> list[ScalabilityCurve]:
    """Fig. 6: the NPB suite at 4 ranks/node."""
    return _scalability_curves(NPB_NAMES, sizes, ranks_per_node=4)


# ---------------------------------------------------------------------------
# E8 — Table III: CUDA memory-management models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryModelRow:
    """One (cluster size, model) cell of Table III, normalized to host+device."""

    nodes: int
    model: str
    runtime: float
    l2_usage: float
    l2_read_throughput: float
    memory_stalls: float


def memory_model_study(sizes: tuple[int, ...] = (1, 16)) -> list[MemoryModelRow]:
    """Table III: jacobi under the three CUDA memory models."""
    rows = []
    for nodes in sizes:
        measured = {}
        for model in MemoryModel:
            run = run_workload(
                "jacobi", nodes=nodes, network="10G", memory_model=model
            )
            profs = run.result.gpu_profilers
            busy = sum(p.gpu_busy_seconds for p in profs)
            measured[model] = {
                "runtime": run.runtime,
                "l2": float(np.mean([p.mean_l2_utilization() for p in profs])),
                "l2rt": float(np.mean([p.mean_l2_read_throughput() for p in profs])),
                "stalls": (
                    sum(p.mean_memory_stall_fraction() * p.gpu_busy_seconds
                        for p in profs) / busy if busy else 0.0
                ),
            }
        base = measured[MemoryModel.HOST_DEVICE]
        for model in MemoryModel:
            m = measured[model]
            rows.append(
                MemoryModelRow(
                    nodes=nodes,
                    model=model.value,
                    runtime=m["runtime"] / base["runtime"],
                    l2_usage=_safe_ratio(m["l2"], base["l2"]),
                    l2_read_throughput=_safe_ratio(m["l2rt"], base["l2rt"]),
                    memory_stalls=_safe_ratio(m["stalls"], base["stalls"]),
                )
            )
    return rows


def _safe_ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# E9/E10 — Fig. 7 + Table IV: simultaneous CPU-GPGPU usage
# ---------------------------------------------------------------------------


def work_ratio_study(
    ratios: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
    sizes: tuple[int, ...] = CLUSTER_SIZES,
) -> dict[int, dict[float, float]]:
    """Fig. 7: hpl energy efficiency vs GPGPU/CPU work ratio, normalized
    to the all-GPGPU case, per cluster size."""
    specs = {
        (nodes, ratio): RunSpec.normalize("hpl", nodes=nodes, gpu_work_ratio=ratio)
        for nodes in sizes for ratio in (1.0, *ratios)
    }
    prefetch(specs.values())
    out: dict[int, dict[float, float]] = {}
    for nodes in sizes:
        base = run_spec(specs[nodes, 1.0])
        base_eff = base.result.mflops_per_watt()
        out[nodes] = {}
        for ratio in ratios:
            run = run_spec(specs[nodes, ratio])
            out[nodes][ratio] = run.result.mflops_per_watt() / base_eff
    return out


@dataclass(frozen=True)
class CollocationRow:
    """One Table IV row: config x cluster sizes."""

    config: str
    throughput_gflops: dict[int, float]
    mflops_per_watt: dict[int, float]


def collocation_study(sizes: tuple[int, ...] = CLUSTER_SIZES) -> list[CollocationRow]:
    """Table IV: CPU-only, GPGPU, and collocated hpl under both NICs."""
    configs = (("CPU", "cpu"), ("GPU", "gpu"), ("CPU+GPU", "collocated"))
    specs = {
        (mode, network, nodes): RunSpec.normalize(
            "hpl", nodes=nodes, network=network, mode=mode)
        for _, mode in configs for network in ("1G", "10G") for nodes in sizes
    }
    prefetch(specs.values())
    rows = []
    for label, mode in configs:
        for network in ("1G", "10G"):
            throughput: dict[int, float] = {}
            efficiency: dict[int, float] = {}
            for nodes in sizes:
                run = run_spec(specs[mode, network, nodes])
                throughput[nodes] = to_gflops(run.result.throughput_flops)
                efficiency[nodes] = run.result.mflops_per_watt()
            rows.append(
                CollocationRow(
                    config=f"{label}+{network}",
                    throughput_gflops=throughput,
                    mflops_per_watt=efficiency,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# E11/E12 — Table VI + Fig. 8: the Cavium comparison and PLS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaviumRow:
    """One Table VI row: Cavium relative to the 16-node TX1 cluster."""

    benchmark: str
    runtime: float
    power: float
    energy: float


def cavium_comparison(nodes: int = 16) -> list[CaviumRow]:
    """Table VI: NPB on the ThunderX server vs the TX1 cluster, 64 ranks each."""
    rows = []
    for name in NPB_NAMES:
        tx1 = run_workload(name, nodes=nodes, network="10G", ranks_per_node=4)
        cavium = run_workload(name, system="thunderx")
        rows.append(
            CaviumRow(
                benchmark=name,
                runtime=cavium.runtime / tx1.runtime,
                power=cavium.result.average_power_watts
                / tx1.result.average_power_watts,
                energy=cavium.result.energy_joules / tx1.result.energy_joules,
            )
        )
    return rows


@dataclass(frozen=True)
class PLSStudy:
    """Fig. 8's inputs and outputs."""

    benchmarks: tuple[str, ...]
    relative_runtime: dict[str, float]
    top_variables: list[tuple[str, float]]
    components_for_95pct: int
    press_selected_components: int  # leave-one-out cross-validated choice
    chosen_relative_values: dict[str, dict[str, float]]  # bench -> var -> ratio


def pls_study(nodes: int = 16, top_k: int = 3) -> PLSStudy:
    """Fig. 8: PLS over relative PMU metrics vs relative performance."""
    metrics_cavium: dict[str, dict[str, float]] = {}
    metrics_tx1: dict[str, dict[str, float]] = {}
    runtime_cavium: dict[str, float] = {}
    runtime_tx1: dict[str, float] = {}
    for name in NPB_NAMES:
        tx1 = run_workload(name, nodes=nodes, network="10G", ranks_per_node=4)
        cavium = run_workload(name, system="thunderx")
        metrics_tx1[name] = derive_metrics(
            collect_counters(tx1.result, PMU_V3_EVENTS)
        )
        metrics_cavium[name] = derive_metrics(
            collect_counters(cavium.result, PMU_V3_EVENTS)
        )
        runtime_tx1[name] = tx1.runtime
        runtime_cavium[name] = cavium.runtime

    obs = build_observation_matrix(
        metrics_cavium, metrics_tx1, runtime_cavium, runtime_tx1,
        variables=list(PLS_VARIABLES),
    )
    model = fit_pls(obs.X, obs.y, list(obs.variable_names), n_components=3)
    press_k = select_components_by_press(
        obs.X, obs.y, list(obs.variable_names), max_components=3
    )
    top = model.top_variables(top_k)
    chosen = {}
    for i, bench in enumerate(obs.benchmarks):
        chosen[bench] = {
            var: float(obs.X[i, obs.variable_names.index(var)]) for var, _ in top
        }
    return PLSStudy(
        benchmarks=obs.benchmarks,
        relative_runtime={b: float(y) for b, y in zip(obs.benchmarks, obs.y)},
        top_variables=top,
        components_for_95pct=model.components_for_variance(0.95),
        press_selected_components=press_k,
        chosen_relative_values=chosen,
    )


# ---------------------------------------------------------------------------
# E13/E14 — Figs. 9-10: discrete-GPGPU comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteGPURow:
    """One Fig. 9 point: TX1 cluster size vs 2x GTX 980."""

    workload: str
    nodes: int
    runtime_ratio: float  # tx1 / gtx (x axis)
    energy_ratio: float  # tx1 / gtx (y axis)


def discrete_gpu_comparison(
    sizes: tuple[int, ...] = CLUSTER_SIZES,
    workloads: Iterable[str] = GPGPU_NAMES,
) -> list[DiscreteGPURow]:
    """Fig. 9: normalized runtime and energy vs the 2x GTX 980 cluster."""
    rows = []
    for name in workloads:
        gtx = run_workload(name, system="gtx980", nodes=2)
        for nodes in sizes:
            tx1 = run_workload(name, nodes=nodes, network="10G")
            rows.append(
                DiscreteGPURow(
                    workload=name,
                    nodes=nodes,
                    runtime_ratio=tx1.runtime / gtx.runtime,
                    energy_ratio=tx1.result.energy_joules / gtx.result.energy_joules,
                )
            )
    return rows


@dataclass(frozen=True)
class AIBalanceRow:
    """One Fig. 10 point: scale-out vs scale-up for the CNN workloads."""

    workload: str
    nodes: int
    speedup: float  # gtx_runtime / tx1_runtime
    cpu_cycles_ratio: float  # unhalted CPU cycles/s, tx1 / gtx


def ai_balance_study(sizes: tuple[int, ...] = CLUSTER_SIZES) -> list[AIBalanceRow]:
    """Fig. 10: CNN speedup and unhalted-CPU-cycles rate vs the scale-up."""
    rows = []
    for name in ("alexnet", "googlenet"):
        gtx = run_workload(name, system="gtx980", nodes=2)
        gtx_rate = sum(c.cycles for c in gtx.result.counters) / gtx.runtime
        for nodes in sizes:
            tx1 = run_workload(name, nodes=nodes, network="10G")
            tx1_rate = sum(c.cycles for c in tx1.result.counters) / tx1.runtime
            rows.append(
                AIBalanceRow(
                    workload=name,
                    nodes=nodes,
                    speedup=gtx.runtime / tx1.runtime,
                    cpu_cycles_ratio=tx1_rate / gtx_rate,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# E15 — network microbenchmarks (§III-A)
# ---------------------------------------------------------------------------


def network_microbench() -> dict[str, dict[str, float]]:
    """iperf throughput (Gb/s) and ping-pong RTT (ms) for both NICs."""
    from repro.network import iperf, ping_pong
    from repro.sim import Environment
    from repro.hardware.node import Node

    out: dict[str, dict[str, float]] = {}
    for label, nic, switch in (
        ("1G", catalog.GBE_ONBOARD, SwitchSpec.from_catalog(catalog.SWITCH_1G)),
        ("10G", catalog.XGBE_PCIE, SwitchSpec.from_catalog(catalog.SWITCH_10G)),
    ):
        from repro.network import Fabric

        env = Environment()
        fabric = Fabric(env, switch)
        for i in range(2):
            fabric.attach(Node(env, catalog.jetson_tx1(), node_id=i, nic=nic))
        rate = iperf(env, fabric, 0, 1, duration_bytes=5e9)
        env2 = Environment()
        fabric2 = Fabric(env2, switch)
        for i in range(2):
            fabric2.attach(Node(env2, catalog.jetson_tx1(), node_id=i, nic=nic))
        rtt = ping_pong(env2, fabric2, 0, 1)
        out[label] = {"iperf_gbit": to_gbit_s(rate), "pingpong_ms": to_ms(rtt)}
    return out

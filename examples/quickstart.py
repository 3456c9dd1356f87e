#!/usr/bin/env python3
"""Quickstart: build the paper's cluster, run a workload, read the model.

Builds a 4-node Jetson TX1 cluster with 10 GbE, runs the GPGPU jacobi
benchmark on it, places the measurement on the extended Roofline, and
prints runtime / throughput / energy — the core loop of the whole library
in ~40 lines.

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster
from repro.cluster.cluster import tx1_cluster_spec
from repro.core import measure_roofline_point, render_roofline_ascii, roofline_for_cluster
from repro.units import to_gflops
from repro.workloads import JacobiWorkload
from repro.workloads.kernels import jacobi_poisson_solve

import numpy as np


def main() -> None:
    # 1. The numerics are real: solve a small Poisson problem first.
    n = 33
    xs = np.linspace(0.0, 1.0, n)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    f = 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    _, iters = jacobi_poisson_solve(f, tol=1e-6)
    print(f"[validation] jacobi solver converged in {iters} iterations")

    # 2. Build the cluster and run the paper-scale workload on it.
    cluster = Cluster(tx1_cluster_spec(4, network="10G"))
    workload = JacobiWorkload(n=8192, iterations=60)
    result = workload.run_on(cluster)

    print(f"\n[run] {cluster.spec.name}: jacobi {workload.n}x{workload.n}, "
          f"{workload.iterations()} iterations")
    print(f"  runtime      : {result.elapsed_seconds:8.2f} s")
    print(f"  GPU FLOPs    : {result.gpu_flops / 1e9:8.1f} GFLOP")
    print(f"  throughput   : {to_gflops(result.throughput_flops):8.2f} GFLOPS")
    print(f"  avg power    : {result.average_power_watts:8.1f} W")
    print(f"  energy       : {result.energy_joules:8.1f} J")
    print(f"  efficiency   : {result.mflops_per_watt():8.0f} MFLOPS/W")

    # 3. Place the run on the paper's extended Roofline model.
    model = roofline_for_cluster(cluster)
    point = measure_roofline_point(
        "jacobi", result, cluster, precision=workload.precision
    )
    print(f"\n[roofline] OI={point.operational_intensity:.2f} FLOP/B, "
          f"NI={point.network_intensity:.1f} FLOP/B -> "
          f"{point.percent_of_peak:.0f}% of the attainable bound "
          f"(limit: {point.limit.value})")
    print()
    print(render_roofline_ascii(model, [point]))


if __name__ == "__main__":
    main()

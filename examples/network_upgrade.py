#!/usr/bin/env python3
"""The paper's headline question: is a 10 GbE card worth +5 W per node?

Runs the network microbenchmarks (§III-A), then a representative workload
mix on a 16-node TX1 cluster under 1 GbE and 10 GbE, and prints speedup,
normalized energy, and where each workload lands on the extended Roofline.

Run:  python examples/network_upgrade.py
"""

from repro.bench import experiments as ex, tables
from repro.bench.runner import run_workload
from repro.core import measure_roofline_point

MIX = ("hpl", "tealeaf3d", "jacobi", "alexnet", "ft", "bt")


def main() -> None:
    micro = ex.network_microbench()
    print(tables.format_microbench(micro))
    print()

    print(f"{'workload':<12}{'1G s':>9}{'10G s':>9}{'speedup':>9}"
          f"{'energy':>8}  limit@1G -> limit@10G")
    for name in MIX:
        rpn = 4 if name in ("ft", "bt") else None
        one = run_workload(name, nodes=16, network="1G", ranks_per_node=rpn)
        ten = run_workload(name, nodes=16, network="10G", ranks_per_node=rpn)
        speedup = one.runtime / ten.runtime
        energy = ten.result.energy_joules / one.result.energy_joules
        limits = ""
        if name not in ("ft", "bt"):  # GPGPU workloads carry roofline points
            precision = one.workload.precision
            p1 = measure_roofline_point(
                name, one.result, one.cluster, precision=precision
            )
            p10 = measure_roofline_point(
                name, ten.result, ten.cluster, precision=precision
            )
            limits = f"{p1.limit.value} -> {p10.limit.value}"
        print(f"{name:<12}{one.runtime:>9.1f}{ten.runtime:>9.1f}"
              f"{speedup:>9.2f}{energy:>8.2f}  {limits}")

    print("\nReading: network-bound workloads (hpl, tealeaf3d, ft) convert the"
          "\nfaster NIC into speedup and net energy savings; compute-bound ones"
          "\n(bt, alexnet) pay the card's power for little gain — Figs. 1-2.")


if __name__ == "__main__":
    main()

"""repro — *Understanding the Role of GPGPU-accelerated SoC-based ARM
Clusters* (Azimi, Fox, Reda; IEEE CLUSTER 2017), reproduced in Python.

The package pairs the paper's methodological contribution — the **extended
Roofline model** with a network-intensity axis (`repro.core`) — with a
fully simulated substrate (TX1 cluster, ThunderX server, discrete-GPU
hosts) and the complete workload suite, so every table and figure of the
evaluation regenerates from `benchmarks/`.

Quick start::

    from repro.bench import run_workload
    from repro.core import measure_roofline_point

    run = run_workload("tealeaf3d", nodes=16, network="10G")
    point = measure_roofline_point(
        "tealeaf3d", run.result, run.cluster, precision=run.workload.precision
    )

See README.md for the architecture tour, DESIGN.md for the substitution
rationale, EXPERIMENTS.md for paper-vs-measured, and docs/TUTORIAL.md for
adding workloads.
"""

from repro.cluster import Cluster, Job, Metering
from repro.cluster.cluster import (
    gtx980_cluster_spec,
    thunderx_cluster_spec,
    tx1_cluster_spec,
)
from repro.core import (
    ExtendedRoofline,
    LimitingFactor,
    RooflineModel,
    RooflinePoint,
    measure_roofline_point,
    roofline_for_cluster,
)
from repro.workloads import ALL_NAMES, GPGPU_NAMES, NPB_NAMES, make_workload

__version__ = "1.0.0"

__all__ = [
    "ALL_NAMES",
    "Cluster",
    "ExtendedRoofline",
    "GPGPU_NAMES",
    "Job",
    "LimitingFactor",
    "Metering",
    "NPB_NAMES",
    "RooflineModel",
    "RooflinePoint",
    "__version__",
    "gtx980_cluster_spec",
    "make_workload",
    "measure_roofline_point",
    "roofline_for_cluster",
    "thunderx_cluster_spec",
    "tx1_cluster_spec",
]

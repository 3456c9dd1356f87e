"""ClusterSoCBench + NPB: the paper's workload suite (Table I).

GPGPU-accelerated (MPI+CUDA):

========== ==========================================================
hpl        High-Performance Linpack, blocked LU            (`HplWorkload`)
jacobi     2-D Poisson solver                              (`JacobiWorkload`)
cloverleaf compressible Euler equations                    (`CloverLeafWorkload`)
tealeaf2d  2-D linear heat conduction (CG)                 (`TeaLeaf2DWorkload`)
tealeaf3d  3-D linear heat conduction (CG)                 (`TeaLeaf3DWorkload`)
alexnet    Caffe AlexNet ImageNet classification           (`ImageClassificationWorkload`)
googlenet  Caffe GoogLeNet ImageNet classification         (`ImageClassificationWorkload`)
========== ==========================================================

CPU (NAS Parallel Benchmarks, class C): bt cg ep ft is lu mg sp via
:func:`repro.workloads.npb.npb_workload`.

:func:`gpgpu_workload` / :func:`make_workload` build instances by tag.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.workloads.base import GpuIterativeWorkload, Workload, block_partition
from repro.workloads.caffe import ImageClassificationWorkload, network_spec
from repro.workloads.cloverleaf import CloverLeafWorkload
from repro.workloads.hpl import HplWorkload
from repro.workloads.jacobi import JacobiWorkload
from repro.workloads.npb import NPB_SPECS, npb_workload
from repro.workloads.tealeaf import TeaLeaf2DWorkload, TeaLeaf3DWorkload

#: The paper's GPGPU-accelerated set (Table I order).
GPGPU_NAMES = (
    "hpl", "cloverleaf", "tealeaf2d", "tealeaf3d", "jacobi", "alexnet", "googlenet"
)
#: The NPB suite.
NPB_NAMES = tuple(sorted(NPB_SPECS))
#: Everything.
ALL_NAMES = GPGPU_NAMES + NPB_NAMES


#: tag -> (workload class, preset kwargs the tag fixes).  The preset is
#: what distinguishes e.g. ``alexnet`` from ``googlenet``; campaign
#: normalization folds it into the cache key and rejects overrides.
GPGPU_FACTORIES: dict[str, tuple[type[Workload], dict]] = {
    "hpl": (HplWorkload, {}),
    "jacobi": (JacobiWorkload, {}),
    "cloverleaf": (CloverLeafWorkload, {}),
    "tealeaf2d": (TeaLeaf2DWorkload, {}),
    "tealeaf3d": (TeaLeaf3DWorkload, {}),
    "alexnet": (ImageClassificationWorkload, {"network": "alexnet"}),
    "googlenet": (ImageClassificationWorkload, {"network": "googlenet"}),
}


def gpgpu_workload(name: str, **kwargs) -> Workload:
    """Factory for the GPGPU-accelerated benchmarks."""
    try:
        cls, preset = GPGPU_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown GPGPU workload {name!r}; choose from {GPGPU_NAMES}"
        ) from None
    conflicts = sorted(
        key for key, value in preset.items()
        if key in kwargs and kwargs[key] != value
    )
    if conflicts:
        raise ConfigurationError(
            f"workload {name!r} fixes parameter(s) {', '.join(conflicts)}; "
            f"they cannot be overridden"
        )
    return cls(**{**kwargs, **preset})


def make_workload(name: str, **kwargs) -> Workload:
    """Factory for any benchmark tag in :data:`ALL_NAMES`."""
    if name in GPGPU_NAMES:
        return gpgpu_workload(name, **kwargs)
    if name in NPB_SPECS:
        if kwargs:
            raise ConfigurationError(
                f"workload {name!r} accepts no parameters; "
                f"got {', '.join(sorted(kwargs))}"
            )
        return npb_workload(name)
    raise ConfigurationError(f"unknown workload {name!r}; choose from {ALL_NAMES}")


__all__ = [
    "ALL_NAMES",
    "CloverLeafWorkload",
    "GPGPU_FACTORIES",
    "GPGPU_NAMES",
    "GpuIterativeWorkload",
    "HplWorkload",
    "ImageClassificationWorkload",
    "JacobiWorkload",
    "NPB_NAMES",
    "TeaLeaf2DWorkload",
    "TeaLeaf3DWorkload",
    "Workload",
    "block_partition",
    "gpgpu_workload",
    "make_workload",
    "network_spec",
    "npb_workload",
]

"""Mini-Caffe: distributed image classification with AlexNet / GoogLeNet.

The paper parallelizes Caffe inference across the cluster with its own
scripts: each node fetches JPEG batches from the NFS server, decodes them on
CPU cores, and runs the forward pass on the GPGPU.  This module provides

* network descriptions (layer tables built from `repro.workloads.kernels.nn`
  cost functions) for AlexNet and GoogLeNet,
* a tiny functional inference engine (`build_toy_network` / `forward`) for
  validation-scale numerics, and
* :class:`ImageClassificationWorkload`, the pipelined fetch -> decode ->
  infer SPMD program whose CPU/GPGPU balance drives Figs. 9-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cuda.runtime import KernelSpec
from repro.errors import ConfigurationError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.sim import Store
from repro.units import mib
from repro.workloads.base import Workload, block_partition
from repro.workloads.kernels import nn


# ---------------------------------------------------------------------------
# Network descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Per-image cost summary of one CNN."""

    name: str
    flops_per_image: float
    weight_bytes: float
    activation_bytes_per_image: float

    #: im2col-style convolution lowering re-reads each activation once per
    #: kernel tap that touches it, inflating DRAM traffic well beyond the
    #: tensor sizes on a 256 KB-L2 GPU.
    IM2COL_INFLATION = 6.0

    def dram_bytes_per_image(self, batch_size: int) -> float:
        """DRAM traffic per image: inflated activations + weight share."""
        if batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")
        return (
            self.IM2COL_INFLATION * self.activation_bytes_per_image
            + self.weight_bytes / batch_size
        )

    def l2_bytes_per_image(self) -> float:
        """L2-level traffic per image: inflated activations + full weights.

        Batching amortizes the *DRAM* cost of the weights (fetched once per
        batch) but not the L2 cost — every image's GEMMs re-read the whole
        weight set through the L2 — so the per-image L2 traffic is constant
        in the batch size.  This asymmetry is what migrates the binding
        ceiling from DRAM to L2 as the batch grows.
        """
        return (
            self.IM2COL_INFLATION * self.activation_bytes_per_image
            + self.weight_bytes
        )


def _alexnet_layers() -> list[nn.LayerCost]:
    """AlexNet (single-column): ~61 M params, ~0.7 GMAC per image."""
    costs: list[nn.LayerCost] = []
    shape = (3, 227, 227)
    for spec in (
        ("conv1", 96, 11, 4, 0, 1), ("conv2", 256, 5, 1, 2, 2),
        ("conv3", 384, 3, 1, 1, 1), ("conv4", 384, 3, 1, 1, 2),
        ("conv5", 256, 3, 1, 1, 2),
    ):
        name, k, kernel, stride, pad, groups = spec
        cost, shape = nn.conv_cost(
            name, shape, k, kernel, kernel, stride, pad, groups=groups
        )
        costs.append(cost)
        if name in ("conv1", "conv2", "conv5"):
            cost, shape = nn.pool_cost(f"pool-{name}", shape, 3, 2)
            costs.append(cost)
    flat = int(np.prod(shape))
    for name, out in (("fc6", 4096), ("fc7", 4096), ("fc8", 1000)):
        cost, flat = nn.fc_cost(name, flat, out)
        costs.append(cost)
    return costs


#: GoogLeNet-v1 inception modules (Szegedy et al., Table 1): name, spatial
#: size, input channels, then the branch widths — #1x1, #3x3 reduce, #3x3,
#: #5x5 reduce, #5x5, pool-projection.
_INCEPTION_MODULES = (
    ("3a", 28, 192, 64, 96, 128, 16, 32, 32),
    ("3b", 28, 256, 128, 128, 192, 32, 96, 64),
    ("4a", 14, 480, 192, 96, 208, 16, 48, 64),
    ("4b", 14, 512, 160, 112, 224, 24, 64, 64),
    ("4c", 14, 512, 128, 128, 256, 24, 64, 64),
    ("4d", 14, 512, 112, 144, 288, 32, 64, 64),
    ("4e", 14, 528, 256, 160, 320, 32, 128, 128),
    ("5a", 7, 832, 256, 160, 320, 32, 128, 128),
    ("5b", 7, 832, 384, 192, 384, 48, 128, 128),
)


def _inception_costs(name: str, spatial: int, in_ch: int, n1: int, r3: int,
                     n3: int, r5: int, n5: int, pp: int) -> list[nn.LayerCost]:
    """The parallel branches of one inception module as conv costs."""
    shape = (in_ch, spatial, spatial)
    branches = {
        "1x1": (n1, 1, 0, shape),
        "3x3-reduce": (r3, 1, 0, shape),
        "3x3": (n3, 3, 1, (r3, spatial, spatial)),
        "5x5-reduce": (r5, 1, 0, shape),
        "5x5": (n5, 5, 2, (r5, spatial, spatial)),
        "pool-proj": (pp, 1, 0, shape),
    }
    costs = []
    for branch, (k, kernel, pad, source) in branches.items():
        cost, _ = nn.conv_cost(f"inception-{name}/{branch}", source,
                               k, kernel, kernel, 1, pad)
        costs.append(cost)
    return costs


def _googlenet_layers() -> list[nn.LayerCost]:
    """GoogLeNet-v1: the stem, all nine inception modules branch by branch,
    and the classifier — ~6.9 M params, ~1.5 GMAC per image."""
    costs: list[nn.LayerCost] = []
    shape = (3, 224, 224)
    cost, shape = nn.conv_cost("conv1", shape, 64, 7, 7, 2, 3)
    costs.append(cost)
    cost, shape = nn.pool_cost("pool1", shape, 3, 2)
    costs.append(cost)
    cost, shape = nn.conv_cost("conv2-reduce", shape, 64, 1, 1, 1, 0)
    costs.append(cost)
    cost, shape = nn.conv_cost("conv2", shape, 192, 3, 3, 1, 1)
    costs.append(cost)
    cost, shape = nn.pool_cost("pool2", shape, 3, 2)
    costs.append(cost)
    for module in _INCEPTION_MODULES:
        costs.extend(_inception_costs(*module))
    cost, _ = nn.fc_cost("fc", 1024, 1000)
    costs.append(cost)
    return costs


def network_spec(name: str) -> NetworkSpec:
    """Cost summary for ``"alexnet"`` or ``"googlenet"``."""
    if name == "alexnet":
        layers = _alexnet_layers()
    elif name == "googlenet":
        layers = _googlenet_layers()
    else:
        raise ConfigurationError(f"unknown network {name!r}")
    return NetworkSpec(
        name=name,
        flops_per_image=sum(l.flops for l in layers),
        weight_bytes=sum(l.weight_bytes for l in layers),
        activation_bytes_per_image=sum(l.activation_bytes for l in layers),
    )


# ---------------------------------------------------------------------------
# Functional validation engine (toy scale)
# ---------------------------------------------------------------------------


def build_toy_network(seed: int = 0, rng: np.random.Generator | None = None) -> dict:
    """A small conv->pool->fc->softmax net with real weights.

    Weights come from *rng* when given (thread one seeded generator through
    a whole experiment), else from a private ``default_rng(seed)`` stream.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    return {
        "conv_w": rng.normal(0, 0.1, size=(4, 1, 3, 3)),
        "conv_b": np.zeros(4),
        "fc_w": rng.normal(0, 0.1, size=(10, 4 * 13 * 13)),
        "fc_b": np.zeros(10),
    }


def forward(net: dict, image: np.ndarray) -> np.ndarray:
    """Forward pass of the toy net on a (1, 28, 28) image -> 10 class probs."""
    x = nn.relu(nn.conv2d(image, net["conv_w"], net["conv_b"], stride=1, pad=0))
    x = nn.maxpool2d(x, size=2, stride=2)
    return nn.softmax(nn.fc(x, net["fc_w"], net["fc_b"]))


# ---------------------------------------------------------------------------
# The distributed classification workload
# ---------------------------------------------------------------------------

#: JPEG decode + resize + mean-subtract cost per ImageNet image.
DECODE_INSTRUCTIONS_PER_IMAGE = 4.0e7
#: Average pre-resized (256x256, Caffe-style) ImageNet JPEG fetched from
#: the NFS server.
JPEG_BYTES = 50e3

_DECODE_PROFILE = WorkloadCPUProfile(
    name="jpeg-decode",
    branch_fraction=0.18,
    branch_entropy=0.45,  # Huffman decoding is branchy
    memory_fraction=0.30,
    working_set_per_rank_bytes=mib(2),
    flops_per_instruction=0.2,
)


class ImageClassificationWorkload(Workload):
    """AlexNet/GoogLeNet inference over a shared image set.

    Images are block-partitioned across ranks (no inter-rank communication —
    "each individual image is classified using a single node").  Per batch:
    fetch JPEGs from the NFS file server, decode on ``decode_workers`` CPU
    cores (pipelined through a bounded queue), forward-pass on the GPGPU in
    single precision.
    """

    uses_gpu = True
    precision = "single"
    default_ranks_per_node = 1

    def __init__(
        self,
        network: str = "alexnet",
        total_images: int = 2048,
        batch_size: int = 32,
        decode_workers: int | None = None,
    ) -> None:
        self.net = network_spec(network)
        self.name = network
        if total_images < 1 or batch_size < 1:
            raise ConfigurationError("images/batch must be positive")
        self.total_images = total_images
        self.batch_size = batch_size
        self.decode_workers = decode_workers

    @property
    def cpu_profile(self) -> WorkloadCPUProfile:
        return _DECODE_PROFILE

    def program(self, ctx):
        size, rank = ctx.size, ctx.rank
        my_images = block_partition(self.total_images, size, rank)
        n_batches = (my_images + self.batch_size - 1) // self.batch_size
        workers = self.decode_workers
        if workers is None:
            workers = max(1, ctx.node.spec.core_count - 1)

        cluster = ctx.job.cluster
        fs_id = cluster.fileserver.node_id
        decoded: Store = Store(ctx.env, capacity=2)  # double buffering
        kernel = KernelSpec(
            name=f"{self.name}-forward",
            flops=self.net.flops_per_image * self.batch_size,
            dram_bytes=self.net.dram_bytes_per_image(self.batch_size)
            * self.batch_size,
            precision=self.precision,
            l2_bytes=self.net.l2_bytes_per_image() * self.batch_size,
        )

        def producer(batches: int):
            per_worker_instr = (
                DECODE_INSTRUCTIONS_PER_IMAGE * self.batch_size / workers
            )
            for _ in range(batches):
                # Fetch the JPEG batch from the NFS server.
                yield from cluster.fabric.transfer(
                    fs_id, ctx.node.node_id, JPEG_BYTES * self.batch_size
                )
                # Decode across the worker cores in parallel.
                jobs = [
                    ctx.env.process(
                        ctx.cpu_compute(_DECODE_PROFILE, per_worker_instr)
                    )
                    for _ in range(workers)
                ]
                for job in jobs:
                    yield job
                yield decoded.put("batch")

        prod = ctx.env.process(producer(n_batches))
        images_done = 0
        for _ in range(n_batches):
            yield decoded.get()
            yield from ctx.gpu_kernel(kernel)
            images_done += self.batch_size
        yield prod
        return images_done

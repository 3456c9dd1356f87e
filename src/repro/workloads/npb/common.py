"""The data-driven NPB workload engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cpu import WorkloadCPUProfile
from repro.units import GIGA
from repro.workloads.base import Workload

_COMM_PATTERNS = ("halo", "wavefront", "alltoall", "sparse", "none")


def rank_skew(rank: int, amplitude: float) -> float:
    """Deterministic per-rank work multiplier in [1-amplitude, 1+amplitude].

    A Knuth-hash pseudo-random skew: reproducible across runs and systems so
    the ideal-load-balance replay isolates exactly this effect.
    """
    if amplitude < 0:
        raise ConfigurationError("imbalance amplitude must be >= 0")
    h = (rank * 2654435761 + 12345) % 1000
    return 1.0 + amplitude * (h / 499.5 - 1.0)


@dataclass(frozen=True)
class NPBSpec:
    """Everything defining one NPB benchmark's model."""

    name: str
    total_gops: float  # class C operation count, billions
    iterations: int  # modeled outer iterations (reduced; see DESIGN.md)
    profile: WorkloadCPUProfile
    comm: str  # one of _COMM_PATTERNS
    #: For halo/sparse/wavefront: bytes per neighbour per iteration at P
    #: ranks is halo_base_bytes / P**halo_exponent.
    halo_base_bytes: float = 0.0
    halo_exponent: float = 1.0
    #: For alltoall: total bytes transposed per iteration (split P x P ways).
    transpose_total_bytes: float = 0.0
    allreduces_per_iteration: int = 0
    imbalance: float = 0.05
    #: Wavefront sweeps per iteration (lu's SSOR).
    sweeps: int = 1

    def __post_init__(self) -> None:
        if self.comm not in _COMM_PATTERNS:
            raise ConfigurationError(f"{self.name}: unknown comm pattern {self.comm!r}")
        if self.total_gops <= 0 or self.iterations < 1:
            raise ConfigurationError(f"{self.name}: gops/iterations must be positive")

    def instructions_per_rank_per_iteration(self, size: int) -> float:
        """The compute charge, before the per-rank imbalance skew."""
        total_ops = self.total_gops * GIGA
        fpi = max(self.profile.flops_per_instruction, 1e-3)
        return total_ops / fpi / size / self.iterations

    def halo_bytes(self, size: int) -> float:
        """Per-neighbour halo size at *size* ranks."""
        if size <= 1:
            return 0.0
        return self.halo_base_bytes / size**self.halo_exponent

    def pair_bytes(self, size: int) -> float:
        """Per-pair all-to-all payload at *size* ranks."""
        if size <= 1:
            return 0.0
        return self.transpose_total_bytes / (size * size)


class NPBWorkload(Workload):
    """Runs one :class:`NPBSpec` as an SPMD program."""

    uses_gpu = False
    default_ranks_per_node = 4  # all TX1 cores

    def __init__(self, spec: NPBSpec) -> None:
        self.spec = spec
        self.name = spec.name

    @property
    def cpu_profile(self) -> WorkloadCPUProfile:
        return self.spec.profile

    def program(self, ctx):
        spec = self.spec
        size, rank = ctx.size, ctx.rank
        instr = spec.instructions_per_rank_per_iteration(size) * rank_skew(
            rank, spec.imbalance
        )
        for iteration in range(spec.iterations):
            ctx.job.mark(rank, "iteration", ctx.env.now)
            if spec.comm == "wavefront":
                yield from self._wavefront_iteration(ctx, instr)
            else:
                yield from ctx.cpu_compute(spec.profile, instr)
                yield from self._communicate(ctx)
            for r in range(spec.allreduces_per_iteration):
                yield from ctx.comm.allreduce(0.0, tag=30_000 + 10 * r)
        ctx.job.mark(rank, "iteration", ctx.env.now)
        final = yield from ctx.comm.reduce(1.0, root=0, tag=40_000)
        return final

    # -- patterns ----------------------------------------------------------------

    def _communicate(self, ctx):
        spec = self.spec
        size, rank = ctx.size, ctx.rank
        if size == 1 or spec.comm == "none":
            return
        if spec.comm == "halo":
            nbytes = spec.halo_bytes(size)
            for step, shift in enumerate((1, -1)):
                yield from ctx.comm.sendrecv(
                    None,
                    dest=(rank + shift) % size,
                    source=(rank - shift) % size,
                    sendtag=50 + step, recvtag=50 + step, nbytes=nbytes,
                )
        elif spec.comm == "sparse":
            nbytes = spec.halo_bytes(size)
            # Shift exchanges at distance 1 and size//2; the tag encodes the
            # shift so partners pair up regardless of local ordering.
            shifts = sorted({1, size // 2} - {0})
            for shift in shifts:
                dest = (rank + shift) % size
                source = (rank - shift) % size
                send = ctx.comm.isend(None, dest, tag=60 + shift, nbytes=nbytes)
                yield from ctx.comm.recv(source=source, tag=60 + shift)
                yield send
        elif spec.comm == "alltoall":
            nbytes = spec.pair_bytes(size)
            yield from ctx.comm.alltoall([None] * size, nbytes=nbytes)

    def _wavefront_iteration(self, ctx, instructions: float):
        """LU's SSOR pipeline: each sweep serializes along the rank chain."""
        spec = self.spec
        size, rank = ctx.size, ctx.rank
        per_sweep = instructions / spec.sweeps
        nbytes = spec.halo_bytes(size)
        for sweep in range(spec.sweeps):
            if rank > 0:
                yield from ctx.comm.recv(source=rank - 1, tag=70 + sweep)
            yield from ctx.cpu_compute(spec.profile, per_sweep)
            if rank < size - 1:
                yield from ctx.comm.send(None, dest=rank + 1, tag=70 + sweep, nbytes=nbytes)

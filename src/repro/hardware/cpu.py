"""Analytical CPU core model (Cortex-A57, ThunderX).

The paper's server-vs-cluster conclusion rests on three microarchitectural
quantities it recovers via PLS over PMU counters: branch misprediction rate,
speculatively executed instructions, and the L2 miss ratio.  The core model
therefore computes a first-order CPI stack::

    CPI = CPI_base
        + f_branch * m_branch * branch_penalty          (front-end flushes)
        + f_mem    * (AMAT - L1_hit)                    (memory stalls)

driven by a per-workload :class:`WorkloadCPUProfile`, and exposes the same
PMU-style counters the paper collects so that `repro.counters` and the PLS
analysis operate on model outputs exactly the way `perf` output was used.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cache import CacheHierarchy
from repro.units import mib


@dataclass(frozen=True)
class WorkloadCPUProfile:
    """Architecture-independent CPU behaviour of one workload.

    Parameters
    ----------
    name:
        Workload tag (e.g. ``"mg"``).
    branch_fraction:
        Fraction of retired instructions that are branches.
    branch_entropy:
        Difficulty of the branch stream in [0, 1]; 0 = perfectly predictable
        (e.g. long fixed-trip-count loops), 1 = data-dependent chaos.
    memory_fraction:
        Fraction of retired instructions that access memory.
    working_set_per_rank_bytes:
        Per-process data footprint that competes for cache.
    flops_per_instruction:
        Double-precision FLOPs retired per instruction (for FLOPS accounting).
    """

    name: str
    branch_fraction: float = 0.15
    branch_entropy: float = 0.3
    memory_fraction: float = 0.30
    working_set_per_rank_bytes: float = mib(8)
    flops_per_instruction: float = 0.25

    def __post_init__(self) -> None:
        for field_name in ("branch_fraction", "branch_entropy", "memory_fraction"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{self.name}: {field_name} must be in [0, 1]")
        if self.working_set_per_rank_bytes < 0:
            raise ConfigurationError(f"{self.name}: working set must be non-negative")
        if self.flops_per_instruction < 0:
            raise ConfigurationError(f"{self.name}: flops_per_instruction must be >= 0")


@dataclass(frozen=True)
class CPUCoreSpec:
    """Static description of one core microarchitecture."""

    name: str
    frequency_hz: float
    base_ipc: float
    pipeline_depth: int
    # Misprediction rate when branch_entropy == 1.0; scaled linearly with
    # entropy plus a small floor.  A57's predictor is strong; the paper finds
    # ThunderX's markedly weaker.
    mispredict_rate_at_full_entropy: float
    mispredict_floor: float = 0.001
    # Shape of the rate-vs-entropy curve: > 1 means the predictor holds up
    # on easy streams but collapses on hard ones (weak global history).
    mispredict_exponent: float = 1.0
    # Effective cost of one flush; defaults to the pipeline depth but can
    # exceed it when refetch misses the instruction cache.
    mispredict_penalty_cycles: float | None = None

    @property
    def flush_penalty(self) -> float:
        """Cycles lost per mispredicted branch."""
        if self.mispredict_penalty_cycles is not None:
            return self.mispredict_penalty_cycles
        return float(self.pipeline_depth)
    # Extra (wrong-path) instructions issued per mispredicted branch.
    speculative_issue_per_flush: float = 12.0
    dp_flops_per_cycle: float = 4.0

    def __post_init__(self) -> None:
        if not self.frequency_hz > 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.base_ipc <= 0:
            raise ConfigurationError(f"{self.name}: base_ipc must be positive")
        if self.pipeline_depth < 1:
            raise ConfigurationError(f"{self.name}: pipeline_depth must be >= 1")
        if not 0.0 <= self.mispredict_rate_at_full_entropy <= 1.0:
            raise ConfigurationError(f"{self.name}: mispredict rate must be in [0, 1]")

    def branch_mispredict_rate(self, entropy: float) -> float:
        """Misprediction probability for a branch stream of given entropy."""
        if not 0.0 <= entropy <= 1.0:
            raise ConfigurationError(f"entropy must be in [0, 1], got {entropy}")
        shaped = entropy ** self.mispredict_exponent if entropy > 0 else 0.0
        return self.mispredict_floor + shaped * self.mispredict_rate_at_full_entropy


@dataclass(frozen=True)
class CoreExecution:
    """Result of running a block of instructions on one core."""

    seconds: float
    cycles: float
    instructions_retired: float
    instructions_speculative: float
    branches: float
    branch_mispredictions: float
    mem_ops: float
    l1d_misses: float
    l2_misses: float
    l2_accesses: float
    flops: float
    frontend_stall_cycles: float = 0.0
    backend_stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions_retired / self.cycles if self.cycles else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        """L2 misses / L2 accesses — the paper's LD_MISS_RATIO proxy."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0


class CPUCoreModel:
    """Executes instruction blocks analytically and reports PMU-style counters."""

    def __init__(self, spec: CPUCoreSpec, caches: CacheHierarchy) -> None:
        self.spec = spec
        self.caches = caches

    def execute(
        self,
        profile: WorkloadCPUProfile,
        instructions: float,
        active_sharers: int = 1,
    ) -> CoreExecution:
        """Cost of retiring *instructions* of *profile* on this core.

        ``active_sharers`` is the number of cores concurrently pounding the
        shared L2 (the contention term in the ThunderX analysis).
        """
        if instructions < 0:
            raise ConfigurationError("instructions must be non-negative")
        spec = self.spec
        caches = self.caches

        mispredict_rate = spec.branch_mispredict_rate(profile.branch_entropy)
        branches = instructions * profile.branch_fraction
        mispredictions = branches * mispredict_rate
        branch_stall_cycles = mispredictions * spec.flush_penalty

        mem_ops = instructions * profile.memory_fraction
        ws = profile.working_set_per_rank_bytes
        l1_miss_ratio = caches.l1d.miss_ratio(ws)
        l1d_misses = mem_ops * l1_miss_ratio
        l2_accesses = l1d_misses
        l2_miss_ratio = caches.l2.miss_ratio(ws, active_sharers)
        l2_misses = l2_accesses * l2_miss_ratio
        amat = caches.average_memory_access_cycles(ws, active_sharers)
        memory_stall_cycles = mem_ops * (amat - caches.l1d.latency_cycles)

        base_cycles = instructions / spec.base_ipc
        cycles = base_cycles + branch_stall_cycles + memory_stall_cycles
        seconds = cycles / spec.frequency_hz

        speculative = instructions + mispredictions * spec.speculative_issue_per_flush
        flops = instructions * profile.flops_per_instruction

        return CoreExecution(
            seconds=seconds,
            cycles=cycles,
            instructions_retired=instructions,
            instructions_speculative=speculative,
            branches=branches,
            branch_mispredictions=mispredictions,
            mem_ops=mem_ops,
            l1d_misses=l1d_misses,
            l2_misses=l2_misses,
            l2_accesses=l2_accesses,
            flops=flops,
            frontend_stall_cycles=branch_stall_cycles,
            backend_stall_cycles=memory_stall_cycles,
        )

    def seconds_for(
        self, profile: WorkloadCPUProfile, instructions: float, active_sharers: int = 1
    ) -> float:
        """Shortcut for the common time-only query."""
        return self.execute(profile, instructions, active_sharers).seconds

    def peak_dp_flops(self) -> float:
        """Peak double-precision FLOP/s of one core."""
        return self.spec.dp_flops_per_cycle * self.spec.frequency_hz

"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a hardware/cluster/workload configuration is invalid.

    Also a :class:`ValueError` so pre-taxonomy callers (and tests) that
    catch ``ValueError`` keep working.
    """


class CudaError(ReproError):
    """Raised by the simulated CUDA runtime (bad handles, OOM, misuse)."""


class NetworkError(ReproError):
    """Raised by the network fabric (detached endpoints, link misuse)."""


class MessageLostError(NetworkError):
    """Raised when a transfer completed its wire time but the payload was
    dropped (lossy link or flap window under fault injection)."""


class NodeFailure(ReproError):
    """A node crashed.

    Raised by the fabric when a transfer touches a dead endpoint, and thrown
    into the rank generators resident on the node when a
    :class:`repro.faults.FaultInjector` fires a crash.
    """

    def __init__(self, node_id: int, message: str | None = None) -> None:
        super().__init__(message or f"node {node_id} has failed")
        self.node_id = node_id


class MPIError(ReproError):
    """Raised by the simulated MPI layer (bad ranks, mismatched buffers)."""


class MPITimeoutError(MPIError):
    """A send or receive exceeded its (simulated-time) timeout budget,
    including any configured retries."""


class RankFailedError(MPIError):
    """A communication peer is dead; collectives use this to fail fast with
    the dead rank identified."""

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"rank {rank} has failed")
        self.rank = rank


class CampaignError(ReproError):
    """Raised by the campaign layer (supervised execution)."""


class WorkerLostError(CampaignError):
    """A campaign worker process died or hung mid-run.

    Used to label attempts lost to a ``BrokenProcessPool`` or a per-task
    timeout; the supervisor recovers (rebuilds the pool, resubmits the
    lost specs) rather than letting this propagate.
    """


class SpecQuarantinedError(CampaignError):
    """One or more specs exhausted their retry budget and were quarantined.

    ``run_campaign`` never raises this itself — a campaign *completes*
    with ``completed=False`` rows naming the quarantined specs.  Callers
    that want strict semantics raise it via
    :meth:`~repro.campaign.runner.CampaignResult.raise_for_failures`.
    """


class TraceError(ReproError):
    """Raised when a trace is malformed or an analysis precondition fails."""


class TelemetryError(ReproError):
    """Raised by the telemetry layer (bad instruments, label mismatches,
    sink misuse).  Never raised on the disabled-sink fast path."""


class AnalysisError(ReproError, ValueError):
    """Raised by statistical analysis routines (PLS, fitting).

    Also a :class:`ValueError` for the same compatibility reason as
    :class:`ConfigurationError`.
    """

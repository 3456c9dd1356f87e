"""Host-side observability for the simulator's campaigns.

Everything else in this tree measures the *simulated* machine on the
simulated clock; this package reads the *host* clock — how a campaign's
workers spend their hours.  It is the only package allowed to read the
wall clock (``LintConfig.wallclock_exempt`` / ``taint_exempt`` scope
RL001/RL100 to it), and the clock-domain lint rule (RL500) keeps the
dependency arrow one-way: simulation-domain packages never import from
here.

Deterministic activity counts (events, processes, MPI spans, fabric
transfers) come from the telemetry sink and are gated in
``BENCH_seed.json``; per-layer host wall time comes from
``benchmarks/perf --trace``.
"""

from repro.hostprof.campaign import CampaignHostRecorder, write_host_trace
from repro.hostprof.clock import HostClock, Stopwatch, read_clock

__all__ = [
    "CampaignHostRecorder",
    "HostClock",
    "Stopwatch",
    "read_clock",
    "write_host_trace",
]

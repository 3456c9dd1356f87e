"""Pinned event order: the simulator's same-instant tie-breaking, made visible.

``BENCH_seed.json`` gates how many events a run processes, but a change that
breaks ties between same-instant events differently keeps every count and
can still move results.  These digests were recorded before the kernel's
host-cost work (DESIGN.md §8) and must never move with it:

* the ``run_to_payload`` JSON of a traced run (rank results plus the
  ``Trace`` lists);
* the ``Trace`` record sequence in append order, interleaved across record
  kinds, read from the sink: ``Job`` records each state and marker as a
  ``rank`` span, and the MPI layer each send and receive as an
  ``mpi.send->rN`` / ``mpi.recv`` span, each closed as its trace row is
  appended;
* ``sim_events_processed_total``.

The crash runs also pin the ``fabric`` span sequence, errors included:
it records how each aborted transfer let go of its NIC slots.

Each run is pinned twice: with a sink attached, and bare (no sink, no
cache), where the fabric and the MPI layer take their unobserved branch.
Both must give the same payload digest, and so must a bare run that
crossed the prefetch pool and came back pickled.

A deliberate change to the simulated model re-records them; a host-time
change never does.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench import runner
from repro.bench.runner import run_workload
from repro.campaign.serialize import run_to_payload
from repro.campaign.spec import RunSpec
from repro.faults.experiments import format_report, run_degraded
from repro.faults.model import FaultSchedule, MessageLoss, NicDegradation, NodeCrash
from repro.telemetry import Telemetry


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_sequence(telemetry: Telemetry) -> str:
    return _sha([
        [s.track, s.name, s.start, s.end, s.kind, s.args]
        for s in telemetry.spans
        if s.category == "rank" or s.name == "mpi.recv"
        or s.name.startswith("mpi.send->")
    ])


def _fabric_sequence(telemetry: Telemetry) -> str:
    return _sha([
        [s.track, s.name, s.start, s.end, s.kind, s.args, s.error]
        for s in telemetry.spans if s.category == "fabric"
    ])


def _events(telemetry: Telemetry) -> int:
    return int(telemetry.registry.counter("sim_events_processed_total").value())


RUNS = {
    "jacobi@2-1G": (
        "jacobi", {"nodes": 2, "network": "1G"},
        "0f980222a8fe93eb03316e5b47f4ed27c56b40171ab7bfee49dfe8c1a35a3375",
        "66a1e8d5a38e59cf057f8903c93aa0d71798899b8ff8ff16103a7dc3edcfe4a9",
        3752,
    ),
    "cg@4-10G": (
        "cg", {"nodes": 4, "network": "10G"},
        "8660fa4d7ea38929aba36a263cf7c0600410cfc6f3cc51f2f9801e1a7a10926c",
        "4ee2226d343250a15a18808eada860351d8c6a6e9dedf5872eecf26515f3c2f0",
        51811,
    ),
    "hpl@4": (
        "hpl", {"nodes": 4},
        "7ba68ded766fc406b845a70d7f413cb71248b94009575ec65a92685eab56b400",
        "8319959b1270781e7894db14c9804df95b02246fbd5aa822cd5991ef368dccb4",
        18773,
    ),
    # 8 ranks in CPU mode: the broadcasts run _bcast_large's isend ring,
    # the per-message path that dominates hpl-CPU host time at 16 nodes.
    "hpl-cpu@2": (
        "hpl", {"nodes": 2, "mode": "cpu"},
        "6443763ee5b0d8f41b1fe11e4223fc8eefaf2ee59e75a2f9ed5a8398bb235352",
        "5f9bb0dc1221fd8d8d3d3a6ea6f9f39bc76921ffc9bb797e5f4e6f6555576e2a",
        50670,
    ),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_traced_run_event_order_is_pinned(case):
    name, kwargs, payload_digest, trace_digest, events = RUNS[case]
    telemetry = Telemetry()
    run = run_workload(name, traced=True, telemetry=telemetry, **kwargs)
    assert _events(telemetry) == events
    assert _trace_sequence(telemetry) == trace_digest
    assert _sha(run_to_payload(run)) == payload_digest


def _prefetched(name: str, monkeypatch, **kwargs):
    """The run as it comes back pickled from a two-worker prefetch pool."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    spec = RunSpec.normalize(name, traced=True, **kwargs)
    # A second cold spec, so the prefetch starts a pool.
    partner = RunSpec.normalize(name, traced=False, **kwargs)
    runner.clear_cache()
    try:
        runner.prefetch([spec, partner])
        assert spec.key in runner._cache  # installed from the pool
        return runner.run_spec(spec)
    finally:
        runner.clear_cache()


@pytest.mark.parametrize("case, route", [
    *(pytest.param(case, "in-process", id=case) for case in sorted(RUNS)),
    *(pytest.param(case, "prefetched", id=f"{case}-prefetched") for case in sorted(RUNS)),
])
def test_bare_run_matches_the_pinned_payload(case, route, monkeypatch):
    name, kwargs, payload_digest, _, _ = RUNS[case]
    if route == "prefetched":
        run = _prefetched(name, monkeypatch, **kwargs)
    else:
        run = run_workload(name, traced=True, use_cache=False, **kwargs)
    assert _sha(run_to_payload(run)) == payload_digest


_DEGRADED_REPORT_DIGEST = (
    "f3373239cf6c4b7ca71f12c4c190e498d4ee9bfbf04ce54569235fbbcef8ee70"
)


def _degraded_jacobi(telemetry=None):
    schedule = FaultSchedule((MessageLoss(probability=0.05),), seed=0)
    return run_degraded("jacobi", schedule, nodes=2, telemetry=telemetry,
                        use_cache=False)


def test_degraded_run_with_retries_event_order_is_pinned():
    telemetry = Telemetry()
    report = _degraded_jacobi(telemetry)
    # The retry path must actually run, or this pins nothing it claims to.
    assert report.total_retries == 19
    assert _events(telemetry) == 4225
    assert _trace_sequence(telemetry) == (
        "b66f5326e57660bdb8d3bacf4a409a68af19147017f3d9284edc21435dd4bdf8"
    )
    assert _sha(format_report(report)) == _DEGRADED_REPORT_DIGEST


def test_bare_degraded_run_matches_the_pinned_report():
    report = _degraded_jacobi()
    assert report.total_retries == 19
    assert _sha(format_report(report)) == _DEGRADED_REPORT_DIGEST


# cg@4 with node 0's NIC at 5%: at t=1.74769 rank 4 (node 1) has a flow in
# flight to node 0, and rank 8 (node 2) has one queued behind it for node
# 0's rx slot.  Both nodes crash at that instant, so both flows are aborted
# by the NodeFailure thrown into their ranks.  The crash order decides the
# abort path: node 2 first withdraws rank 8's queued claim; node 1 first
# hands node 0's rx slot to rank 8's flow, whose grant is then aborted
# before it pops.  Recorded before transfers became flows.
_CRASH_AT = 1.74769
CRASHES = {
    "queued-withdrawn": (
        (2, 1), 906,
        "3f0360efc56467cfa1d38569d4532160bc2e2bde873b031707f4068144527c41",
        "39a61791ff16c6eea4d36662eb05f0f0a9011d3ef67a598a8f2a02cab171235e",
    ),
    "grant-aborted": (
        (1, 2), 908,
        "2e6f6d2fd33a19c864285ffa12c88f7636fe9944d1ae3d9056525b1dcf3a180d",
        "86cd45362fc38f0565d96a4726226f4e40174a15290c1883b9b1fbcb3ee479b5",
    ),
}
_CRASH_REPORT_DIGEST = (
    "a9aacca5836d9eb13b59b59c174ba72e63b74ddf524232be56c1e714b975a7fc"
)


def _crashed_cg(order, telemetry=None):
    schedule = FaultSchedule((
        NicDegradation(node_id=0, start=0.0, end=1e6, multiplier=0.05),
        *(NodeCrash(node_id=node, at=_CRASH_AT) for node in order),
    ), seed=0)
    return run_degraded("cg", schedule, nodes=4, telemetry=telemetry,
                        use_cache=False)


@pytest.mark.parametrize("case", sorted(CRASHES))
def test_crash_aborting_queued_and_in_flight_flows_is_pinned(case):
    order, events, trace_digest, fabric_digest = CRASHES[case]
    telemetry = Telemetry()
    report = _crashed_cg(order, telemetry)
    # Both abort paths must actually run: rank 8's flow dies ungranted,
    # rank 4's in flight (it carries the rate it started with).
    aborted = {
        s.name: s.args for s in telemetry.spans
        if s.category == "fabric" and s.error
    }
    assert sorted(aborted) == ["xfer n1->n0", "xfer n2->n0"]
    assert "rate" in aborted["xfer n1->n0"]
    assert "rate" not in aborted["xfer n2->n0"]
    assert _events(telemetry) == events
    assert _trace_sequence(telemetry) == trace_digest
    assert _fabric_sequence(telemetry) == fabric_digest
    assert _sha(format_report(report)) == _CRASH_REPORT_DIGEST


@pytest.mark.parametrize("case", sorted(CRASHES))
def test_bare_crashed_run_matches_the_pinned_report(case):
    report = _crashed_cg(CRASHES[case][0])
    assert _sha(format_report(report)) == _CRASH_REPORT_DIGEST

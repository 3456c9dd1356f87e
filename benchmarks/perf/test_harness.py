"""Fast checks of the benchmark harness (no full workload runs).

Run from the repository root: ``PYTHONPATH=src python -m pytest
benchmarks/perf/test_harness.py -q``.
"""

from __future__ import annotations

import re
from pathlib import PurePath

import pytest

from benchmarks.perf import child, cli, compare, layers, speed
from benchmarks.perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    return cli.load_benchmark()


def test_names_are_well_formed_and_match_benchmark_json():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert list(cli.WORKLOAD_NAMES) == list(WORKLOADS)
    for metric in benchmark["end_to_end"]:
        assert cli.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in benchmark["per_layer"]:
        assert metric["name"] in layers.metric_names()
        assert layers.unit_of(metric["name"]) == metric["unit"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in benchmark[kind]]
    assert len(names) == len(set(names))
    for name in names + layers.metric_names() + list(cli.END_TO_END_UNITS):
        assert NAME.fullmatch(name), name


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _bare_child(digests: dict[str, str]) -> dict:
    return {
        "mode": "bare", "setup_s": 0.5, "setup_ref_s": 0.4, "wall_s": 2.5,
        "wall_ref_s": 2.0, "speed": 0.8, "peak_rss_mb": 80.0, "spans": [],
        "ops": [{"name": name, "seconds": 1.0, "error": None,
                 "digest": digest, "ok": True}
                for name, digest in digests.items()],
    }


def _run(digests: dict[str, str], expected: dict[str, str] | None):
    bare = _bare_child(digests)
    run = cli.WorkloadRun("sweep", 0, [bare], [], None)
    run.checks = cli.judge(bare["ops"], expected)
    return run


def test_digest_mismatch_raises_error_rate():
    good = _run({"cg": "aa", "ep": "bb"}, {"cg": "aa", "ep": "bb"})
    assert good.end_to_end()["error_rate"] == 0
    bad = _run({"cg": "aa", "ep": "XX"}, {"cg": "aa", "ep": "bb"})
    assert bad.end_to_end()["error_rate"] == 0.5
    assert [c.status for c in bad.checks] == ["verified", "digest mismatch"]
    line = cli.result_line([bad], ["wall_s", "setup_s"], trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert line["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}


def test_unknown_seed_is_unverified_but_invariants_still_count():
    run = _run({"cg": "aa"}, None)
    assert [c.status for c in run.checks] == ["unverified"]
    broken = _bare_child({"cg": "aa"})
    broken["ops"][0]["ok"] = False
    assert cli.judge(broken["ops"], None)[0].failed


def test_unseeded_workloads_use_seed_zero_digests():
    reference = {"0": {"sweep": {"cg": "s0"}, "faults": {"cg": "f0"}},
                 "1": {"faults": {"cg": "f1"}}}
    assert cli.expected_digests(reference, "sweep", 7) == {"cg": "s0"}
    assert cli.expected_digests(reference, "faults", 1) == {"cg": "f1"}
    assert cli.expected_digests(reference, "faults", 7) is None


def test_rollup_maps_fake_profile_stats_to_layers():
    root = PurePath("/pkg/repro")
    stats = {
        ("/pkg/repro/sim/core.py", 483, "step"): (10, 10, 3.0, 5.0, {}),
        ("/pkg/repro/sim/core.py", 217, "_resume"): (4, 6, 1.0, 2.0, {}),
        ("/pkg/repro/mpi/communicator.py", 442, "Communicator.bcast"):
            (2, 2, 0.5, 1.0, {}),
        ("/pkg/repro/mpi/communicator.py", 527, "allreduce"): (1, 3, 0.5, 1.0, {}),
        ("/pkg/repro/units.py", 1, "kib"): (7, 7, 1.0, 1.0, {}),
        ("/pkg/repro/bench/runner.py", 1, "run_spec"): (1, 1, 1.0, 9.0, {}),
        ("~", 0, "<built-in method builtins.len>"): (100, 100, 2.0, 2.0, {}),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): (5, 5, 1.0, 1.0, {}),
    }
    metrics = layers.rollup(stats, root)
    assert metrics["sim.self_s"] == 4.0
    assert metrics["sim.calls"] == 14
    assert metrics["mpi.calls"] == 3
    assert metrics["other.self_s"] == 2.0
    assert metrics["external.self_s"] == 3.0
    assert metrics["external.calls"] == 105
    assert metrics["sim.share"] == pytest.approx(0.4)
    assert sum(metrics[f"{b}.share"] for b in layers.BUCKETS) == pytest.approx(1)
    assert metrics["sim.events"] == 10
    assert metrics["sim.resumes"] == 6
    assert metrics["mpi.collectives"] == 5
    assert metrics["network.transfers"] == 0
    assert set(metrics) | set(layers.FACTS) | {"trace_overhead"} == set(
        layers.metric_names()
    )


def test_compare_verdicts_on_synthetic_data():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.2 for p in parent]
    noisy = [10.0, 14.0, 7.0, 12.0, 8.5, 10.0, 13.0, 7.5, 11.0, 9.0]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, list(reversed(parent)), "lower", 0.1) == "unchanged"
    # A higher-is-better metric reads the same data the other way round.
    assert compare.verdict(parent, slower, "higher", 0.1) == "improved"
    # error_rate's bound is 0: a higher median regresses, zeros stay unchanged.
    zeros = [0.0] * 10
    assert compare.verdict(zeros, zeros, "lower", 0.0) == "unchanged"
    assert compare.verdict(zeros, [0.1] * 10, "lower", 0.0) == "regressed"


def test_missing_sources_are_refused(tmp_path):
    with pytest.raises(cli.BenchmarkError):
        cli.check_sources(tmp_path)


def test_one_spec_smoke_run(tmp_path):
    workload = WORKLOADS["sweep"]
    ops = [op for op in workload.build(0, tmp_path) if op.name == "ep"]
    spans = child.Spans()
    records, results = child.run_ops(workload, ops, spans)
    checks = cli.judge(records, cli.expected_digests(cli.load_reference(),
                                                     "sweep", 0))
    assert [(c.name, c.status) for c in checks] == [("ep", "verified")]
    assert [s["name"] for s in spans.rows] == ["batch", "op ep", "spec ep/tx1x16/10G"]
    assert spans.rows[2]["parent"] == spans.rows[1]["id"]
    assert workload.facts(results[0])["network.wire_bytes"] >= 0


def test_reference_seconds_cancel_a_uniform_slowdown():
    windows = [(0.0, 1.0), (2.0, 4.0)]
    fast = [(0.1, speed.REFERENCE_S), (2.5, speed.REFERENCE_S), (1.5, 9.0)]
    seconds, rate = speed.at_reference(windows, fast)
    assert rate == pytest.approx(1.0)
    assert seconds == pytest.approx(3.0 - 2 * speed.REFERENCE_S)
    # A host that makes the probe twice as slow slows each window's own
    # work by 2 ** SENSITIVITY: the reference time stays the same.
    factor = 2 ** speed.SENSITIVITY
    probe = 2 * speed.REFERENCE_S
    slow_windows = [(0.0, factor * (1 - speed.REFERENCE_S) + probe),
                    (4.0, 4.0 + factor * (2 - speed.REFERENCE_S) + probe)]
    slow = [(0.1, probe), (4.5, probe)]
    slow_seconds, slow_rate = speed.at_reference(slow_windows, slow)
    assert slow_rate == pytest.approx(0.5)
    assert slow_seconds == pytest.approx(seconds)
    with pytest.raises(ValueError):
        speed.at_reference(windows, [(1.5, 1.0)])

"""Tests for repro.hostprof: the host-side (wall-clock) observability layer.

Four concerns:

* unit behaviour of the clock/profiler/recorder primitives under an
  injected fake clock (no real time reads, fully deterministic);
* the determinism contract — attaching a profiler leaves every simulated
  artifact byte-identical, and the BENCH_HOST.json deterministic count
  fields reproduce exactly across runs;
* the ``repro profile`` CLI (hotspot table, --bench/--check exit codes);
* the lint firewall — wall-clock reads outside ``repro.hostprof`` still
  fail RL001/RL100, and simulation-domain imports of hostprof fail RL500.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.hostprof import (
    MODE_DISPATCH,
    MODE_OTHER,
    MODE_PROCESS,
    CampaignHostRecorder,
    HostProfiler,
    Stopwatch,
    format_hotspot_table,
    read_clock,
    write_host_trace,
)
from repro.hostprof.bench import (
    HOST_SCHEMA,
    PROFILE_WORKLOADS,
    collect_host_baseline,
    compare_host_baseline,
    format_host_check,
    format_host_report_markdown,
    load_host_baseline,
    profile_workload,
    write_host_baseline,
)
from repro.lint import LintConfig, lint_source
from repro.telemetry import Registry, Telemetry, to_chrome_trace, to_prometheus_text


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Clock primitives
# ---------------------------------------------------------------------------


class TestClock:
    def test_read_clock_is_monotonic_nondecreasing(self):
        assert read_clock() <= read_clock()

    def test_stopwatch_elapsed_tracks_injected_clock(self):
        clock = FakeClock()
        watch = Stopwatch(clock=clock)
        clock.advance(2.5)
        assert watch.elapsed() == 2.5

    def test_stopwatch_restart_resets_origin(self):
        clock = FakeClock()
        watch = Stopwatch(clock=clock)
        clock.advance(1.0)
        watch.restart()
        clock.advance(0.25)
        assert watch.elapsed() == 0.25


# ---------------------------------------------------------------------------
# HostProfiler units (fake clock)
# ---------------------------------------------------------------------------


class TestHostProfiler:
    def test_counters_increment_per_hook(self):
        p = HostProfiler(clock=FakeClock())
        p.event_dispatched(3)
        p.event_dispatched(7)
        p.process_resumed()
        p.process_spawned()
        p.flow_round(2)
        p.mpi_hop()
        p.span_emitted()
        p.sample_emitted()
        assert p.counters == {
            "events": 2,
            "process_switches": 1,
            "processes": 1,
            "fabric_flow_rounds": 1,
            "mpi_hops": 1,
            "telemetry_spans": 1,
            "telemetry_samples": 1,
        }

    def test_high_water_marks_track_peaks_not_lasts(self):
        p = HostProfiler(clock=FakeClock())
        p.event_dispatched(5)
        p.event_dispatched(2)
        p.flow_round(4)
        p.flow_round(1)
        assert p.high_water == {"heap_depth": 5, "active_flows": 4}

    def test_self_time_charges_interval_to_previous_mode(self):
        clock = FakeClock()
        p = HostProfiler(clock=clock)
        clock.advance(1.0)
        p.event_dispatched(1)          # 1.0 s of host.other before dispatch
        clock.advance(0.5)
        p.process_resumed()            # 0.5 s of sim.dispatch
        clock.advance(0.25)
        p.event_dispatched(1)          # 0.25 s of process.run
        clock.advance(0.1)
        p.finish()                     # 0.1 s more dispatch, flushed
        assert p.wall[MODE_OTHER] == 1.0
        assert p.wall[MODE_DISPATCH] == pytest.approx(0.6)
        assert p.wall[MODE_PROCESS] == 0.25

    def test_sections_accumulate_inclusive_time_and_calls(self):
        clock = FakeClock()
        p = HostProfiler(clock=clock)
        for _ in range(2):
            with p.section("build"):
                clock.advance(2.0)
        assert p.sections["build"] == {"seconds": 4.0, "calls": 2}

    def test_section_closes_on_exception(self):
        clock = FakeClock()
        p = HostProfiler(clock=clock)
        with pytest.raises(RuntimeError):
            with p.section("run"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert p.sections["run"] == {"seconds": 1.0, "calls": 1}

    def test_deterministic_counts_include_high_water_fields(self):
        p = HostProfiler(clock=FakeClock())
        p.event_dispatched(9)
        counts = p.deterministic_counts()
        assert counts["events"] == 1
        assert counts["heap_depth_high_water"] == 9
        assert counts["active_flows_high_water"] == 0

    def test_report_is_plain_data(self):
        p = HostProfiler(clock=FakeClock())
        report = p.report()
        assert set(report) == {"counts", "wall_seconds", "sections"}
        json.dumps(report)  # must serialize

    def test_hotspot_rows_sorted_hottest_first(self):
        clock = FakeClock()
        p = HostProfiler(clock=clock)
        clock.advance(1.0)
        p.process_resumed()
        clock.advance(5.0)
        p.finish()
        rows = p.hotspot_rows()
        assert rows[0][0] == MODE_PROCESS and rows[0][2] == 5.0
        assert [r[0] for r in rows[:2]] == [MODE_PROCESS, MODE_OTHER]

    def test_hotspot_table_layout(self):
        clock = FakeClock()
        p = HostProfiler(clock=clock)
        clock.advance(1.0)
        p.event_dispatched(1)
        clock.advance(3.0)
        p.finish()
        table = format_hotspot_table(p)
        lines = table.splitlines()
        assert lines[0].split() == ["subsystem", "calls", "wall_s", "share"]
        assert lines[-1].startswith("total")
        assert "100.0%" in lines[-1]
        assert any("sim.dispatch" in line for line in lines)

    def test_hotspot_table_zero_total_shows_zero_share(self):
        table = format_hotspot_table(HostProfiler(clock=FakeClock()))
        assert table.splitlines()[-1].rstrip().endswith("0.0%")


# ---------------------------------------------------------------------------
# Profiled runs: counts and the byte-identity contract
# ---------------------------------------------------------------------------


def _traced_run(with_profiler: bool):
    """One fixed jacobi run; returns (result, prometheus text, trace json)."""
    from repro.campaign.spec import RunSpec, build_cluster, build_workload

    spec = RunSpec.normalize("jacobi", nodes=2, network="10G")
    workload = build_workload(spec.name, spec.constructor_kwargs())
    cluster = build_cluster(spec)
    if with_profiler:
        cluster.env.set_host_profiler(HostProfiler())
    telemetry = Telemetry(sample_interval=0.0)
    result = workload.run_on(
        cluster, ranks_per_node=spec.ranks_per_node,
        tracer=None, telemetry=telemetry,
    )
    prom = to_prometheus_text(telemetry.registry)
    trace = json.dumps(to_chrome_trace(telemetry), sort_keys=True)
    return result, prom, trace


class TestProfiledRuns:
    def test_profile_workload_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            profile_workload("nope")

    def test_profile_workload_observes_every_subsystem(self):
        run = profile_workload("jacobi", nodes=2)
        counts = run.profiler.deterministic_counts()
        assert counts["events"] > 0
        assert counts["process_switches"] > 0
        assert counts["fabric_flow_rounds"] > 0
        assert counts["mpi_hops"] > 0
        assert counts["telemetry_spans"] > 0
        assert counts["heap_depth_high_water"] > 0
        assert run.sim_seconds > 0

    def test_deterministic_counts_reproduce_exactly(self):
        first = profile_workload("jacobi", nodes=2)
        second = profile_workload("jacobi", nodes=2)
        assert (
            first.profiler.deterministic_counts()
            == second.profiler.deterministic_counts()
        )

    def test_sim_artifacts_byte_identical_with_profiling_on_vs_off(self):
        result_off, prom_off, trace_off = _traced_run(with_profiler=False)
        result_on, prom_on, trace_on = _traced_run(with_profiler=True)
        assert result_on.elapsed_seconds == result_off.elapsed_seconds
        assert prom_on == prom_off
        assert trace_on == trace_off

    def test_detach_restores_unobserved_kernel(self):
        from repro.sim import Environment

        env = Environment()
        profiler = HostProfiler(clock=FakeClock())
        env.set_host_profiler(profiler)
        env.set_host_profiler(None)

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert profiler.counters["events"] == 0


# ---------------------------------------------------------------------------
# BENCH_HOST.json: write / load / compare
# ---------------------------------------------------------------------------


def _small_baseline(tmp_path):
    document, runs = collect_host_baseline(workloads=("jacobi",), nodes=2)
    path = write_host_baseline(tmp_path / "BENCH_HOST.json", document)
    return document, runs, path


class TestHostBaseline:
    def test_document_shape_and_schema(self, tmp_path):
        document, runs, path = _small_baseline(tmp_path)
        assert document["schema"] == HOST_SCHEMA
        assert document["config"] == {"nodes": 2, "network": "10G"}
        # Deterministic counts only: no wall-clock field is recorded.
        assert set(document) == {"schema", "config", "counts"}
        assert set(document["counts"]) == {"jacobi"}
        assert [run.name for run in runs] == ["jacobi"]

    def test_write_load_round_trip(self, tmp_path):
        document, _, path = _small_baseline(tmp_path)
        assert load_host_baseline(path) == document
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_load_missing_file_names_the_writer_command(self, tmp_path):
        with pytest.raises(ConfigurationError, match="profile --bench"):
            load_host_baseline(tmp_path / "absent.json")

    @pytest.mark.parametrize("schema", [2, 99])
    def test_load_rejects_wrong_schema(self, tmp_path, schema):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": schema}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema") as err:
            load_host_baseline(path)
        assert "repro profile --bench" in str(err.value)

    def test_compare_clean_is_empty(self, tmp_path):
        document, _, _ = _small_baseline(tmp_path)
        current, _ = collect_host_baseline(workloads=("jacobi",), nodes=2)
        assert compare_host_baseline(document, current) == []

    def test_compare_ignores_advisory_wall_fields(self, tmp_path):
        # Only ``counts`` is gated: wall fields outside it (as schema 2
        # documents carried) never produce a drift.
        document, _, _ = _small_baseline(tmp_path)
        current = json.loads(json.dumps(document))
        current["advisory"] = {"jacobi": {"wall_seconds": 9999.0}}
        current["sweep"] = {"runs_per_minute": 0.001}
        assert compare_host_baseline(document, current) == []

    def test_compare_flags_count_drift_exactly(self, tmp_path):
        document, _, _ = _small_baseline(tmp_path)
        current = json.loads(json.dumps(document))
        current["counts"]["jacobi"]["events"] += 1
        drifts = compare_host_baseline(document, current)
        assert len(drifts) == 1
        assert drifts[0].startswith("jacobi.events:")

    def test_compare_flags_missing_and_new_workloads(self):
        base = {"counts": {"a": {"events": 1}}}
        curr = {"counts": {"b": {"events": 1}}}
        drifts = compare_host_baseline(base, curr)
        assert drifts == [
            "a: workload missing in current measurement",
            "b: workload new in current measurement",
        ]

    def test_format_host_check_text(self):
        assert "all deterministic count fields match" in format_host_check([])
        report = format_host_check(["jacobi.events: 1 -> 2"])
        assert "1 deterministic count field(s) drifted" in report
        assert "jacobi.events" in report

    def test_markdown_report_has_one_section_per_run(self, tmp_path):
        _, runs, _ = _small_baseline(tmp_path)
        report = format_host_report_markdown(runs)
        assert report.startswith("# Host profile")
        assert report.count("## jacobi (nodes=2, 10G)") == 1
        assert "subsystem" in report

    def test_profile_workload_set_is_fixed(self):
        assert PROFILE_WORKLOADS == ("cloverleaf", "jacobi", "cg")


# ---------------------------------------------------------------------------
# The repro profile CLI
# ---------------------------------------------------------------------------


class TestProfileCli:
    def test_profile_prints_hotspot_table(self, capsys):
        assert main(["profile", "jacobi", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "sim-s/wall-s" in out
        assert "subsystem" in out
        assert "sim.dispatch" in out

    def test_profile_unknown_workload_exits_two(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "repro profile:" in capsys.readouterr().err

    def test_check_against_fresh_baseline_passes(self, tmp_path, capsys):
        _, _, path = _small_baseline(tmp_path)
        assert main(["profile", "--check", "--baseline", str(path)]) == 0
        assert "all deterministic count fields match" in capsys.readouterr().out

    def test_check_exits_nonzero_on_count_drift(self, tmp_path, capsys):
        document, _, path = _small_baseline(tmp_path)
        document["counts"]["jacobi"]["mpi_hops"] += 5
        write_host_baseline(path, document)
        assert main(["profile", "--check", "--baseline", str(path)]) == 1
        assert "jacobi.mpi_hops" in capsys.readouterr().out

    def test_check_without_baseline_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["profile", "--check", "--baseline", str(missing)]) == 2
        assert "repro profile:" in capsys.readouterr().err

    def test_hotspots_out_writes_markdown(self, tmp_path, capsys):
        report = tmp_path / "hotspots.md"
        assert main([
            "profile", "jacobi", "--nodes", "2",
            "--hotspots-out", str(report),
        ]) == 0
        text = report.read_text(encoding="utf-8")
        assert text.startswith("# Host profile")
        assert "## jacobi" in text


# ---------------------------------------------------------------------------
# CampaignHostRecorder (fake clock)
# ---------------------------------------------------------------------------


class TestCampaignHostRecorder:
    def test_wall_queue_wait_and_busy_split(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        clock.advance(1.0)
        recorder.spec_submitted("d1", "jacobi/tx1x2/10G")
        clock.advance(2.0)
        recorder.spec_done("d1", 111, busy_seconds=0.5)
        entry = recorder.journal_entry("d1")
        assert entry == {
            "wall_seconds": 2.0,
            "queue_wait_seconds": 1.5,
            "busy_seconds": 0.5,
            "worker": 0,
        }

    def test_busy_defaults_to_wall_and_clamps_to_wall(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        recorder.spec_submitted("d1", "a")
        clock.advance(1.0)
        recorder.spec_done("d1", 1)
        assert recorder.journal_entry("d1")["queue_wait_seconds"] == 0.0
        recorder.spec_submitted("d2", "b")
        clock.advance(1.0)
        recorder.spec_done("d2", 1, busy_seconds=99.0)
        assert recorder.journal_entry("d2")["busy_seconds"] == 1.0

    def test_worker_lanes_are_dense_first_seen(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        for digest, pid in (("a", 4242), ("b", 17), ("c", 4242)):
            recorder.spec_submitted(digest, digest)
            clock.advance(1.0)
            recorder.spec_done(digest, pid)
        assert recorder.worker_lanes == {4242: 0, 17: 1}
        assert recorder.journal_entry("c")["worker"] == 0

    def test_journal_entry_none_until_done(self):
        recorder = CampaignHostRecorder(clock=FakeClock())
        assert recorder.journal_entry("ghost") is None
        recorder.spec_submitted("d1", "a")
        assert recorder.journal_entry("d1") is None

    def test_register_metrics_surfaces_campaign_host_gauges(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        recorder.spec_submitted("d1", "jacobi/tx1x2/10G")
        clock.advance(4.0)
        recorder.spec_done("d1", 7, busy_seconds=3.0)
        registry = Registry()
        recorder.register_metrics(registry)
        assert registry.get("campaign_host_wall_seconds").value(
            spec="jacobi/tx1x2/10G"
        ) == 4.0
        assert registry.get("campaign_host_queue_wait_seconds").value(
            spec="jacobi/tx1x2/10G"
        ) == 1.0
        assert registry.get("campaign_host_worker_busy_seconds").value(
            worker="worker0"
        ) == 3.0
        assert registry.get("campaign_host_workers").value() == 1.0

    def test_trace_document_uses_host_timebase(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        recorder.spec_submitted("d1", "jacobi/tx1x2/10G")
        clock.advance(2.0)
        recorder.spec_done("d1", 7, busy_seconds=1.0)
        document = recorder.to_trace_document()
        assert document["otherData"] == {
            "generator": "repro.hostprof",
            "timebase": "host-monotonic",
        }
        names = {e.get("name") for e in document["traceEvents"]}
        assert "jacobi/tx1x2/10G" in names

    def test_write_host_trace_is_compact_json_line(self):
        clock = FakeClock()
        recorder = CampaignHostRecorder(clock=clock)
        recorder.spec_submitted("d1", "a")
        clock.advance(1.0)
        recorder.spec_done("d1", 7)
        stream = io.StringIO()
        write_host_trace(recorder, stream)
        text = stream.getvalue()
        assert text.endswith("\n")
        assert json.loads(text)["otherData"]["timebase"] == "host-monotonic"


# ---------------------------------------------------------------------------
# Sweep integration: --progress heartbeat, --host-trace, journal host field
# ---------------------------------------------------------------------------


class TestSweepIntegration:
    def test_progress_heartbeat_on_stderr_only(self, capsys):
        code = main([
            "sweep", "--workloads", "jacobi", "--nodes", "2",
            "--no-cache", "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep progress: 1/1 specs decided" in captured.err
        assert "sweep progress" not in captured.out

    def test_stdout_table_identical_with_and_without_progress(self, capsys):
        main(["sweep", "--workloads", "jacobi", "--nodes", "2", "--no-cache"])
        plain = capsys.readouterr().out
        main([
            "sweep", "--workloads", "jacobi", "--nodes", "2",
            "--no-cache", "--progress",
        ])
        assert capsys.readouterr().out == plain

    def test_host_trace_written_and_journal_carries_host_field(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "host-trace.json"
        code = main([
            "sweep", "--workloads", "jacobi", "--nodes", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--host-trace", str(trace_path),
        ])
        assert code == 0
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        assert document["otherData"]["timebase"] == "host-monotonic"
        journal = next((tmp_path / "cache" / "campaigns").glob("*.jsonl"))
        entries = [
            json.loads(line)
            for line in journal.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert entries and all("host" in e for e in entries)
        host = entries[0]["host"]
        assert host["wall_seconds"] >= host["busy_seconds"] >= 0.0
        assert host["worker"] == 0

    def test_campaign_host_metrics_in_registry(self, tmp_path):
        from repro.campaign import build_campaign, run_campaign

        specs = build_campaign(("jacobi",), nodes=(2,), networks=("10G",))
        recorder = CampaignHostRecorder()
        result = run_campaign(specs, store=None, host=recorder)
        assert result.registry.get("campaign_host_workers").value() == 1.0
        label = specs[0].label
        assert result.registry.get("campaign_host_wall_seconds").value(
            spec=label
        ) > 0.0


# ---------------------------------------------------------------------------
# The lint firewall
# ---------------------------------------------------------------------------

_EXEMPT = LintConfig(
    wallclock_exempt=("repro/hostprof/",),
    taint_exempt=("repro/hostprof/",),
)

_CLOCK_SOURCE = (
    "import time\n\n\n"
    "def stamp():\n"
    "    return time.perf_counter()\n\n\n"
    "def step(env):\n"
    "    return stamp()\n"
)


class TestLintFirewall:
    def test_wall_clock_outside_hostprof_fails_rl001_and_rl100(self):
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/sim/leak.py", config=_EXEMPT
        )
        assert {f.rule for f in findings} >= {"RL001", "RL100"}

    def test_wall_clock_inside_hostprof_is_exempt(self):
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/hostprof/clock2.py", config=_EXEMPT
        )
        assert [f.rule for f in findings] == []

    def test_default_config_still_bans_hostprof_paths(self):
        # The exemption is opt-in via pyproject; a bare LintConfig keeps
        # the tree-wide ban.
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/hostprof/clock2.py",
            config=LintConfig(),
        )
        assert any(f.rule == "RL001" for f in findings)

    def test_sim_domain_import_of_hostprof_fails_rl500(self):
        findings = lint_source(
            "from repro.hostprof import HostProfiler\n",
            path="src/repro/network/fabric2.py", config=_EXEMPT,
        )
        assert [f.rule for f in findings] == ["RL500"]

    def test_lazy_in_function_import_also_fails_rl500(self):
        findings = lint_source(
            "def run():\n"
            "    import repro.hostprof.clock\n"
            "    return repro.hostprof.clock\n",
            path="src/repro/mpi/comm2.py", config=_EXEMPT,
        )
        assert [f.rule for f in findings] == ["RL500"]

    def test_campaign_layer_may_import_hostprof(self):
        findings = lint_source(
            "from repro.hostprof.clock import Stopwatch\n\n\n"
            "def time_task():\n"
            "    return Stopwatch()\n",
            path="src/repro/campaign/worker2.py", config=_EXEMPT,
        )
        assert findings == []

    def test_pyproject_scopes_the_exemption_to_hostprof_only(self):
        from pathlib import Path

        from repro.lint import load_config

        config = load_config(
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        )
        assert config.wallclock_exempt == ("repro/hostprof/",)
        assert config.taint_exempt == ("repro/hostprof/",)

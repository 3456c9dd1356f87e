"""Tests for repro.hostprof: the host-side (wall-clock) observability layer.

Three concerns:

* unit behaviour of the clock and campaign-recorder primitives under an
  injected fake clock (no real time reads, fully deterministic);
* sweep integration — the ``--progress`` heartbeat and ``--host-trace``
  leave the campaign's stdout untouched;
* the lint firewall — wall-clock reads outside ``repro.hostprof`` still
  fail RL001/RL100, and simulation-domain imports of hostprof fail RL500.
"""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.hostprof import (
    CampaignHostRecorder,
    Stopwatch,
    read_clock,
    write_host_trace,
)
from repro.lint import LintConfig, lint_source
from repro.telemetry import Registry


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
            _CLOCK_SOURCE, path="src/repro/sim/leak.py", config=LintConfig()
        )
        assert {f.rule for f in findings} >= {"RL001", "RL100"}

    def test_wall_clock_inside_hostprof_is_exempt(self):
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/hostprof/clock2.py", config=LintConfig()
        )
        assert [f.rule for f in findings] == []

    def test_default_config_still_bans_hostprof_paths(self):
        # The default exemption names the package directory, so a file
        # that merely mentions hostprof elsewhere is still banned ...
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/sim/hostprof_shim.py",
            config=LintConfig(),
        )
        assert {f.rule for f in findings} >= {"RL001", "RL100"}
        # ... and the exemption lives in the config, not in the rules:
        # without it the hostprof package itself is banned too.
        findings = lint_source(
            _CLOCK_SOURCE, path="src/repro/hostprof/clock2.py",
            config=LintConfig(wallclock_exempt=(), taint_exempt=()),
        )
        assert any(f.rule == "RL001" for f in findings)

    def test_sim_domain_import_of_hostprof_fails_rl500(self):
        findings = lint_source(
            "from repro.hostprof import Stopwatch\n",
            path="src/repro/network/fabric2.py", config=LintConfig(),
        )
        assert [f.rule for f in findings] == ["RL500"]

    def test_lazy_in_function_import_also_fails_rl500(self):
        findings = lint_source(
            "def run():\n"
            "    import repro.hostprof.clock\n"
            "    return repro.hostprof.clock\n",
            path="src/repro/mpi/comm2.py", config=LintConfig(),
        )
        assert [f.rule for f in findings] == ["RL500"]

    def test_campaign_layer_may_import_hostprof(self):
        findings = lint_source(
            "from repro.hostprof.clock import Stopwatch\n\n\n"
            "def time_task():\n"
            "    return Stopwatch()\n",
            path="src/repro/campaign/worker2.py", config=LintConfig(),
        )
        assert findings == []

    def test_pyproject_scopes_the_exemption_to_hostprof_only(self):
        # The shipped configuration is LintConfig's defaults.
        config = LintConfig()
        assert config.wallclock_exempt == ("repro/hostprof/",)
        assert config.taint_exempt == ("repro/hostprof/",)

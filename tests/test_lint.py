"""Tests for the repro.lint static-analysis subsystem.

Per rule: at least one positive (triggering) and one negative (clean)
snippet, a suppression check, plus reporter round-trips, CLI exit codes,
and the self-check that keeps ``src/repro`` lint-clean forever.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    RULES,
    Finding,
    LintConfig,
    Severity,
    lint_paths,
    lint_project,
    lint_source,
    parse_json,
    render_json,
    render_text,
    suppressions,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per rule: (path the snippet is linted under, triggering source).
POSITIVE = {
    "RL001": (
        "src/repro/sim/clock.py",
        "import time\n\n\ndef stamp():\n    return time.time()\n",
    ),
    "RL002": (
        "src/repro/workloads/toy.py",
        "def proc(env):\n"
        "    env.timeout(1.0)\n"
        "    yield env.timeout(2.0)\n",
    ),
    "RL003": (
        "src/repro/workloads/toy.py",
        "def program(ctx):\n"
        "    yield from ctx.comm.send(None, dest=1)\n",
    ),
    "RL004": (
        "src/repro/network/toy.py",
        "def rate(nbytes, seconds):\n"
        "    return nbytes / seconds / 1e9\n",
    ),
    "RL005": (
        "src/repro/network/toy.py",
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n",
    ),
    "RL006": (
        "src/repro/sim/toy.py",
        "def converged(residual):\n"
        "    return residual == 0.0\n",
    ),
    "RL007": (
        "src/repro/network/toy.py",
        "def transfer(nbytes):\n"
        "    print('moving', nbytes)\n"
        "    return nbytes\n",
    ),
    # Whole-program families (a one-file snippet is its own project).
    "RL100": (
        "src/repro/sim/toy.py",
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n\n\n"
        "def step(env):\n"
        "    return stamp()\n",
    ),
    "RL300": (
        "src/repro/campaign/toy.py",
        "_CACHE = {}\n\n\n"
        "def remember(key, value):\n"
        "    _CACHE[key] = value\n"
        "    return _CACHE[key]\n",
    ),
    "RL400": (
        "src/repro/telemetry/toy.py",
        "def run(telemetry):\n"
        "    telemetry.span('compute')\n",
    ),
    "RL500": (
        "src/repro/sim/toy.py",
        "from repro.hostprof.clock import read_clock\n\n\n"
        "def step(env):\n"
        "    return read_clock()\n",
    ),
}

NEGATIVE = {
    "RL001": (
        "src/repro/sim/clock.py",
        "import numpy as np\n\n\ndef draw(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.normal()\n",
    ),
    "RL002": (
        "src/repro/workloads/toy.py",
        "def proc(env):\n"
        "    done = env.timeout(1.0)\n"
        "    yield done\n"
        "    yield env.timeout(2.0)\n",
    ),
    "RL003": (
        "src/repro/workloads/toy.py",
        "def program(ctx):\n"
        "    yield from ctx.comm.send(None, dest=(ctx.rank + 1) % ctx.size)\n"
        "    data = yield from ctx.comm.recv(source=(ctx.rank - 1) % ctx.size)\n"
        "    total = yield from ctx.comm.allreduce(data)\n"
        "    return total\n",
    ),
    "RL004": (
        "src/repro/network/toy.py",
        "from repro.units import to_gbyte_s\n\n\ndef rate(nbytes, seconds):\n"
        "    return to_gbyte_s(nbytes / seconds)\n",
    ),
    "RL005": (
        "src/repro/network/toy.py",
        "from repro.errors import ConfigurationError\n\n\ndef check(x):\n"
        "    if x < 0:\n"
        "        raise ConfigurationError('negative')\n",
    ),
    "RL006": (
        "src/repro/sim/toy.py",
        "import math\n\n\ndef converged(residual):\n"
        "    return math.isclose(residual, 0.0, abs_tol=1e-12)\n",
    ),
    "RL007": (
        "src/repro/cli.py",
        "def _cmd_run(args):\n"
        "    print('runtime:', 1.0)\n"
        "    return 0\n",
    ),
    "RL100": (
        "src/repro/sim/toy.py",
        "def base(x):\n"
        "    return x + 1\n\n\n"
        "def step(x):\n"
        "    return base(x)\n",
    ),
    "RL300": (
        "src/repro/campaign/toy.py",
        "_LIMITS = {'max': 4}\n\n\n"
        "def limit(key):\n"
        "    return dict(_LIMITS)[key]\n",
    ),
    "RL400": (
        "src/repro/telemetry/toy.py",
        "def run(telemetry):\n"
        "    with telemetry.span('compute'):\n"
        "        pass\n",
    ),
    "RL500": (
        "src/repro/campaign/toy.py",
        # Outside the sim domain the hostprof import is the point: the
        # campaign layer owns the host-side recorder.
        "from repro.hostprof.clock import Stopwatch\n\n\n"
        "def time_task():\n"
        "    return Stopwatch()\n",
    ),
}


def findings_for(rule_id: str, table: dict) -> list[Finding]:
    path, source = table[rule_id]
    return [f for f in lint_source(source, path=path) if f.rule == rule_id]


# ---------------------------------------------------------------------------
# Per-rule positives and negatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(POSITIVE))
def test_rule_flags_violation(rule_id):
    found = findings_for(rule_id, POSITIVE)
    assert found, f"{rule_id} missed its positive snippet"
    assert all(f.line >= 1 and f.rule == rule_id for f in found)


@pytest.mark.parametrize("rule_id", sorted(NEGATIVE))
def test_rule_passes_clean_code(rule_id):
    assert findings_for(rule_id, NEGATIVE) == []


def test_registry_covers_every_rule():
    assert sorted(RULES) == sorted(POSITIVE) == sorted(NEGATIVE)


# -- rule-specific edges ------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["TimeoutError", "ConnectionError", "ConnectionResetError", "BrokenPipeError",
     "OSError", "IOError", "InterruptedError"],
)
def test_error_hierarchy_flags_fault_path_builtins(name):
    source = (
        "def deliver(ok):\n"
        "    if not ok:\n"
        f"        raise {name}('link down')\n"
    )
    found = lint_source(source, path="src/repro/network/toy.py")
    assert [f.rule for f in found] == ["RL005"]


def test_error_hierarchy_accepts_fault_taxonomy():
    source = (
        "from repro.errors import MPITimeoutError\n\n\n"
        "def deliver(ok):\n"
        "    if not ok:\n"
        "        raise MPITimeoutError('no ack within the retry budget')\n"
    )
    assert lint_source(source, path="src/repro/mpi/toy.py") == []


def test_determinism_catches_global_numpy_and_stdlib_rng():
    src = (
        "import random\nimport numpy as np\n\n\ndef f():\n"
        "    a = random.random()\n"
        "    b = np.random.rand(3)\n"
        "    rng = np.random.default_rng()\n"
        "    return a, b, rng\n"
    )
    rules = [f.message for f in lint_source(src, path="src/repro/x.py")]
    assert len(rules) == 3
    assert any("random.random" in m for m in rules)
    assert any("np.random.rand" in m for m in rules)
    assert any("default_rng() without a seed" in m for m in rules)


def test_determinism_flags_bare_set_iteration():
    src = "def order(jobs):\n    for j in set(jobs):\n        yield j\n"
    found = lint_source(src, path="src/repro/x.py")
    assert [f.rule for f in found] == ["RL001"]
    assert "hash-dependent" in found[0].message


def test_sim_kernel_flags_constant_yield_and_bare_yield():
    src = (
        "def proc(env):\n"
        "    yield env.timeout(1.0)\n"
        "    yield 5\n"
        "    yield\n"
    )
    found = lint_source(src, path="src/repro/x.py")
    assert [f.rule for f in found] == ["RL002", "RL002"]
    assert found[0].line == 3 and found[1].line == 4


def test_mpi_flags_collective_in_rank_branch():
    src = (
        "def program(ctx):\n"
        "    if ctx.rank == 0:\n"
        "        yield from ctx.comm.bcast(None)\n"
    )
    found = lint_source(src, path="src/repro/x.py")
    assert [f.rule for f in found] == ["RL003"]
    assert "bcast" in found[0].message


def test_mpi_allows_root_asymmetry_with_rank_branch():
    # Root sends, leaves receive: pairing is rank-conditional, so the
    # unpaired-p2p heuristic must stay quiet.
    src = (
        "def program(ctx):\n"
        "    if ctx.rank == 0:\n"
        "        yield from ctx.comm.send(None, dest=1)\n"
        "    else:\n"
        "        yield from ctx.comm.recv(source=0)\n"
    )
    assert lint_source(src, path="src/repro/x.py") == []


def test_unit_safety_exempts_units_module():
    src = "def gbyte_s(n):\n    return n * 1e9\n"
    assert lint_source(src, path="src/repro/units.py") == []
    assert lint_source(src, path="src/repro/network/fabric.py") != []


def test_float_equality_scoped_to_numeric_paths():
    src = "def f(x):\n    return x == 1.0\n"
    assert [f.rule for f in lint_source(src, path="src/repro/core/m.py")] == ["RL006"]
    # Out of the configured numeric paths: no finding.
    assert lint_source(src, path="src/repro/workloads/m.py") == []


def test_diagnostics_flags_raw_stream_writes():
    src = (
        "import sys\n\n\ndef warn(msg):\n"
        "    sys.stderr.write(msg + '\\n')\n"
    )
    found = lint_source(src, path="src/repro/faults/injector.py")
    assert [f.rule for f in found] == ["RL007"]
    assert "sys.stderr.write" in found[0].message


def test_diagnostics_exempts_cli_and_lint_reporters():
    src = "def report(msg):\n    print(msg)\n"
    assert lint_source(src, path="src/repro/cli.py") == []
    assert lint_source(src, path="src/repro/lint/reporters.py") == []
    assert [f.rule for f in lint_source(src, path="src/repro/sim/core.py")] == ["RL007"]


# ---------------------------------------------------------------------------
# Suppressions (property-style: every rule honours its noqa)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(POSITIVE))
def test_inline_noqa_suppresses_each_rule(rule_id):
    path, source = POSITIVE[rule_id]
    found = [f for f in lint_source(source, path=path) if f.rule == rule_id]
    assert found
    lines = source.splitlines()
    for finding in found:
        lines[finding.line - 1] += f"  # repro: noqa[{rule_id}] test justification"
    cleaned = lint_source("\n".join(lines) + "\n", path=path)
    assert [f for f in cleaned if f.rule == rule_id] == []


@pytest.mark.parametrize("rule_id", sorted(POSITIVE))
def test_blanket_noqa_suppresses_each_rule(rule_id):
    path, source = POSITIVE[rule_id]
    lines = source.splitlines()
    for finding in lint_source(source, path=path):
        lines[finding.line - 1] += "  # repro: noqa test justification"
    assert lint_source("\n".join(lines) + "\n", path=path) == []


def test_noqa_for_other_rule_does_not_suppress():
    path, source = POSITIVE["RL005"]
    lines = source.splitlines()
    lines[2] += "  # repro: noqa[RL001] wrong rule on purpose"
    found = lint_source("\n".join(lines) + "\n", path=path)
    assert [f.rule for f in found] == ["RL005"]


def test_suppression_table_parses_lists():
    table, bare = suppressions(
        "x = 1  # repro: noqa[RL001, RL004] both intended\n"
        "y = 2  # repro: noqa whole line intended\n"
        "z = 3  # repro: noqa[RL005]\n"
        "w = 4  # repro: noqa[RL006]  # type: ignore\n"
    )
    assert table == {1: {"RL001", "RL004"}, 2: {"*"}}
    # Line 3 has no text and line 4 only another tool's comment: both bare.
    assert bare == [3, 4]


@pytest.mark.parametrize("marker", ["# repro: noqa[RL005]", "# repro: noqa  "])
def test_noqa_without_justification_does_not_suppress(tmp_path, capsys, marker):
    from repro.lint.cli import main

    _write(tmp_path, "f.py",
           "def check(x):\n"
           "    if x < 0:\n"
           f"        raise ValueError('bad')  {marker}\n")
    assert main([str(tmp_path / "f.py")]) == 1
    captured = capsys.readouterr()
    assert "f.py:3:" in captured.out and "RL005" in captured.out
    assert "unjustified suppression" in captured.err
    assert "f.py:3 bare noqa ignored" in captured.err


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def test_finding_json_round_trip():
    finding = Finding(
        path="src/repro/sim/core.py", line=12, col=4, rule="RL006",
        message="exact float compare", severity=Severity.ERROR,
    )
    assert Finding.from_dict(finding.to_dict()) == finding


def test_render_json_round_trips_findings():
    findings = lint_source(POSITIVE["RL004"][1], path=POSITIVE["RL004"][0])
    assert findings
    assert parse_json(render_json(findings)) == findings


def test_from_dict_rejects_malformed_records():
    with pytest.raises(ConfigurationError, match="malformed finding"):
        Finding.from_dict({"path": "x", "line": 1})


def test_render_text_has_file_line_and_summary():
    findings = lint_source(POSITIVE["RL005"][1], path=POSITIVE["RL005"][0])
    text = render_text(findings)
    assert "src/repro/network/toy.py:3:" in text
    assert text.endswith("1 finding")
    assert render_text([]).endswith("0 findings")


# ---------------------------------------------------------------------------
# CLI exit codes and the dirty-fixture acceptance path
# ---------------------------------------------------------------------------


def _write_fixture_tree(root: Path) -> None:
    """A tree violating every rule."""
    sim = root / "sim"
    sim.mkdir()
    (sim / "bad_sim.py").write_text(
        "import time\n\n\n"
        "def proc(env):\n"
        "    start = time.time()\n"                      # RL001
        "    env.timeout(1.0)\n"                         # RL002
        "    yield env.timeout(2.0)\n"
        "    return start == 0.0\n",                     # RL006
        encoding="utf-8",
    )
    workloads = root / "workloads"
    workloads.mkdir()
    (workloads / "bad_mpi.py").write_text(
        "def program(ctx):\n"
        "    nbytes = ctx.n * 1e9\n"                     # RL004
        "    if nbytes < 0:\n"
        "        raise ValueError('bad')\n"              # RL005
        "    print('sending', nbytes)\n"                 # RL007
        "    yield from ctx.comm.send(None, dest=1, nbytes=nbytes)\n",  # RL003
        encoding="utf-8",
    )
    flow = root / "flow"
    flow.mkdir()
    (flow / "bad_flow.py").write_text(
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n\n\n"                   # RL001 (source)
        "def step(env):\n"
        "    return stamp()\n\n\n"                       # RL100
        "def trace(telemetry):\n"
        "    telemetry.span('phase')\n",                 # RL400
        encoding="utf-8",
    )
    (flow / "bad_state.py").write_text(
        "_CACHE = {}\n\n\n"                              # RL300 (mutated below)
        "def remember(key, value):\n"
        "    _CACHE[key] = value\n"
        "    return _CACHE[key]\n",                      # RL300 (escaping ref)
        encoding="utf-8",
    )
    # Under a src/ segment so the module resolves into the repro.sim
    # clock domain (RL500 keys on module names, not paths).
    simsrc = root / "src" / "repro" / "sim"
    simsrc.mkdir(parents=True)
    (simsrc / "bad_clock.py").write_text(
        "from repro.hostprof.clock import read_clock\n\n\n"  # RL500
        "def stamp(env):\n"
        "    return read_clock()\n",
        encoding="utf-8",
    )


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    from repro.lint.cli import main

    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    code = main([str(tmp_path / "clean.py")])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("0 findings")


def test_cli_exit_one_with_text_findings_on_dirty_tree(tmp_path, capsys):
    from repro.lint.cli import main

    _write_fixture_tree(tmp_path)
    code = main([str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    for rule_id in RULES:
        assert rule_id in out, f"{rule_id} missing from the fixture report"
    assert "bad_sim.py:5:" in out  # file:line anchors present


def test_cli_json_format_on_dirty_tree(tmp_path, capsys):
    from repro.lint.cli import main

    _write_fixture_tree(tmp_path)
    code = main([str(tmp_path), "--format", "json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == len(data["findings"]) >= 6
    assert {f["rule"] for f in data["findings"]} == set(RULES)
    assert all(f["line"] >= 1 and f["path"] for f in data["findings"])


def test_cli_select_and_ignore(tmp_path, capsys):
    from repro.lint.cli import main

    _write_fixture_tree(tmp_path)
    assert main([str(tmp_path), "--select", "RL005"]) == 1
    out = capsys.readouterr().out
    assert "RL005" in out and "RL001" not in out
    assert main([str(tmp_path), "--ignore", ",".join(sorted(RULES))]) == 0
    capsys.readouterr()
    assert main([str(tmp_path), "--select", "RL004,RL007"]) == 1
    rules = {line.split()[1] for line in capsys.readouterr().out.splitlines()[:-1]}
    assert rules == {"RL004", "RL007"}


def test_cli_rule_flags_leave_following_paths_alone(tmp_path, capsys):
    # A path after --select/--ignore is a lint target, not a rule id.
    from repro.lint.cli import main

    _write_fixture_tree(tmp_path)
    assert main(["--select", "RL004", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad_mpi.py:2:" in out and out.strip().endswith("1 finding")
    assert main(["--ignore", "RL004", str(tmp_path / "workloads")]) == 1
    assert "RL004" not in capsys.readouterr().out


def test_cli_exit_two_on_bad_path(tmp_path, capsys):
    from repro.lint.cli import main

    assert main([str(tmp_path / "missing")]) == 2
    assert "repro lint:" in capsys.readouterr().err


def test_cli_exit_two_on_unknown_rule(tmp_path, capsys):
    from repro.lint.cli import main

    (tmp_path / "f.py").write_text("x = 1\n", encoding="utf-8")
    assert main([str(tmp_path), "--select", "RL999"]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    from repro.lint.cli import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_repro_cli_wires_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as repro_main

    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    code = repro_main(["lint", str(tmp_path / "clean.py")])
    assert code == 0


# ---------------------------------------------------------------------------
# Whole-program regression tests: true positives the per-file pack misses
# ---------------------------------------------------------------------------


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def test_rl100_flags_cross_file_wall_clock_with_witness(tmp_path):
    # The wall-clock read lives in clock.py; step.py only calls stamp().
    # Linting step.py alone (the old per-file view) finds nothing there;
    # the whole-program pass names the call site AND the origin.
    _write(tmp_path, "src/repro/util/clock.py",
           "import time\n\n\ndef stamp():\n    return time.time()\n")
    step = _write(tmp_path, "src/repro/sim/step.py",
                  "from repro.util.clock import stamp\n\n\n"
                  "def advance():\n    return stamp()\n")
    solo = [f for f in lint_paths([step]) if f.rule == "RL100"]
    assert solo == [], "per-file view must not resolve the import"
    found = [f for f in lint_paths([tmp_path / "src"]) if f.rule == "RL100"]
    assert len(found) == 1
    assert found[0].path.endswith("step.py") and found[0].line == 5
    assert "wall-clock read time.time" in found[0].message
    assert "clock.py:5" in found[0].message  # the witness


def test_rl100_flags_iteration_over_helper_returned_set(tmp_path):
    _write(tmp_path, "src/repro/util/pick.py",
           "def alive(nodes):\n    return set(nodes)\n")
    _write(tmp_path, "src/repro/sim/sched.py",
           "from repro.util.pick import alive\n\n\n"
           "def order(nodes):\n"
           "    for n in alive(nodes):\n"
           "        yield n\n")
    found = [f for f in lint_paths([tmp_path / "src"]) if f.rule == "RL100"]
    assert len(found) == 1
    assert found[0].path.endswith("sched.py")
    assert "hash-dependent" in found[0].message


def test_rl300_scopes_to_worker_reachable_modules(tmp_path):
    # state.py is imported by the worker entry point; colors.py is not.
    _write(tmp_path, "src/repro/campaign/runner.py",
           "from repro.campaign import state\n\n\n"
           "def run_campaign():\n    return state.remember('k', 1)\n")
    _write(tmp_path, "src/repro/campaign/state.py",
           "_MEMO = {}\n\n\n"
           "def remember(k, v):\n"
           "    _MEMO[k] = v\n"
           "    return _MEMO[k]\n")
    _write(tmp_path, "src/repro/viz/colors.py",
           "_PALETTE = []\n\n\ndef add(c):\n    _PALETTE.append(c)\n")
    found = [f for f in lint_paths([tmp_path / "src"]) if f.rule == "RL300"]
    assert found, "worker-reachable mutable state must be flagged"
    assert all(f.path.endswith("state.py") for f in found)


def test_rl400_accepts_bound_span_used_in_with():
    src = (
        "def run(telemetry):\n"
        "    span = telemetry.span('compute')\n"
        "    with span:\n"
        "        pass\n"
    )
    assert lint_source(src, path="src/repro/telemetry/t.py") == []


# ---------------------------------------------------------------------------
# Incremental cache: cold vs warm byte-identity
# ---------------------------------------------------------------------------


def _dirty_tree_result(tmp_path):
    _write_fixture_tree(tmp_path)
    return lint_project([tmp_path], config=LintConfig())


def test_lint_cache_warm_run_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold = _dirty_tree_result(tmp_path)
    assert cold.cache_enabled and not cold.project_from_cache
    assert cold.files_from_cache == 0 and cold.files_total > 0
    warm = lint_project([tmp_path], config=LintConfig())
    assert warm.project_from_cache
    assert warm.files_from_cache == warm.files_total == cold.files_total
    assert warm.findings == cold.findings
    assert render_json(warm.findings) == render_json(cold.findings)
    assert "warm" in warm.cache_status and "cold" in cold.cache_status


def test_lint_cache_invalidates_on_edit(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold = _dirty_tree_result(tmp_path)
    # Touch one file: its entry (and the project entry) must recompute,
    # every other file stays cached.
    target = tmp_path / "flow" / "bad_state.py"
    target.write_text(target.read_text() + "\n# edited\n", encoding="utf-8")
    warm = lint_project([tmp_path], config=LintConfig())
    assert not warm.project_from_cache
    assert warm.files_from_cache == cold.files_total - 1
    assert warm.findings == cold.findings  # a comment changes nothing


def test_lint_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    result = _dirty_tree_result(tmp_path)
    assert not result.cache_enabled
    assert result.cache_status == "lint cache: disabled"


def test_lint_cache_flag_bypass(tmp_path, monkeypatch, capsys):
    from repro.lint.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _write_fixture_tree(tmp_path)
    assert main([str(tmp_path)]) == 1
    capsys.readouterr()
    assert main([str(tmp_path), "--no-cache"]) == 1
    assert "lint cache: disabled" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Suppression statistics
# ---------------------------------------------------------------------------


def test_suppression_stats_count_used_and_stale(tmp_path):
    _write(tmp_path, "src/repro/x.py",
           "def check(x):\n"
           "    if x < 0:\n"
           "        raise ValueError('bad')  # repro: noqa[RL005] test-only raise\n"
           "    return x  # repro: noqa[RL001] nothing to suppress here\n")
    result = lint_project([tmp_path / "src"], config=LintConfig())
    assert result.findings == []
    assert result.suppressions.used == {"RL005": 1}
    assert len(result.suppressions.stale) == 1
    path, line, rule = result.suppressions.stale[0]
    assert path.endswith("x.py") and line == 4 and rule == "RL001"


def test_cli_reports_suppression_stats_on_stderr(tmp_path, capsys):
    from repro.lint.cli import main

    _write(tmp_path, "f.py",
           "def check(x):\n"
           "    if x < 0:\n"
           "        raise ValueError('bad')  # repro: noqa[RL005] test-only raise\n"
           "    return x  # repro: noqa[RL001] nothing to suppress here\n")
    code = main([str(tmp_path / "f.py")])
    captured = capsys.readouterr()
    assert code == 0  # stale suppressions are a notice, not a failure
    assert "suppressions used (RL005: 1)" in captured.err
    assert "stale suppression" in captured.err and "RL001" in captured.err
    assert "stale" not in captured.out  # report stream stays clean


def test_justified_noqa_accepts_module_state_until_it_goes_stale(tmp_path, capsys):
    # A module-level design a reviewer accepted: the RL300 finding sits on
    # the assignment line, so the inline noqa goes there.
    from repro.lint.cli import main

    state = _write(tmp_path, "src/state.py",
                   "_CACHE = {}  # repro: noqa[RL300] reviewed per-process memo\n\n\n"
                   "def remember(key, value):\n"
                   "    _CACHE[key] = value\n"
                   "    return dict(_CACHE)\n")
    result = lint_project([tmp_path / "src"], config=LintConfig())
    assert result.findings == []
    assert result.suppressions.used == {"RL300": 1}
    assert result.suppressions.stale == []
    assert main([str(tmp_path / "src")]) == 0
    assert "suppressions used (RL300: 1)" in capsys.readouterr().err
    # Remove the mutation: the acceptance now excuses nothing.
    state.write_text(
        "_CACHE = {}  # repro: noqa[RL300] reviewed per-process memo\n\n\n"
        "def remember(key, value):\n"
        "    return value\n",
        encoding="utf-8",
    )
    result = lint_project([tmp_path / "src"], config=LintConfig())
    assert result.findings == [] and result.suppressions.used == {}
    assert [(Path(p).name, line, rule)
            for p, line, rule in result.suppressions.stale] == [
        ("state.py", 1, "RL300")]
    assert main([str(tmp_path / "src")]) == 0
    assert "stale suppression: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Self-check: the shipped tree stays lint-clean
# ---------------------------------------------------------------------------


def test_shipped_tree_is_lint_clean():
    findings = lint_paths([REPO_ROOT / "src" / "repro"], config=LintConfig())
    assert findings == [], "\n" + render_text(findings)


def test_cli_without_paths_lints_the_repro_package(tmp_path, monkeypatch, capsys):
    from repro.lint.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "0 findings"
    assert "suppressions used (RL006: 2, RL300: 2)" in captured.err
    assert "stale suppression" not in captured.err


def test_config_default_matches_shipped_pyproject():
    # The defaults are the project's lint configuration (there is no
    # config file): every rule on, each exemption scoped to its owner.
    config = LintConfig()
    assert all(config.enabled(rule_id) for rule_id in RULES)
    assert config.unit_exempt == ("repro/units.py",)
    assert config.float_eq_paths == ("sim/", "core/", "analysis/")
    assert config.diagnostic_exempt == ("cli.py", "lint/", "campaign/store.py")
    assert config.wallclock_exempt == config.taint_exempt == ("repro/hostprof/",)
    assert config.process_roots == (
        "repro.campaign.runner",
        "repro.campaign.supervisor",
        "repro.bench.runner",
    )

"""Tests for the experiment registry and the ``repro experiment`` CLI that
serves it: text blocks on stdout, results.json + REPORT.md with --outdir."""

import json
from types import SimpleNamespace

import pytest

from repro.bench import experiments as ex
from repro.bench.report import (
    _REGISTRY,
    _resolve,
    available_experiments,
    check_experiment_ids,
)
from repro.cli import main
from repro.errors import ConfigurationError

#: A cheap subset suitable for smoke runs.
QUICK_EXPERIMENTS = ("microbench", "fig3", "table2", "table6", "fig10")


def test_available_experiments_cover_the_paper(capsys):
    names = available_experiments()
    paper = {f"fig{i}" for i in range(1, 11)} | {
        "table2", "table3", "table4", "table6", "microbench", "roofline2"}
    assert set(names) == paper
    assert main(["list"]) == 0
    listed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("experiments")]
    assert listed == ["experiments      : " + " ".join(names)]


def test_every_registered_function_resolves():
    # The registry names its functions, so a rename shows here, not
    # only when that experiment runs.
    for entry in _REGISTRY.values():
        assert all(callable(_resolve(name)) for name in entry)


def test_fig2_prints_the_fig1_table(monkeypatch, capsys):
    def fake_run(name, nodes, network):
        runtime = nodes * (2.0 if network == "1G" else 1.0) + len(name)
        return SimpleNamespace(
            runtime=runtime, result=SimpleNamespace(energy_joules=3.0 * runtime))

    monkeypatch.setattr(ex, "run_workload", fake_run)
    assert main(["experiment", "fig1"]) == 0
    fig1 = capsys.readouterr().out
    assert main(["experiment", "fig2"]) == 0
    assert capsys.readouterr().out == fig1
    assert "hpl" in fig1


def test_run_experiments_quick_subset(tmp_path, capsys):
    assert main(["experiment", "microbench"]) == 0
    text = capsys.readouterr().out
    assert "iperf" in text
    assert main(["experiment", "microbench", "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "results.json").read_text())["microbench"]
    assert data["10G"]["iperf_gbit"] > data["1G"]["iperf_gbit"]
    assert text in (tmp_path / "REPORT.md").read_text()


def test_run_experiments_unknown_name(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="known experiments: fig1 "):
        check_experiment_ids(("microbench", "fig99"))
    for retired in ("fig99", "fig1_fig2"):
        assert main(["experiment", "microbench", retired]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert retired in captured.err and "table4" in captured.err
    assert main(["experiment", "fig99", "--outdir", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_write_report_roundtrip(tmp_path, capsys):
    assert main(["experiment", "microbench", "table3",
                 "--outdir", str(tmp_path)]) == 0
    json_path, md_path = tmp_path / "results.json", tmp_path / "REPORT.md"
    assert capsys.readouterr().out == f"wrote {json_path} and {md_path}\n"

    payload = json.loads(json_path.read_text())
    assert set(payload) == {"microbench", "table3"}
    # Dataclasses serialize to dicts with their field names.
    rows = payload["table3"]
    assert any(row["model"] == "zero-copy" and row["runtime"] > 1.5 for row in rows)

    md = md_path.read_text()
    assert "## microbench" in md and "## table3" in md
    assert "zero-copy" in md


def test_report_json_is_deterministic(tmp_path):
    for side in ("a", "b"):
        assert main(["experiment", "microbench", "--outdir",
                     str(tmp_path / side)]) == 0
    for name in ("results.json", "REPORT.md"):
        assert ((tmp_path / "a" / name).read_text()
                == (tmp_path / "b" / name).read_text())


def test_quick_subset_runs(tmp_path):
    assert main(["experiment", *QUICK_EXPERIMENTS, "--outdir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "results.json").read_text())
    assert list(payload) == list(QUICK_EXPERIMENTS)

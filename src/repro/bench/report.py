"""The paper's experiment registry: one id per table or figure.

Each id maps to a data function and a text formatter.  ``repro
experiment ID ...`` prints the text blocks; with ``--outdir`` it calls
``write_report``, which writes

* ``<outdir>/results.json`` — every number, keyed by experiment id, and
* ``<outdir>/REPORT.md`` — the paper-style text blocks,

so a CI job (or the EXPERIMENTS.md author) can diff runs over time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core import render_roofline_ascii
from repro.errors import ConfigurationError


def _roofline_figure() -> dict[str, dict]:
    """Fig. 4's inputs: the per-NIC ceilings and the measured points."""
    from repro.bench import experiments as ex

    return {"models": ex.roofline_models(), "points": ex.roofline_points()}


def _format_roofline_figure(figure: dict[str, dict]) -> str:
    return "\n\n".join(
        render_roofline_ascii(figure["models"][net], figure["points"][net])
        for net in ("1G", "10G")
    )


def _ceiling_migration() -> dict[str, list]:
    """Roofline 2.0: the CNN presets swept over batch size at 4 nodes."""
    from repro.insight import ceiling_migration_sweep

    return {
        network: ceiling_migration_sweep(network, nodes=4)
        for network in ("alexnet", "googlenet")
    }


def _format_ceiling_migration(sweeps: dict[str, list]) -> str:
    from repro.insight import format_migration_sweep

    sections = ["## Roofline 2.0: binding-ceiling migration", ""]
    sections += [format_migration_sweep(net, rows) for net, rows in sweeps.items()]
    return "\n".join(sections)


_NETWORK_COMPARISON = (
    "bench.experiments.network_comparison",
    "bench.tables.format_network_comparison",
)

#: experiment id -> (data function, text formatter), each a dotted name
#: under ``repro`` imported only when the id runs, so listing the ids
#: loads none of the experiments (nor scipy).
_REGISTRY: dict[str, tuple[str, str]] = {
    "fig1": _NETWORK_COMPARISON,
    "fig2": _NETWORK_COMPARISON,  # same table carries both columns
    "fig3": ("bench.experiments.traffic_characterization",
             "bench.tables.format_traffic"),
    "fig4": ("bench.report._roofline_figure",
             "bench.report._format_roofline_figure"),
    "fig5": ("bench.experiments.gpgpu_scalability",
             "bench.tables.format_scalability"),
    "fig6": ("bench.experiments.npb_scalability",
             "bench.tables.format_scalability"),
    "fig7": ("bench.experiments.work_ratio_study",
             "bench.tables.format_work_ratio"),
    "fig8": ("bench.experiments.pls_study", "bench.tables.format_pls"),
    "fig9": ("bench.experiments.discrete_gpu_comparison",
             "bench.tables.format_discrete_gpu"),
    "fig10": ("bench.experiments.ai_balance_study",
              "bench.tables.format_ai_balance"),
    "table2": ("bench.experiments.roofline_points", "core.render_table2"),
    "table3": ("bench.experiments.memory_model_study",
               "bench.tables.format_memory_models"),
    "table4": ("bench.experiments.collocation_study",
               "bench.tables.format_collocation"),
    "table6": ("bench.experiments.cavium_comparison",
               "bench.tables.format_cavium"),
    "microbench": ("bench.experiments.network_microbench",
                   "bench.tables.format_microbench"),
    "roofline2": ("bench.report._ceiling_migration",
                  "bench.report._format_ceiling_migration"),
}


def _resolve(name: str) -> Callable[..., Any]:
    """The function a registry entry names, importing its module."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"repro.{module}"), attr)


def available_experiments() -> tuple[str, ...]:
    """Every registered experiment id, sorted."""
    return tuple(sorted(_REGISTRY))


def check_experiment_ids(names: Sequence[str]) -> tuple[str, ...]:
    """*names* unchanged, or a ConfigurationError naming the valid ids."""
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"known experiments: {' '.join(available_experiments())}"
        )
    return tuple(names)


def run_experiment(name: str) -> tuple[Any, str]:
    """(data, text block) of the registered experiment *name*."""
    check_experiment_ids((name,))
    data_fn, formatter = map(_resolve, _REGISTRY[name])
    data = data_fn()
    return data, formatter(data)


def _jsonable(value: Any) -> Any:
    """Recursively convert experiment outputs to JSON-safe structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            out[field.name] = _jsonable(getattr(value, field.name))
        return out
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "tolist"):  # numpy
        return _jsonable(value.tolist())
    if hasattr(value, "value"):  # enums
        return value.value
    return repr(value)


def write_report(outdir: str | Path, names: Sequence[str]) -> tuple[Path, Path]:
    """Run the experiments *names* and write results.json + REPORT.md."""
    names = check_experiment_ids(names)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = {name: run_experiment(name) for name in names}

    json_path = outdir / "results.json"
    json_path.write_text(
        json.dumps({k: _jsonable(data) for k, (data, _) in results.items()}, indent=2)
    )

    md_lines = ["# Experiment report", ""]
    for name, (_, text) in results.items():
        md_lines += [f"## {name}", "", "```text", text, "```", ""]
    md_path = outdir / "REPORT.md"
    md_path.write_text("\n".join(md_lines))
    return json_path, md_path

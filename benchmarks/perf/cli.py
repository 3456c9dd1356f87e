"""The benchmark's driving process: run children, check outputs, report.

One parent process runs every measurement one at a time, each in a fresh
child interpreter (:mod:`benchmarks.perf.child`) that gets
``REPRO_DISK_CACHE=0`` and no ``REPRO_FAST_PATH``, so the default engine is
measured cold.  A run of one workload is:

1. bare children, until ``--repeats`` of them have run and ``--seconds``
   have passed;
2. set-up-only children, until :data:`SETUP_SAMPLES` set-ups were timed;
3. with ``--trace``, one more child under cProfile for the per-layer table.

End-to-end metrics are medians over the bare children.  Every op's output
digest is checked against ``reference.json``; an op that raises, breaks an
invariant or mismatches its digest counts as failed, and any failure makes
the exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from benchmarks.perf.layers import BUCKETS, COUNTED, FACTS, unit_of
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
#: Where runs put their temporary stores and span files (git-ignored).
SCRATCH = ROOT / ".perfbench"
REFERENCE = Path(__file__).with_name("reference.json")
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_SAMPLES = 3
#: Wall-clock budget for one workload's run, children included.
RUN_BUDGET_S = 170.0
#: Everything a run reports per workload.  ``wall_s`` and ``setup_s`` are
#: at reference host speed (see speed.py); ``raw_*`` as measured.
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "fraction",
    "raw_wall_s": "s", "raw_setup_s": "s", "host_speed": "ratio",
}


class BenchmarkError(Exception):
    """A child failed to run, or the checkout cannot be measured."""


def load_benchmark(root: Path = ROOT) -> dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_reference() -> dict[str, dict[str, dict[str, str]]]:
    """``seed -> workload -> op -> sha256`` (empty when not written yet)."""
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def expected_digests(reference, workload: str, seed: int) -> dict[str, str] | None:
    """The reference digests that apply to *workload* at *seed*, if any.

    Unseeded workloads compute the same outputs for every seed, so seed 0's
    digests check them at any seed.
    """
    key = str(seed) if WORKLOADS[workload].seeded else "0"
    return reference.get(key, {}).get(workload)


def child_env(src_root: Path) -> dict[str, str]:
    """The environment of a measured child: cold, default engine, 1 thread."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAST_PATH"}
    env.update(
        REPRO_DISK_CACHE="0",
        PYTHONPATH=os.pathsep.join([str(src_root / "src"), str(ROOT)]),
        # Same hash seed every run, so traced call counts repeat exactly.
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def check_sources(src_root: Path) -> None:
    """Refuse to run without the simulator's sources; byte-compile them.

    Compiling here keeps bytecode compilation out of every timed set-up.
    """
    package = src_root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {src_root / 'src'}")
    compileall.compile_dir(str(package), quiet=1)
    compileall.compile_dir(str(Path(__file__).parent), quiet=1)


def run_child(workload: str, seed: int, mode: str, src_root: Path,
              deadline: float) -> dict[str, Any]:
    """Run one child to completion and return what it reported."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=SCRATCH)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.perf.child",
             workload, str(seed), mode, scratch],
            cwd=ROOT, env=child_env(src_root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload} {mode} child exceeded the {RUN_BUDGET_S:.0f} s run budget"
        ) from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} {mode} child exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class OpCheck:
    """One op's verdict: ``verified``, ``unverified``, or a failure."""

    name: str
    status: str
    failed: bool
    detail: str = ""


def judge(records: Sequence[dict[str, Any]],
          expected: dict[str, str] | None) -> list[OpCheck]:
    """Check each op record against invariants and the reference digests."""
    checks = []
    for record in records:
        name = record["name"]
        if record["error"] is not None:
            checks.append(OpCheck(name, "raised", True, record["error"]))
        elif not record["ok"]:
            checks.append(OpCheck(name, "invariant broken", True))
        elif expected is None or name not in expected:
            checks.append(OpCheck(name, "unverified", False, record["digest"]))
        elif expected[name] != record["digest"]:
            checks.append(OpCheck(
                name, "digest mismatch", True,
                f"expected {expected[name]}, got {record['digest']}",
            ))
        else:
            checks.append(OpCheck(name, "verified", False))
    return checks


@dataclass
class WorkloadRun:
    """Everything one workload's run measured."""

    workload: str
    seed: int
    bare: list[dict[str, Any]]
    #: Set-up-only children.
    setups: list[dict[str, Any]]
    traced: dict[str, Any] | None
    checks: list[OpCheck] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(check.failed for check in self.checks)

    def samples(self) -> dict[str, list[float]]:
        """Per-child samples of each end-to-end metric."""
        set_up = self.bare + self.setups
        return {
            "wall_s": [child["wall_ref_s"] for child in self.bare],
            "setup_s": [child["setup_ref_s"] for child in set_up],
            "peak_rss_mb": [child["peak_rss_mb"] for child in self.bare],
            "error_rate": [self.failed / self.attempted],
            "raw_wall_s": [child["wall_s"] for child in self.bare],
            "raw_setup_s": [child["setup_s"] for child in set_up],
            "host_speed": [child["speed"] for child in self.bare],
        }

    def end_to_end(self) -> dict[str, float]:
        """The median of each end-to-end metric."""
        return {name: statistics.median(values)
                for name, values in self.samples().items()}

    def per_layer(self) -> dict[str, float]:
        """The traced child's roll-up, simulated counts and trace overhead."""
        if self.traced is None:
            return {}
        metrics = dict(self.traced["layers"])
        metrics.update(self.traced["facts"])
        # Both as measured: the traced child runs no speed probe.
        metrics["trace_overhead"] = (
            self.traced["wall_s"] / self.end_to_end()["raw_wall_s"]
        )
        return metrics


def measure_workload(workload: str, seed: int, repeats: int, seconds: float,
                 trace: bool, src_root: Path = ROOT,
                 reference: dict | None = None) -> WorkloadRun:
    """Measure one workload as the module docstring describes."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    bare: list[dict[str, Any]] = []
    while len(bare) < repeats or time.monotonic() - start < seconds:
        bare.append(run_child(workload, seed, "bare", src_root, deadline))
    setups = [run_child(workload, seed, "setup", src_root, deadline)
              for _ in range(SETUP_SAMPLES - len(bare))]
    traced = run_child(workload, seed, "trace", src_root, deadline) if trace else None
    run = WorkloadRun(workload, seed, bare, setups, traced)
    expected = expected_digests(
        load_reference() if reference is None else reference, workload, seed
    )
    for child in bare + ([traced] if traced else []):
        run.checks.extend(judge(child["ops"], expected))
    return run


def write_spans(run: WorkloadRun, path: Path) -> None:
    """Every child's benchmark-side spans as one Chrome trace (host time)."""
    children = run.bare + ([run.traced] if run.traced else [])
    events: list[dict[str, Any]] = []
    for pid, child in enumerate(children, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": f"{run.workload} {child['mode']} #{pid}"}})
        for span in child["spans"]:
            events.append({
                "ph": "X", "name": span["name"], "pid": pid, "tid": 0,
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span["id"], "parent": span["parent"],
                         "op": span["op"]},
            })
    document = {"traceEvents": events,
                "otherData": {"timebase": "host perf_counter, per child"}}
    path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_run(run: WorkloadRun) -> None:
    """The human-readable report of one workload's run."""
    samples = run.samples()
    print(f"== {run.workload}  seed {run.seed}  ({len(run.bare)} bare run(s), "
          f"{len(samples['setup_s'])} set-ups, {run.attempted} ops checked)")
    for name, values in samples.items():
        print(f"  {name:<12} {_fmt(statistics.median(values)):>12} "
              f"{END_TO_END_UNITS[name]:<8} min {_fmt(min(values))}  "
              f"max {_fmt(max(values))}  n={len(values)}")
    statuses: dict[str, int] = {}
    for check in run.checks:
        statuses[check.status] = statuses.get(check.status, 0) + 1
        if check.status != "verified":
            print(f"  {'FAILED ' if check.failed else ''}op {check.name}: "
                  f"{check.status} {check.detail}")
    print("  ops: " + ", ".join(f"{n} {s}" for s, n in sorted(statuses.items())))
    if run.traced is None:
        return
    metrics = run.per_layer()
    print(f"  {'layer':<10} {'self_s [s]':>12} {'share':>8} {'calls [count]':>14}")
    for bucket in BUCKETS:
        print(f"  {bucket:<10} {metrics[bucket + '.self_s']:>12.4f} "
              f"{metrics[bucket + '.share']:>8.2%} "
              f"{int(metrics[bucket + '.calls']):>14}")
    for name in (*COUNTED, *FACTS, "trace_overhead"):
        print(f"  {name:<22} {_fmt(metrics[name]):>16} {unit_of(name)}")


def result_line(runs: Sequence[WorkloadRun], names: Sequence[str],
                trace: bool) -> dict[str, Any]:
    """The summary object printed as the last line of standard output.

    With several workloads each metric name is prefixed by its workload.
    """
    metrics: dict[str, dict[str, Any]] = {}
    for run in runs:
        values = run.per_layer() if trace else run.end_to_end()
        for name in names:
            key = name if len(runs) == 1 else f"{run.workload}.{name}"
            unit = unit_of(name) if trace else END_TO_END_UNITS[name]
            metrics[key] = {"value": values[name], "unit": unit}
    failed = sum(run.failed for run in runs)
    return {"correct": failed == 0,
            "attempted": sum(run.attempted for run in runs),
            "failed": failed, "metrics": metrics}


def run_record(run: WorkloadRun) -> dict[str, Any]:
    """The ``--json`` form of one workload's run."""
    return {
        "seed": run.seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": run.samples(),
        "end_to_end": run.end_to_end(),
        "per_layer": run.per_layer() or None,
        "ops": [vars(check) for check in run.checks],
    }


def write_reference(workloads: Sequence[str]) -> None:
    """Record every op's digest for seeds 0 and 1 in ``reference.json``."""
    reference = load_reference()
    for seed in (0, 1):
        for workload in workloads:
            run = measure_workload(workload, seed, repeats=1, seconds=0,
                               trace=False, reference={})
            broken = [c for c in run.checks if c.failed]
            if broken:
                raise BenchmarkError(
                    f"{workload} seed {seed}: refusing to record a reference "
                    f"from failed ops {[c.name for c in broken]}"
                )
            reference.setdefault(str(seed), {})[workload] = {
                record["name"]: record["digest"] for record in run.bare[0]["ops"]
            }
            print(f"recorded {workload} seed {seed}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Host-time benchmark of the simulator: bare end-to-end "
                    "medians, checked outputs, and a traced per-layer run.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles op order; also seeds the fault schedule")
    parser.add_argument("--repeats", type=int, default=1,
                        help="minimum bare children per workload (default 1)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting bare children until this long has "
                             "passed (default 0)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced child and report per-layer metrics")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="write every sample and metric to OUT")
    parser.add_argument("--write-reference", action="store_true",
                        help="record op digests for seeds 0 and 1 and exit")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    args = parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    try:
        check_sources(ROOT)
        if args.write_reference:
            write_reference(workloads)
            return 0
        benchmark = load_benchmark()
        kind = "per_layer" if args.trace else "end_to_end"
        names = [metric["name"] for metric in benchmark[kind]]
        runs = []
        for workload in workloads:
            run = measure_workload(workload, args.seed, args.repeats, args.seconds,
                               bool(args.trace))
            print_run(run)
            if args.trace:
                spans = SCRATCH / f"{workload}-seed{args.seed}.trace.json"
                write_spans(run, spans)
                print(f"  spans: {spans.relative_to(ROOT)}")
            runs.append(run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        args.json.write_text(json.dumps(
            {"workloads": {run.workload: run_record(run) for run in runs}},
            indent=1, sort_keys=True,
        ) + "\n", encoding="utf-8")
    summary = result_line(runs, names, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1

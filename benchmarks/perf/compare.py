"""``python -m benchmarks.perf compare PARENT CHANGE``: judge a change.

PARENT and CHANGE are two checkouts of the repository.  This benchmark's
own code measures both, so the two sides run identical benchmark code and
settings; only the simulator under ``src/`` differs.  Pair *i* runs every
workload at seed *i* on both sides, parent first when *i* is even and
change first when it is odd.

Each metric x workload gets one verdict:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's own spread
  (the distance between its quartiles);
* ``unresolved``: either side's spread, as a share of its median, exceeds
  the metric's bound, unless every change run is better than every parent
  run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound (``error_rate`` has bound 0: any increase);
* ``unchanged``: none of the above.

Bounds come from ``BENCHMARK.json``.  The exit code is 1 when any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

from benchmarks.perf import cli

#: Pair wins a gain needs, as a share of the pairs run.
WIN_SHARE = 0.9


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for constant data)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def pair_wins(parent: Sequence[float], change: Sequence[float],
              better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("compare needs at least two pairs of equal length")
    sign = 1.0 if better == "lower" else -1.0
    wins = pair_wins(parent, change, better)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (parent_median - change_median)  # > 0: the change is better
    if wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        return "improved"
    every_better = all(
        sign * (p - c) > 0 for p in parent for c in change
    )
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not every_better:
        return "unresolved"
    if -gain > bound * abs(parent_median):
        return "regressed"
    return "unchanged"


def metric_rules() -> dict[str, tuple[str, float]]:
    """``name -> (better, bound)`` for every end-to-end metric compared."""
    rules = {metric["name"]: (metric["better"], metric["bound"])
             for metric in cli.load_benchmark()["end_to_end"]}
    rules["error_rate"] = ("lower", 0.0)
    return rules


def run_pairs(parent: Path, change: Path, workloads: Sequence[str], pairs: int,
              seconds: float, out: Path) -> dict[str, dict[str, list[dict]]]:
    """Run alternating pairs; returns ``side -> workload -> [end_to_end]``."""
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict[str, list[dict]]] = {
        "parent": {w: [] for w in workloads},
        "change": {w: [] for w in workloads},
    }
    sides = (("parent", parent), ("change", change))
    for seed in range(pairs):
        order = sides if seed % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side, root in order:
                run = cli.measure_workload(workload, seed, repeats=1,
                                           seconds=seconds, trace=False,
                                           src_root=root)
                record = cli.run_record(run)
                (out / f"{side}-{workload}-seed{seed}.json").write_text(
                    json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                results[side][workload].append(record["end_to_end"])
                print(f"pair {seed} {workload} {side}: "
                      f"wall_s {record['end_to_end']['wall_s']:.4f}, "
                      f"{record['failed']} failed", flush=True)
    return results


def _summary(values: Sequence[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def table(results: dict[str, dict[str, list[dict]]]) -> list[dict]:
    """One row per metric x workload."""
    rows = []
    for workload, parent_runs in results["parent"].items():
        change_runs = results["change"][workload]
        for name, (better, bound) in metric_rules().items():
            parent = [run[name] for run in parent_runs]
            change = [run[name] for run in change_runs]
            rows.append({
                "workload": workload, "metric": name,
                "parent": _summary(parent),
                "change": _summary(change),
                "wins": pair_wins(parent, change, better),
                "pairs": len(parent), "bound": bound,
                "verdict": verdict(parent, change, better, bound),
            })
    return rows


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf compare",
        description="Run alternating pairs on two checkouts and judge "
                    "every end-to-end metric per workload.",
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=cli.WORKLOAD_NAMES,
                        help="repeatable (default: all four)")
    parser.add_argument("--seconds", type=float,
                        default=cli.load_benchmark()["run_seconds"])
    parser.add_argument("--out", type=Path, default=cli.SCRATCH / "compare",
                        help="where each run's JSON record is written")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    try:
        for root in (args.parent, args.change):
            cli.check_sources(root.resolve())
        results = run_pairs(args.parent.resolve(), args.change.resolve(),
                            args.workload or cli.WORKLOAD_NAMES, args.pairs,
                            args.seconds, args.out)
    except cli.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = table(results)
    print("workload metric: parent median [q1, q3] | change median [q1, q3] "
          "| change wins/pairs | bound | verdict")
    for row in rows:
        parent, change = row["parent"], row["change"]
        print(f"{row['workload']} {row['metric']}: "
              f"{parent['median']:.5g} [{parent['q1']:.5g}, {parent['q3']:.5g}] | "
              f"{change['median']:.5g} [{change['q1']:.5g}, {change['q3']:.5g}] | "
              f"{row['wins']}/{row['pairs']} | {row['bound']:g} | {row['verdict']}")
    (args.out / "verdicts.json").write_text(
        json.dumps(rows, indent=1) + "\n", encoding="utf-8"
    )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show available workloads, systems, and experiments.
``run``
    Run one workload on a cluster and print the measurements (optionally a
    Paraver-style timeline and the extended-Roofline placement).
``experiment``
    Regenerate the paper's tables/figures by id (fig1, table2, ...; ``list``
    names them all) and print their text blocks; ``--outdir DIR`` writes
    them as results.json + REPORT.md artifacts instead.
``report``
    Run one workload traced and print the bottleneck report —
    critical path, roofline placement, LB·Ser·Trf cross-check — as text,
    JSON, or Markdown (see ``docs/TELEMETRY.md``).
``bench``
    Measure the perf-regression baseline (``--baseline FILE`` writes it;
    ``--check`` re-measures and exits non-zero on drift beyond tolerance).
``lint``
    Run the repro static-analysis rule pack (see ``docs/LINT.md``); exits
    nonzero when findings exist.
``faults``
    Rerun a benchmark under a fault schedule (node crashes, degraded NICs,
    stragglers, message loss) and report the resilience impact; see
    ``docs/FAULTS.md``.
``telemetry``
    Run one workload with the telemetry sink attached and print the span /
    instrument summary; ``--trace-out`` writes a Chrome-trace JSON (load it
    at https://ui.perfetto.dev) and ``--metrics-out`` a Prometheus-style
    snapshot.  See ``docs/TELEMETRY.md``.
``sweep``
    Run a campaign (workload x nodes x network grid, inline flags or a JSON
    campaign file) sharded over ``--jobs`` worker processes, warm-starting
    from the persistent ``.repro-cache/`` result store; prints the summary
    table plus cache/worker counters.  Execution is supervised: failed
    attempts retry with seeded backoff (``--retries``), hung workers are
    culled (``--task-timeout``, needs ``--jobs`` > 1), and poison specs
    are quarantined instead of aborting the campaign.  Rerunning an
    interrupted campaign warm-starts every spec that reached the store.
    ``--chaos SEED`` injects a deterministic fault schedule to exercise
    all of it.  See ``docs/CAMPAIGN.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import AnalysisError, ConfigurationError, TelemetryError
from repro.units import to_gflops
from repro.workloads import ALL_NAMES, GPGPU_NAMES


def _require_workload(name: str) -> str:
    """Validate a workload name, naming the alternatives on failure."""
    if name not in ALL_NAMES:
        raise ConfigurationError(
            f"unknown workload {name!r}; known workloads: "
            f"{', '.join(sorted(ALL_NAMES))}"
        )
    return name


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.bench.report import available_experiments

    print("workloads (GPGPU): " + " ".join(GPGPU_NAMES))
    print("workloads (NPB)  : " + " ".join(n for n in ALL_NAMES if n not in GPGPU_NAMES))
    print("systems          : tx1 (2/4/8/16 nodes, 1G|10G), gtx980, thunderx")
    print("experiments      : " + " ".join(available_experiments()))
    return 0


def _make_telemetry(args: argparse.Namespace):
    """A Telemetry sink when any telemetry output was requested, else None."""
    if not (getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)):
        return None
    from repro.telemetry import Telemetry

    return Telemetry(sample_interval=args.sample_interval)


def _write_telemetry(telemetry, args: argparse.Namespace) -> None:
    """Write the requested exporter outputs and say where they went."""
    if telemetry is None:
        return
    if getattr(args, "trace_out", None):
        from repro.telemetry import write_chrome_trace

        with open(args.trace_out, "w", encoding="utf-8") as handle:
            write_chrome_trace(telemetry, handle)
        print(f"wrote Chrome trace ({len(telemetry.spans)} spans, "
              f"{len(telemetry.samples)} samples) to {args.trace_out}")
    if getattr(args, "metrics_out", None):
        from repro.telemetry import to_prometheus_text

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus_text(telemetry.registry))
        print(f"wrote metrics snapshot ({len(telemetry.registry)} instruments) "
              f"to {args.metrics_out}")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace-event JSON here")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write a Prometheus-style metrics snapshot here")
    parser.add_argument("--sample-interval", type=float, default=0.1,
                        help="utilization sampling period in simulated "
                             "seconds (0 disables sampling)")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_workload
    from repro.tracing import render_timeline, utilization_summary

    telemetry = _make_telemetry(args)
    run = run_workload(
        args.workload,
        nodes=args.nodes,
        network=args.network,
        system=args.system,
        traced=args.timeline,
        use_cache=False,
        telemetry=telemetry,
    )
    result = run.result
    print(f"{args.workload} on {run.cluster.spec.name}:")
    print(f"  runtime    : {result.elapsed_seconds:10.2f} s")
    print(f"  throughput : {to_gflops(result.throughput_flops):10.2f} GFLOPS")
    print(f"  avg power  : {result.average_power_watts:10.1f} W")
    print(f"  energy     : {result.energy_joules:10.1f} J")
    print(f"  efficiency : {result.mflops_per_watt():10.0f} MFLOPS/W")
    if args.workload in GPGPU_NAMES and args.system == "tx1":
        from repro.core import measure_roofline_point

        point = measure_roofline_point(
            args.workload, result, run.cluster,
            precision=run.workload.precision,
        )
        print(f"  roofline   : OI={point.operational_intensity:.2f} F/B, "
              f"NI={point.network_intensity:.1f} F/B, "
              f"{point.percent_of_peak:.0f}% of bound, limit={point.limit.value}")
    if args.timeline and run.trace is not None:
        print()
        print(render_timeline(run.trace, width=args.width))
        print()
        print(utilization_summary(run.trace))
    _write_telemetry(telemetry, args)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench.report import check_experiment_ids, run_experiment, write_report

    names = check_experiment_ids(args.ids)
    if args.outdir is not None:
        json_path, md_path = write_report(args.outdir, names)
        print(f"wrote {json_path} and {md_path}")
        return 0
    for name in names:
        print(run_experiment(name)[1])
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import experiments as fx
    from repro.faults.model import FaultSchedule

    telemetry = _make_telemetry(args)
    if args.demo:
        report = fx.run_demo(
            args.workload, nodes=args.nodes, network=args.network,
            seed=args.seed, telemetry=telemetry,
        )
    else:
        if args.schedule is None:
            print("faults: provide --demo or --schedule FILE", file=sys.stderr)
            return 2
        import json

        with open(args.schedule, encoding="utf-8") as handle:
            schedule = FaultSchedule.from_dict(json.load(handle))
        report = fx.run_degraded(
            args.workload, schedule, nodes=args.nodes, network=args.network,
            telemetry=telemetry,
        )
    print(fx.format_report(report))
    _write_telemetry(telemetry, args)
    return 0 if report.completed else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_workload
    from repro.telemetry import Telemetry

    telemetry = Telemetry(sample_interval=args.sample_interval)
    run = run_workload(
        _require_workload(args.workload),
        nodes=args.nodes,
        network=args.network,
        system=args.system,
        traced=True,
        use_cache=False,
        telemetry=telemetry,
    )
    print(f"{args.workload} on {run.cluster.spec.name}: "
          f"{run.result.elapsed_seconds:.4f} s simulated")
    print(f"  spans      : {len(telemetry.spans)} across "
          f"{len(telemetry.tracks())} tracks")
    for category, count in telemetry.span_counts().items():
        print(f"    {category:<8}: {count}")
    print(f"  samples    : {len(telemetry.samples)} "
          f"(every {telemetry.sample_interval} s)")
    print(f"  instruments: {len(telemetry.registry)}")
    for instrument in telemetry.registry.instruments():
        print(f"    {instrument.kind:<9} {instrument.name}")
    _write_telemetry(telemetry, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.insight import RENDERERS, build_report, render_ridgeline_svg

    report = build_report(
        _require_workload(args.workload),
        nodes=args.nodes,
        network=args.network,
        system=args.system,
        roofline=args.roofline,
    )
    rendered = RENDERERS[args.format](report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="")
    if args.figure_out:
        if report.ridgeline is None:
            raise ConfigurationError(
                "--figure-out needs --roofline 2d and a GPGPU workload"
            )
        with open(args.figure_out, "w", encoding="utf-8") as handle:
            handle.write(render_ridgeline_svg(report.ridgeline))
        print(f"wrote ridgeline figure to {args.figure_out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.insight import (
        DEFAULT_TOLERANCE,
        collect_baseline,
        compare_baseline,
        format_drift_report,
        load_baseline,
        write_baseline,
    )

    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    if args.check:
        baseline = load_baseline(args.baseline)
        config = baseline.get("config", {})
        current = collect_baseline(
            workloads=tuple(sorted(baseline.get("metrics", {}))),
            nodes=int(config.get("nodes", 4)),
            network=str(config.get("network", "10G")),
        )
        drifts = compare_baseline(baseline, current, tolerance=tolerance)
        print(format_drift_report(drifts, tolerance))
        return 1 if drifts else 0

    workloads = tuple(
        _require_workload(name) for name in args.workloads
    ) if args.workloads else None
    baseline = (collect_baseline(workloads=workloads, nodes=args.nodes,
                                 network=args.network)
                if workloads is not None
                else collect_baseline(nodes=args.nodes, network=args.network))
    path = write_baseline(args.baseline, baseline)
    print(f"wrote baseline ({len(baseline['metrics'])} workloads) to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.campaign import (
        ChaosSchedule,
        ResultStore,
        build_campaign,
        format_campaign_failures,
        format_campaign_stats,
        format_campaign_table,
        load_campaign_file,
        run_campaign,
    )

    if args.campaign_file is not None:
        if args.workloads:
            raise ConfigurationError(
                "pass either a campaign file or --workloads, not both"
            )
        specs = load_campaign_file(args.campaign_file)
    else:
        if not args.workloads:
            raise ConfigurationError(
                "provide a campaign file or --workloads NAME [NAME ...]"
            )
        specs = build_campaign(
            tuple(_require_workload(name) for name in args.workloads),
            nodes=tuple(args.nodes),
            networks=tuple(args.networks),
            system=args.system,
            ranks_per_node=args.ranks_per_node,
        )
    if args.no_cache:
        store = None
    elif args.cache_dir is not None:
        store = ResultStore(args.cache_dir)
    else:
        store = _DEFAULT_SWEEP_STORE
    chaos = (
        ChaosSchedule.plan(specs, seed=args.chaos)
        if args.chaos is not None else None
    )
    host = None
    if args.host_trace is not None:
        from repro.hostprof import CampaignHostRecorder

        host = CampaignHostRecorder()
    progress = None
    if args.progress:
        # Diagnostic heartbeat on stderr only: stdout (the table and
        # stats the CI byte-compares) is untouched.
        total = len(specs)
        state = {"decided": 0, "hits": 0, "misses": 0, "quarantined": 0}

        def progress(record) -> None:
            state["decided"] += 1
            state["hits" if record.cached else "misses"] += 1
            if not record.completed:
                state["quarantined"] += 1
            print(
                f"sweep progress: {state['decided']}/{total} specs decided "
                f"({state['hits']} cache hits, {state['misses']} misses, "
                f"{state['quarantined']} quarantined)",
                file=sys.stderr, flush=True,
            )

    supervision = {
        "retries": args.retries,
        "task_timeout": args.task_timeout,
        "chaos": chaos,
        "host": host,
        "progress": progress,
    }
    if store is _DEFAULT_SWEEP_STORE:
        result = run_campaign(specs, jobs=args.jobs, **supervision)
    else:
        result = run_campaign(specs, jobs=args.jobs, store=store, **supervision)
    if host is not None:
        from repro.hostprof import write_host_trace

        with open(args.host_trace, "w", encoding="utf-8") as handle:
            write_host_trace(host, handle)
        print(f"wrote host trace to {args.host_trace}", file=sys.stderr)
    print(format_campaign_table(result))
    print()
    print(format_campaign_stats(result))
    failures = format_campaign_failures(result)
    if failures:
        print()
        print(failures)
    return 0 if all(row.completed for row in result.rows) else 1


#: Sentinel: sweep should fall through to the process default store.
_DEFAULT_SWEEP_STORE = object()


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPGPU-accelerated SoC-based ARM clusters (CLUSTER'17), simulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, systems, and experiments")

    run_p = sub.add_parser("run", help="run one workload on a cluster")
    run_p.add_argument("workload", choices=sorted(ALL_NAMES))
    run_p.add_argument("--nodes", type=int, default=4)
    run_p.add_argument("--network", choices=("1G", "10G"), default="10G")
    run_p.add_argument("--system", choices=("tx1", "gtx980", "thunderx"),
                       default="tx1")
    run_p.add_argument("--timeline", action="store_true",
                       help="collect a trace and print a Paraver-style timeline")
    run_p.add_argument("--width", type=int, default=100,
                       help="timeline width in characters")
    _add_telemetry_arguments(run_p)

    exp_p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    exp_p.add_argument("ids", nargs="+", metavar="ID",
                       help="experiment ids, e.g. fig1 table2 microbench "
                            "(`repro list` names them all)")
    exp_p.add_argument("--outdir", default=None, metavar="DIR",
                       help="write results.json + REPORT.md here instead of "
                            "printing the text blocks")

    rep_p = sub.add_parser("report", help="per-workload bottleneck report")
    rep_p.add_argument("workload", help="workload to analyse")
    rep_p.add_argument("--nodes", type=int, default=4)
    rep_p.add_argument("--network", choices=("1G", "10G"), default="10G")
    rep_p.add_argument("--system", choices=("tx1", "gtx980", "thunderx"),
                       default="tx1")
    rep_p.add_argument("--format", choices=("text", "json", "md"),
                       default="text", help="report rendering (default: text)")
    rep_p.add_argument("--roofline", choices=("flat", "hier", "2d"),
                       default="flat",
                       help="roofline section depth: flat (one DRAM ceiling), "
                            "hier (per-level binding), 2d (adds the per-rank "
                            "OIxNI placement)")
    rep_p.add_argument("--figure-out", default=None, metavar="FILE",
                       help="with --roofline 2d: write the deterministic "
                            "ridgeline SVG here")
    rep_p.add_argument("--out", default=None, metavar="FILE",
                       help="write the report here instead of stdout")

    bench_p = sub.add_parser(
        "bench",
        help="write or check the perf-regression baseline",
    )
    bench_p.add_argument("--baseline", default="BENCH_seed.json",
                         metavar="FILE",
                         help="baseline JSON to write (or check against)")
    bench_p.add_argument("--check", action="store_true",
                         help="re-measure and fail on drift beyond tolerance")
    bench_p.add_argument("--tolerance", type=float, default=None,
                         help="relative drift tolerance for --check")
    bench_p.add_argument("--workloads", nargs="*", default=None,
                         help="workloads to measure (default: the stock set)")
    bench_p.add_argument("--nodes", type=int, default=4)
    bench_p.add_argument("--network", choices=("1G", "10G"), default="10G")

    faults_p = sub.add_parser(
        "faults",
        help="rerun a benchmark under an injected fault schedule",
    )
    faults_p.add_argument("workload", nargs="?", default="jacobi",
                          choices=sorted(ALL_NAMES))
    faults_p.add_argument("--demo", action="store_true",
                          help="run the stock degraded-Jacobi demo schedule")
    faults_p.add_argument("--schedule", default=None,
                          help="JSON fault-schedule file (FaultSchedule.to_dict)")
    faults_p.add_argument("--nodes", type=int, default=4)
    faults_p.add_argument("--network", choices=("1G", "10G"), default="10G")
    faults_p.add_argument("--seed", type=int, default=0,
                          help="schedule seed for --demo")
    _add_telemetry_arguments(faults_p)

    telemetry_p = sub.add_parser(
        "telemetry",
        help="run one workload with the telemetry sink and export the trace",
    )
    telemetry_p.add_argument("workload", nargs="?", default="cloverleaf",
                             help="workload name (see `repro list`)")
    telemetry_p.add_argument("--nodes", type=int, default=4)
    telemetry_p.add_argument("--network", choices=("1G", "10G"), default="10G")
    telemetry_p.add_argument("--system", choices=("tx1", "gtx980", "thunderx"),
                             default="tx1")
    _add_telemetry_arguments(telemetry_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a workload x nodes x network campaign with the result cache",
    )
    sweep_p.add_argument("campaign_file", nargs="?", default=None,
                         metavar="CAMPAIGN.json",
                         help="JSON campaign file (see docs/CAMPAIGN.md); "
                              "omit to describe the grid with flags")
    sweep_p.add_argument("--workloads", nargs="*", default=None,
                         help="workload names for the flag-built grid")
    sweep_p.add_argument("--nodes", nargs="*", type=int, default=(4,),
                         help="cluster sizes to sweep (default: 4)")
    sweep_p.add_argument("--networks", nargs="*", choices=("1G", "10G"),
                         default=("10G",),
                         help="interconnects to sweep (default: 10G)")
    sweep_p.add_argument("--system", choices=("tx1", "gtx980", "thunderx"),
                         default="tx1")
    sweep_p.add_argument("--ranks-per-node", type=int, default=None,
                         help="override the per-workload default rank count")
    sweep_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for cold runs (default: 1, "
                              "serial)")
    sweep_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result store directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="run storeless: no warm-starts, nothing "
                              "persisted")
    sweep_p.add_argument("--retries", type=int, default=2, metavar="N",
                         help="failed attempts to retry per spec before "
                              "quarantining it (default: 2)")
    sweep_p.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="cull a worker whose task exceeds this budget "
                              "and retry the spec; needs --jobs > 1 "
                              "(default: no timeout)")
    sweep_p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                         help="inject a seeded fault schedule (worker crash, "
                              "hang, in-task failure, corrupted store entry) "
                              "to exercise the recovery machinery")
    sweep_p.add_argument("--progress", action="store_true",
                         help="stderr heartbeat per decided spec "
                              "(decided/total, cache hits/misses, "
                              "quarantined); stdout is unchanged")
    sweep_p.add_argument("--host-trace", default=None, metavar="FILE",
                         help="record host-clock worker timelines and write "
                              "them as a Chrome trace (one lane per worker)")

    from repro.lint.cli import add_lint_arguments

    lint_p = sub.add_parser(
        "lint",
        help="static analysis: determinism, units, MPI/sim-kernel hygiene",
    )
    add_lint_arguments(lint_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "faults": _cmd_faults,
        "telemetry": _cmd_telemetry,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (AnalysisError, ConfigurationError, TelemetryError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())

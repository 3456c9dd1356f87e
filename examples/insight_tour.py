#!/usr/bin/env python3
"""Insight tour: capture a run, walk its critical path, place it on the
roofline, and render the full report.

Runs the cloverleaf benchmark traced, then drives the four repro.insight
pillars one by one: op extraction and critical-path attribution, roofline
placement from the run record's totals, the op-stream-vs-replay
LB·Ser·Trf cross-check, and finally the assembled report in all three
formats.  The rank-level analyses read the run's trace; the roofline
placement reads its JobResult.  No telemetry sink is attached, so the
report at the end is served from the run cache.  Everything printed is
deterministic — rerunning this script yields byte-identical output.

Run:  python examples/insight_tour.py
"""

from repro.bench.runner import run_workload
from repro.core import place
from repro.insight import (
    SEGMENT_KINDS,
    build_report,
    critical_path,
    cross_check,
    completion_totals,
    extract_ops,
    render_markdown,
    render_text,
)


def main() -> None:
    # 1. Capture: a traced run keeps every rank's states and messages in
    #    its trace and every kernel and copy in its JobResult.
    run = run_workload("cloverleaf", nodes=4, network="10G", traced=True)
    kernels = sum(len(p.kernels) for p in run.result.gpu_profilers)
    print(f"[capture] cloverleaf on 4 TX1 nodes: "
          f"{run.result.elapsed_seconds:.4f} s simulated, "
          f"{kernels} kernels recorded")

    # 2. Ops + critical path: stitch per-rank leaf ops through the MPI
    #    message edges and walk back from the last-finishing rank.
    streams = extract_ops(run.trace)
    print(f"[ops] {len(streams.all_ops())} leaf ops across "
          f"{streams.n_ranks} ranks")
    path = critical_path(run.trace)
    print(f"[path] {len(path.segments)} segments across "
          f"{len(path.rank_visits)} rank(s); dominant: {path.dominant_kind}")
    for kind in SEGMENT_KINDS:
        seconds = path.breakdown[kind]
        if seconds > 0:
            print(f"       {kind:<8} {seconds:8.4f} s "
                  f"({100.0 * path.fraction(kind):5.1f} %)")

    # 3. Roofline placement: the run's totals folded from its kernel and
    #    copy records in completion order, placed by the one placement
    #    function under the workload's precision roof.
    placement = place(completion_totals(run.result), run.cluster,
                      precision=run.workload.precision, name="cloverleaf")
    point = placement.point
    print(f"[roofline] OI={point.operational_intensity:.3f} F/B, "
          f"NI={point.network_intensity:.1f} F/B -> binding ceiling: "
          f"{point.limit.value} ({point.percent_of_peak:.1f} % of the roof); "
          f"binding level: {placement.binding_level}")

    # 4. Cross-check: the op-stream LB and eta must agree with the
    #    replay-derived Eq. 4 factors — two independent pipelines, one trace.
    check = cross_check(run.trace, rank_to_node=run.rank_to_node)
    replay = check.replay
    print(f"[eta] LB={replay.load_balance:.4f} Ser={replay.serialization:.4f} "
          f"Trf={replay.transfer:.4f}; LB delta {check.lb_delta:.2e}, "
          f"eta delta {check.eta_delta:.2e} -> "
          f"{'consistent' if check.consistent() else 'INCONSISTENT'}")

    # 5. The assembled report — what `python -m repro report cloverleaf`
    #    prints; --format json/md for the other renderings.
    report = build_report("cloverleaf", nodes=4)
    print()
    print(render_text(report), end="")
    with open("insight_tour.report.md", "w", encoding="utf-8") as handle:
        handle.write(render_markdown(report))
    print()
    print("[report] wrote insight_tour.report.md")


if __name__ == "__main__":
    main()

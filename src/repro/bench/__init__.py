"""The experiment harness: one canned experiment per paper table/figure.

`repro.bench.experiments` holds the experiment functions (E1-E15 in
DESIGN.md); `repro.bench.runner` the shared measurement machinery;
`repro.bench.calibration` the descriptive configuration tables (I, V, VII)
with provenance notes; `repro.bench.tables` the text formatting used by the
``benchmarks/`` modules to print paper-style rows.

Only the runner is imported with the package: the experiments load
``scipy.optimize`` for the USL fit, which no single run needs.  The other
modules import on first use (``from repro.bench import experiments``).
"""

from repro.bench.runner import ExperimentRun, run_workload

__all__ = ["ExperimentRun", "run_workload"]

"""Tier-2 paper-reproduction benchmarks (one module per figure/table).

Run them with ``python -m pytest benchmarks/ -q``; each ``bench_*`` module
asserts one of the paper's headline claims against the simulator.

The perf-regression baseline
----------------------------

The tier-1 suite guards *correctness*; the BENCH baseline guards the
*numbers*.  The repo commits ``BENCH_seed.json`` — per-workload runtime,
MFLOPS/W, wire bytes, the LB·Ser·Trf factors, the binding roofline
ceiling, and the activity counts below, measured at 4 nodes / 10 GbE by ``repro.insight.baseline``:

* ``python -m repro bench`` re-measures and (over)writes the baseline.
  Run it — and commit the diff — whenever a PR *intentionally* changes the
  performance model, so the new numbers become the contract.
* ``python -m repro bench --check`` re-measures and exits non-zero on any
  metric drifting beyond ``--tolerance`` (default 1e-6).  The simulator is
  deterministic, so the expected drift is exactly zero; the tolerance only
  absorbs cross-platform libm noise.  CI runs this on every push, which
  turns an accidental perf-model change into a red build instead of a
  silent shift in every figure above.
* Both modes **warm-start** from the persistent campaign result store
  (``.repro-cache/``, see ``docs/CAMPAIGN.md``): the derived per-workload
  baseline rows are cached under their RunSpec digests, so a repeated
  ``repro bench --check`` with unchanged sources reads rows back instead
  of re-simulating.  Any edit under ``src/repro`` moves the source
  fingerprint and invalidates every cached row.

The simulator's own activity
----------------------------

Each ``BENCH_seed.json`` row (schema 2) also carries integer activity
counts read from the same run's telemetry sink: ``events`` dispatched,
``processes`` started, ``mpi_hops`` (MPI spans), ``fabric_flow_rounds``
(completed fabric transfers) and ``telemetry_spans``.  ``--check``
compares these **exactly**, whatever ``--tolerance`` is, so an unintended
change to the event flow fails CI.  Wall time is not recorded there; bare
repeated per-layer wall-time numbers come from ``benchmarks/perf``.
"""

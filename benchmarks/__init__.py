"""Tier-2 paper-reproduction benchmarks (one module per figure/table).

Run them with ``python -m pytest benchmarks/ -q``; each ``bench_*`` module
asserts one of the paper's headline claims against the simulator.

The perf-regression baseline
----------------------------

The tier-1 suite guards *correctness*; the BENCH baseline guards the
*numbers*.  The repo commits ``BENCH_seed.json`` — per-workload runtime,
MFLOPS/W, wire bytes, the LB·Ser·Trf factors, and the binding roofline
ceiling, measured at 4 nodes / 10 GbE by ``repro.insight.baseline``:

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

The host-activity baseline
--------------------------

``BENCH_seed.json`` guards the *simulated* numbers; the committed
``BENCH_HOST.json`` guards the *simulator's own* event accounting.
``python -m repro profile --bench`` measures a fixed workload set with a
``repro.hostprof.HostProfiler`` attached and records (schema 3) only
deterministic counts: events dispatched, process switches, fabric flow
rounds, MPI hops, telemetry spans/samples, and heap/flow high-water
marks.  ``repro profile --check`` compares them **exactly**, so an
unintended change to the event flow fails CI.  Wall time is not recorded
there; bare repeated wall-time numbers come from ``benchmarks/perf``.
Re-run ``--bench`` and commit the diff when a PR intentionally changes
how many events a workload schedules.  See ``docs/TELEMETRY.md`` ("Host
profiling").
"""

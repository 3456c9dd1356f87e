"""Supervised execution: retries, crash recovery, quarantine.

:func:`run_campaign <repro.campaign.runner.run_campaign>` and the figures'
:func:`~repro.bench.runner.prefetch` hand their cold specs, each caller
with its own per-spec work, to a :class:`CampaignSupervisor`, which
drives each one to a terminal outcome instead of letting one worker
exception — or a worker process dying and taking the whole
``ProcessPoolExecutor`` down as a ``BrokenProcessPool`` — abort the batch:

* **ok** — completed on the first attempt;
* **retried** — completed after >= 1 failed attempt (seeded, deterministic
  exponential backoff between attempts, see :func:`_backoff`);
* **quarantined** — a poison spec: every attempt raised inside the worker
  until the retry budget ran out; a campaign completes with a
  ``completed=False`` row naming it, and a figure leaves it cold;
* **lost-worker** — every attempt died with the worker (crash) or hit the
  per-task timeout; same terminal handling as quarantine.

One pool loop supervises every worker.  It keeps ``width`` tasks in
flight (``width`` starts at ``jobs``; one more without a watchdog), so
only tasks that hold a worker accrue watchdog time.  A ``BrokenProcessPool`` cannot name the
culprit (every in-flight future fails at once), so the first break
rebuilds the pool and requeues every in-flight spec uncharged; the
second drops ``width`` to 1, where each further crash is charged to
exactly the one spec in flight.  Hang recovery: with ``task_timeout``
set, a watchdog (driven purely by ``concurrent.futures.wait`` timeouts —
no wall-clock reads in this module, so lint RL001/RL100 stay clean)
kills and rebuilds the pool around a stuck task and retries it like any
other failure.

The result store is a campaign's only record of finished work: rerunning
an interrupted campaign warm-starts every spec that reached the store and
re-runs the rest, quarantined specs included.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.campaign.chaos import ChaosSchedule, apply_chaos
from repro.campaign.spec import RunSpec
from repro.errors import CampaignError, WorkerLostError
from repro.hostprof.clock import Stopwatch

#: Per-spec terminal outcomes (the supervisor's taxonomy).
OUTCOME_OK = "ok"
OUTCOME_RETRIED = "retried"
OUTCOME_QUARANTINED = "quarantined"
OUTCOME_LOST_WORKER = "lost-worker"

#: Outcomes that produced a value.
COMPLETED_OUTCOMES = (OUTCOME_OK, OUTCOME_RETRIED)

#: Retry backoff: the n-th failure (from 0) sleeps
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** n`` seconds, stretched by up to
#: ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25


def _backoff(digest: str, failure: int) -> float:
    """Seconds to back off after *digest*'s *failure*-th failure.

    A pure function of the spec digest and the failure ordinal: two
    campaigns over the same specs sleep the exact same schedule (RL001:
    the jitter RNG is explicitly seeded, never the global Mersenne state).
    """
    base = BACKOFF_BASE * BACKOFF_FACTOR ** failure
    rng = random.Random(f"0:{digest}:{failure}")
    return base * (1.0 + BACKOFF_JITTER * rng.random())


@dataclass
class SpecRecord:
    """One spec's terminal state under supervision."""

    spec: RunSpec
    outcome: str
    attempts: int
    #: What the per-spec work returned (None unless completed).
    value: Any
    cached: bool = False
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.outcome in COMPLETED_OUTCOMES


def _campaign_worker(
    work: Callable[[RunSpec], Any], spec: RunSpec, attempt: int,
    chaos: ChaosSchedule | None, timed: bool,
) -> tuple[Any, int, float | None]:
    """Pool entry point: ``work(spec)``'s value, the pid, the busy time.

    The busy time is measured only when *timed* (the campaign carries a
    host recorder; the read stays inside the Stopwatch instance).
    """
    if chaos is not None:
        apply_chaos(chaos, spec.digest, attempt, in_worker=True)
    stopwatch = Stopwatch() if timed else None
    value = work(spec)
    busy = stopwatch.elapsed() if stopwatch is not None else None
    return value, os.getpid(), busy


class CampaignSupervisor:
    """Drive a set of cold specs to terminal outcomes, surviving workers.

    *work* runs one spec and returns its value: a picklable callable (a
    module-level function or a ``functools.partial`` of one).

    The watchdog never reads a clock: elapsed time is accounted in
    ``wait(timeout=tick)`` rounds that returned nothing, which
    *undercounts* while healthy work is still completing — a hung worker
    is therefore detected at the latest once healthy work drains plus one
    ``task_timeout``.  Conservative, deterministic in structure, and
    RL001-clean.  Arguments are validated by ``run_campaign``.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        work: Callable[[RunSpec], Any],
        jobs: int = 1,
        retries: int = 2,
        task_timeout: float | None = None,
        chaos: ChaosSchedule | None = None,
        sleep: Callable[[float], None] | None = None,
        host: Any | None = None,
        progress: Callable[[SpecRecord], None] | None = None,
    ) -> None:
        self.specs = list(specs)
        self.work = work
        self.jobs = jobs
        self.retries = retries
        self.task_timeout = task_timeout
        self.chaos = chaos
        #: Optional CampaignHostRecorder; purely observational (advisory
        #: host timings — never steers scheduling or results).
        self.host = host
        #: Optional per-terminal-record callback (--progress, prefetch).
        self.progress = progress
        self.sleep = sleep if sleep is not None else time.sleep
        self.records: dict[str, SpecRecord] = {}
        self.pids: set[int] = set()
        self.counters = {
            "retries": 0,
            "quarantined": 0,
            "lost_workers": 0,
            "pool_rebuilds": 0,
            "timeouts": 0,
        }
        self._failures: dict[str, int] = {}
        self._tick = min(0.1, task_timeout / 4) if task_timeout else None

    # -- shared bookkeeping ----------------------------------------------------

    def _attempts(self, digest: str) -> int:
        return self._failures.get(digest, 0)

    def _finalize(self, record: SpecRecord) -> None:
        self.records[record.spec.digest] = record
        # Both terminal failure outcomes count as quarantines: the spec is
        # out of the campaign either way; the row keeps the finer taxonomy.
        if record.outcome in (OUTCOME_QUARANTINED, OUTCOME_LOST_WORKER):
            self.counters["quarantined"] += 1
        if self.progress is not None:
            self.progress(record)

    def _succeeded(self, spec: RunSpec, value: Any) -> None:
        failures = self._attempts(spec.digest)
        self._finalize(SpecRecord(
            spec=spec,
            outcome=OUTCOME_OK if failures == 0 else OUTCOME_RETRIED,
            attempts=failures + 1,
            value=value,
        ))

    def _failed(
        self, spec: RunSpec, error: str, lost: bool
    ) -> bool:
        """Record one attributed failed attempt; True when spec is spent."""
        digest = spec.digest
        self._failures[digest] = self._attempts(digest) + 1
        if self._failures[digest] > self.retries:
            self._finalize(SpecRecord(
                spec=spec,
                outcome=OUTCOME_LOST_WORKER if lost else OUTCOME_QUARANTINED,
                attempts=self._failures[digest],
                value=None,
                error=error,
            ))
            return True
        self.counters["retries"] += 1
        self.sleep(_backoff(digest, self._failures[digest] - 1))
        return False

    # -- serial execution ------------------------------------------------------

    def _execute_serial(self, spec: RunSpec) -> None:
        while True:
            attempt = self._attempts(spec.digest)
            if self.host is not None:
                self.host.spec_submitted(spec.digest, spec.label)
            try:
                if self.chaos is not None:
                    apply_chaos(
                        self.chaos, spec.digest, attempt, in_worker=False
                    )
                value = self.work(spec)
            except Exception as exc:  # deterministic sim errors + chaos
                if self._failed(spec, f"{type(exc).__name__}: {exc}", False):
                    return
            else:
                self.pids.add(os.getpid())
                if self.host is not None:
                    self.host.spec_done(spec.digest, os.getpid())
                self._succeeded(spec, value)
                return

    # -- pool execution --------------------------------------------------------

    def _terminate_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on its (possibly hung) tasks."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(self, specs: list[RunSpec]) -> None:
        """Run *specs* in worker processes, ``width`` (+1) in flight.

        Without a watchdog (which charges every submitted task) one more
        task waits while ``width > 1``, so a freed worker starts at once
        instead of waiting for this loop to unpickle its result.
        """
        queue: deque[RunSpec] = deque(specs)
        width = self.jobs
        ahead = 1 if self.task_timeout is None else 0
        breaks = 0
        pool: ProcessPoolExecutor | None = None
        #: In-flight futures, in submission order, and their watchdog time.
        futures: dict[Any, RunSpec] = {}
        waited: dict[Any, float] = {}
        #: Values back from workers, recorded once the freed ones refilled.
        finished: list[tuple[RunSpec, Any]] = []
        try:
            while queue or futures:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(width, len(queue))
                    )
                broken = False
                lost: list[RunSpec] = []
                window = width + ahead if width > 1 else width
                while queue and len(futures) < window:
                    spec = queue.popleft()
                    try:
                        future = pool.submit(
                            _campaign_worker, self.work, spec,
                            self._attempts(spec.digest), self.chaos,
                            self.host is not None,
                        )
                    except BrokenProcessPool:
                        # The pool died while we were still feeding it.
                        queue.appendleft(spec)
                        broken = True
                        break
                    if self.host is not None:
                        self.host.spec_submitted(spec.digest, spec.label)
                    futures[future] = spec
                    waited[future] = 0.0
                for spec, value in finished:
                    self._succeeded(spec, value)
                finished.clear()
                if not broken:
                    done, not_done = wait(
                        list(futures), timeout=self._tick,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # A full tick elapsed with nothing finishing: charge
                        # it to every running task and fire the watchdog.
                        hung = []
                        for future in not_done:
                            waited[future] += self._tick
                            if waited[future] >= self.task_timeout:
                                hung.append(future)
                        if hung:
                            self._handle_hang(hung, futures, queue)
                            self._terminate_pool(pool)
                            pool = None
                            futures.clear()
                            waited.clear()
                            self.counters["pool_rebuilds"] += 1
                        continue
                    for future in [f for f in futures if f in done]:
                        spec = futures.pop(future)
                        del waited[future]
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken = True
                            lost.append(spec)
                        except Exception as exc:  # raised inside the worker
                            if not self._failed(
                                spec, f"{type(exc).__name__}: {exc}", False
                            ):
                                queue.append(spec)
                        else:
                            value, pid, busy = outcome
                            self.pids.add(pid)
                            if self.host is not None:
                                self.host.spec_done(spec.digest, pid, busy)
                            finished.append((spec, value))
                if broken:
                    # The pool is gone and every in-flight spec with it.
                    lost.extend(futures.values())
                    futures.clear()
                    waited.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    self.counters["lost_workers"] += 1
                    self.counters["pool_rebuilds"] += 1
                    if width == 1:
                        # One spec in flight: the crash is exactly its own.
                        for spec in lost:
                            if not self._failed(
                                spec,
                                "WorkerLostError: worker process died "
                                "(BrokenProcessPool)",
                                True,
                            ):
                                queue.append(spec)
                    else:
                        # The culprit is anonymous: the first break is
                        # forgiven; a second means a crasher is loose, so
                        # narrow to one task in flight to name it.
                        queue.extend(lost)
                        breaks += 1
                        if breaks == 2:
                            width = 1
            for spec, value in finished:
                self._succeeded(spec, value)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _handle_hang(
        self,
        hung: list[Any],
        futures: dict[Any, RunSpec],
        queue: deque[RunSpec],
    ) -> None:
        """Classify timed-out tasks; requeue innocents caught in the cull."""
        hung_set = set(hung)
        for future, spec in list(futures.items()):
            if future in hung_set:
                self.counters["timeouts"] += 1
                self.counters["lost_workers"] += 1
                if not self._failed(
                    spec,
                    f"WorkerLostError: task exceeded "
                    f"{self.task_timeout}s timeout",
                    True,
                ):
                    queue.append(spec)
            else:
                # Innocent bystander: the pool around it is being torn
                # down.  Resubmit without charging its retry budget.
                queue.append(spec)

    # -- entry point -----------------------------------------------------------

    def run(self) -> dict[str, SpecRecord]:
        """Drive every spec to a terminal record (never raises per-spec).

        With ``jobs > 1`` every spec runs in the pool (so ``task_timeout``
        always has a worker to cull); otherwise they run serially.
        """
        if self.jobs > 1:
            self._run_pool(self.specs)
        else:
            for spec in self.specs:
                self._execute_serial(spec)
        return self.records


# Re-exported for error-taxonomy completeness (callers catch CampaignError).
__all__ = [
    "COMPLETED_OUTCOMES",
    "CampaignError",
    "CampaignSupervisor",
    "OUTCOME_LOST_WORKER",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "OUTCOME_RETRIED",
    "SpecRecord",
    "WorkerLostError",
]

"""Deterministic chaos injection for supervised campaigns.

The same philosophy as :mod:`repro.faults`, lifted one layer up: the
fault schedule is *pure data*, derived once from an explicit seed, and
every sabotage decision is a deterministic function of ``(spec digest,
attempt number)`` — so a chaos campaign is exactly reproducible, and a
*transient* fault (sabotaged attempts 0..k-1, clean afterwards) provably
converges to the fault-free result under the supervisor's retries.

Three worker-side fault kinds plus one store-side kind:

* ``crash`` — the worker process dies mid-task (``os._exit``), which the
  parent observes as a ``BrokenProcessPool``;
* ``hang``  — the worker stalls for ``hang_seconds`` before failing the
  attempt (long enough for the supervisor's ``--task-timeout`` watchdog
  to fire first; the trailing failure keeps timeout-less campaigns from
  deadlocking);
* ``fail``  — the worker raises :class:`ChaosInjectedError` in-task (the
  only kind applied verbatim in serial campaigns, where crashing or
  hanging would take the campaign process down with it);
* ``corrupt`` — a named spec's store entry is vandalized *before* the
  campaign starts, exercising the store's checksum-repair path.

A sabotage budget of ``-1`` means "every attempt" — that spec is a
poison spec and must end quarantined, not retried forever.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import CampaignError, ConfigurationError

#: Worker-side fault kinds, in the order schedules are drawn.
CHAOS_KINDS = ("crash", "hang", "fail")


class ChaosInjectedError(CampaignError):
    """The failure a ``fail`` injection raises inside the worker."""


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, declarative assignment of faults to spec digests.

    ``crash``/``hang``/``fail`` map a digest to its sabotage budget: the
    number of leading attempts to sabotage (``-1`` = all of them).
    ``corrupt`` names digests whose store entries are vandalized before
    the campaign begins.
    """

    seed: int = 0
    crash: Mapping[str, int] = field(default_factory=dict)
    hang: Mapping[str, int] = field(default_factory=dict)
    fail: Mapping[str, int] = field(default_factory=dict)
    corrupt: tuple[str, ...] = ()
    #: How long a ``hang`` stalls the worker (real seconds).
    hang_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )
        for kind in CHAOS_KINDS:
            for digest, budget in getattr(self, kind).items():
                if not isinstance(budget, int) or budget == 0 or budget < -1:
                    raise ConfigurationError(
                        f"chaos {kind} budget for {digest} must be a "
                        f"positive attempt count or -1 (always), "
                        f"got {budget!r}"
                    )

    @classmethod
    def plan(
        cls,
        specs: Sequence[Any],
        seed: int = 0,
        crashes: int = 1,
        hangs: int = 1,
        failures: int = 1,
        poison: int = 0,
        corrupt: int = 1,
        hang_seconds: float = 4.0,
    ) -> "ChaosSchedule":
        """Draw a victim assignment over *specs* from a seeded stream.

        Each worker-side fault claims a distinct victim (transient: one
        sabotaged attempt, except ``poison`` victims which fail forever);
        ``corrupt`` victims are drawn independently — corrupting a warm
        entry for a spec that also crashes once is a legitimate pile-up.
        """
        digests = [spec.digest for spec in specs]
        wanted = crashes + hangs + failures + poison
        if wanted > len(digests):
            raise ConfigurationError(
                f"chaos plan wants {wanted} worker-fault victims but the "
                f"campaign has only {len(digests)} specs"
            )
        if min(crashes, hangs, failures, poison, corrupt) < 0:
            raise ConfigurationError("chaos fault counts must be >= 0")
        rng = random.Random(seed)
        pool = list(digests)
        rng.shuffle(pool)
        take = lambda n: [pool.pop() for _ in range(n)]  # noqa: E731
        crash = {digest: 1 for digest in take(crashes)}
        hang = {digest: 1 for digest in take(hangs)}
        fail = {digest: 1 for digest in take(failures)}
        fail.update({digest: -1 for digest in take(poison)})
        corrupted = tuple(
            sorted(rng.sample(digests, min(corrupt, len(digests))))
        )
        return cls(
            seed=seed,
            crash=crash,
            hang=hang,
            fail=fail,
            corrupt=corrupted,
            hang_seconds=hang_seconds,
        )

    def action(self, digest: str, attempt: int) -> str | None:
        """The sabotage (if any) for *digest*'s *attempt*-th execution."""
        for kind in CHAOS_KINDS:
            budget = getattr(self, kind).get(digest)
            if budget is not None and (budget < 0 or attempt < budget):
                return kind
        return None

    def poison_digests(self) -> tuple[str, ...]:
        """Digests sabotaged on every attempt (must end quarantined)."""
        return tuple(sorted(
            digest
            for kind in CHAOS_KINDS
            for digest, budget in getattr(self, kind).items()
            if budget < 0
        ))

    # -- JSON form -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "crash": dict(self.crash),
            "hang": dict(self.hang),
            "fail": dict(self.fail),
            "corrupt": list(self.corrupt),
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ChaosSchedule":
        return cls(
            seed=document.get("seed", 0),
            crash=dict(document.get("crash", {})),
            hang=dict(document.get("hang", {})),
            fail=dict(document.get("fail", {})),
            corrupt=tuple(document.get("corrupt", ())),
            hang_seconds=document.get("hang_seconds", 4.0),
        )


def apply_chaos(
    schedule: ChaosSchedule, digest: str, attempt: int, in_worker: bool
) -> None:
    """Execute the sabotage scheduled for (*digest*, *attempt*), if any.

    Called at the top of every task execution.  ``in_worker=False``
    (serial campaigns) downgrades ``crash``/``hang`` to ``fail`` — the
    campaign process cannot survive killing or stalling itself, and a
    downgraded fault still exercises the same retry/quarantine path.
    """
    action = schedule.action(digest, attempt)
    if action is None:
        return
    if action == "crash" and in_worker:
        os._exit(13)  # simulate a segfaulting worker: no cleanup, no excuse
    if action == "hang" and in_worker:
        time.sleep(schedule.hang_seconds)
    raise ChaosInjectedError(
        f"chaos-injected {action} for spec {digest[:12]} attempt {attempt}"
    )


def corrupt_store_entry(store: Any, kind: str, digest: str) -> bool:
    """Vandalize the stored entry for (*kind*, *digest*), if present.

    The damage leaves the JSON well-formed but flips the payload under
    the recorded checksum — exactly the corruption class only the
    checksum (not the JSON parser) can catch.  Returns True when an
    entry was corrupted.
    """
    path = store.entry_path(kind, digest)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    document["payload"] = {"chaos": "vandalized payload"}
    path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
    return True

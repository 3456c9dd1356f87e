"""Tests for supervised campaign execution: retry backoff, chaos
injection, worker-crash recovery, hung-task culling, poison-spec
quarantine, restarting from the store, and the self-healing result store
(checksums, degraded puts, sharded layout)."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.runner import clear_cache
from repro.campaign import (
    ChaosSchedule,
    ResultStore,
    RunSpec,
    SpecQuarantinedError,
    build_campaign,
    corrupt_store_entry,
    format_campaign_table,
    payload_checksum,
    run_campaign,
)
from repro.campaign.chaos import ChaosInjectedError, apply_chaos
from repro.campaign.supervisor import _backoff
from repro.errors import ConfigurationError

JACOBI_SMALL = {"n": 64, "iterations": 2}


@pytest.fixture(autouse=True)
def _fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


def _specs(nodes=(2, 3)):
    return build_campaign(
        ["jacobi"], nodes=nodes, workload_kwargs={"jacobi": JACOBI_SMALL}
    )


# -- retry backoff ----------------------------------------------------------------


def test_retry_policy_delays_are_deterministic_and_bounded():
    for failure in range(4):
        delay = _backoff("abcd", failure)
        assert delay == _backoff("abcd", failure)  # pure function
        base = 0.05 * 2.0 ** failure
        assert base <= delay <= base * 1.25
    # Different specs jitter differently.
    assert _backoff("abcd", 0) != _backoff("efgh", 0)
    # The schedule is pinned: these are the seed-0 jittered delays.
    assert [_backoff("abcd", failure) for failure in range(4)] == [
        0.05421039226407331,
        0.11428143097449883,
        0.24222626524605106,
        0.41887426994108784,
    ]


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError, match="retries"):
        run_campaign(_specs(), store=None, retries=-1)


# -- chaos schedules --------------------------------------------------------------


def test_chaos_plan_is_seed_deterministic():
    specs = _specs(nodes=(2, 3, 4, 5))
    one = ChaosSchedule.plan(specs, seed=7)
    two = ChaosSchedule.plan(specs, seed=7)
    assert one == two
    assert ChaosSchedule.plan(specs, seed=8) != one
    # Worker-fault victims are distinct specs.
    victims = list(one.crash) + list(one.hang) + list(one.fail)
    assert len(victims) == len(set(victims)) == 3


def test_chaos_plan_rejects_more_victims_than_specs():
    with pytest.raises(ConfigurationError, match="victims"):
        ChaosSchedule.plan(_specs(), seed=0)  # 3 faults, 2 specs


def test_chaos_schedule_round_trips_and_budgets():
    schedule = ChaosSchedule(seed=1, crash={"aa": 1}, fail={"bb": -1},
                             corrupt=("cc",), hang_seconds=2.0)
    assert ChaosSchedule.from_dict(schedule.to_dict()) == schedule
    assert schedule.action("aa", 0) == "crash"
    assert schedule.action("aa", 1) is None  # budget spent
    assert schedule.action("bb", 99) == "fail"  # -1 = every attempt
    assert schedule.action("zz", 0) is None
    assert schedule.poison_digests() == ("bb",)
    with pytest.raises(ConfigurationError, match="budget"):
        ChaosSchedule(crash={"aa": 0})


def test_apply_chaos_downgrades_worker_faults_in_serial():
    schedule = ChaosSchedule(crash={"aa": 1}, hang={"bb": 1})
    # Serial campaigns must not kill or stall their own process: both
    # worker-side faults degrade to an in-task failure.
    with pytest.raises(ChaosInjectedError):
        apply_chaos(schedule, "aa", 0, in_worker=False)
    with pytest.raises(ChaosInjectedError):
        apply_chaos(schedule, "bb", 0, in_worker=False)
    apply_chaos(schedule, "aa", 1, in_worker=False)  # budget spent: no-op


# -- serial supervision -----------------------------------------------------------


def test_transient_failure_retries_to_identical_table():
    specs = _specs()
    clean = run_campaign(specs, store=None)
    victim = specs[0].digest
    delays = []
    chaos = ChaosSchedule(fail={victim: 1})
    result = run_campaign(specs, store=None, chaos=chaos,
                          sleep=delays.append)
    assert format_campaign_table(result) == format_campaign_table(clean)
    row = result.rows[0]
    assert row.outcome == "retried" and row.attempts == 2 and row.completed
    assert result.rows[1].outcome == "ok"
    assert result.retried == 1 and result.quarantined == 0
    assert delays == [_backoff(victim, 0)]  # seeded backoff


def test_poison_spec_quarantined_campaign_completes():
    specs = _specs(nodes=(2, 3, 4))
    poison = specs[1].digest
    chaos = ChaosSchedule(fail={poison: -1})
    result = run_campaign(specs, store=None, retries=2, chaos=chaos,
                          sleep=lambda _: None)
    row = result.rows[1]
    assert not row.completed
    assert row.outcome == "quarantined" and row.attempts == 3
    assert "ChaosInjectedError" in row.error
    assert result.rows[0].completed and result.rows[2].completed
    assert result.quarantined == 1 and result.retried == 2
    with pytest.raises(SpecQuarantinedError, match="1 of 3"):
        result.raise_for_failures()


def test_campaign_counters_cover_recovery(tmp_path):
    from repro.telemetry import to_prometheus_text

    specs = _specs()
    chaos = ChaosSchedule(fail={specs[0].digest: 1})
    result = run_campaign(specs, store=None, chaos=chaos,
                          sleep=lambda _: None)
    text = to_prometheus_text(result.registry)
    assert "campaign_retries_total 1" in text
    assert "campaign_quarantined_total 0" in text
    assert "campaign_lost_workers_total 0" in text


# -- pool supervision -------------------------------------------------------------


def test_worker_crash_recovers_to_identical_table():
    specs = _specs(nodes=(2, 3, 4))
    clean = run_campaign(specs, store=None)
    chaos = ChaosSchedule(crash={specs[1].digest: 1})
    result = run_campaign(specs, jobs=2, store=None, retries=3, chaos=chaos)
    assert format_campaign_table(result) == format_campaign_table(clean)
    assert all(row.completed for row in result.rows)
    assert result.lost_workers > 0 and result.pool_rebuilds > 0


def test_hung_worker_culled_and_spec_retried():
    specs = _specs()
    clean = run_campaign(specs, store=None)
    # The hang sleeps far longer than the watchdog budget, so the worker
    # is culled, the spec charged, and the retry runs clean.
    chaos = ChaosSchedule(hang={specs[0].digest: 1}, hang_seconds=30.0)
    result = run_campaign(specs, jobs=2, store=None, retries=3,
                          task_timeout=3.0, chaos=chaos)
    assert format_campaign_table(result) == format_campaign_table(clean)
    assert all(row.completed for row in result.rows)
    assert result.timeouts >= 1 and result.lost_workers >= 1


def test_always_crashing_spec_isolated_and_reported():
    specs = _specs(nodes=(2, 3, 4))
    chaos = ChaosSchedule(crash={specs[2].digest: -1})
    result = run_campaign(specs, jobs=2, store=None, retries=1, chaos=chaos)
    assert result.rows[0].completed and result.rows[1].completed
    row = result.rows[2]
    assert not row.completed
    assert row.outcome == "lost-worker"
    assert "WorkerLostError" in row.error
    assert result.quarantined == 1  # terminal outcome counts as quarantine


def test_task_timeout_validation():
    with pytest.raises(ConfigurationError, match="task_timeout"):
        run_campaign(_specs(), store=None, task_timeout=0)


def test_watchdog_charges_only_specs_holding_a_worker():
    # Two hung specs occupy both workers; the two behind them have not
    # started, so the watchdog must not charge them.
    specs = _specs(nodes=(2, 3, 4, 5))
    clean = run_campaign(specs, store=None)
    chaos = ChaosSchedule(hang={specs[0].digest: 1, specs[1].digest: 1},
                          hang_seconds=30.0)
    result = run_campaign(specs, jobs=2, store=None, retries=0,
                          task_timeout=3.0, chaos=chaos)
    assert result.timeouts == 2
    assert [row.outcome for row in result.rows[:2]] == ["lost-worker"] * 2
    assert result.rows[2].completed and result.rows[3].completed
    clean_lines = format_campaign_table(clean).splitlines()
    assert format_campaign_table(result).splitlines()[4:] == clean_lines[4:]


def test_task_timeout_culls_a_one_spec_campaign():
    specs = _specs(nodes=(2,))
    chaos = ChaosSchedule(hang={specs[0].digest: 1}, hang_seconds=30.0)
    result = run_campaign(specs, jobs=2, store=None, retries=1,
                          task_timeout=3.0, chaos=chaos)
    assert result.timeouts == 1
    assert result.rows[0].outcome == "retried"
    # A serial campaign has no worker to cull, so the pairing is refused.
    with pytest.raises(ConfigurationError, match="jobs > 1"):
        run_campaign(specs, jobs=1, store=None, task_timeout=3.0)


# -- restarting from the store ----------------------------------------------------


def test_restart_warm_starts_from_the_store(tmp_path):
    store = ResultStore(tmp_path / "restart-store")
    specs = _specs(nodes=(2, 3, 4, 5))
    full = run_campaign(specs, store=store)
    # Simulate a mid-campaign kill: only the first spec reached the store.
    for spec in specs[1:]:
        store.entry_path("run", spec.digest).unlink()
    clear_cache()
    again = run_campaign(specs, store=store)
    assert again.cache_hits == 1 and again.cache_misses == 3
    assert format_campaign_table(again) == format_campaign_table(full)


def test_quarantined_spec_is_retried_by_the_next_run(tmp_path):
    store = ResultStore(tmp_path / "s")
    specs = _specs()
    chaos = ChaosSchedule(fail={specs[0].digest: -1})
    first = run_campaign(specs, store=store, retries=0, chaos=chaos,
                         sleep=lambda _: None)
    assert first.rows[0].outcome == "quarantined"
    # Nothing remembers the verdict: the next run gives it a fresh trial.
    clear_cache()
    second = run_campaign(specs, store=store)
    assert second.rows[0].outcome == "ok" and second.rows[0].completed
    assert second.cache_hits == 1 and second.cache_misses == 1


# -- the self-healing store -------------------------------------------------------


def test_checksum_catches_well_formed_corruption(tmp_path, capsys):
    store = ResultStore(tmp_path / "s")
    store.put("run", "abcd", "fp", {"x": 1.25})
    assert corrupt_store_entry(store, "run", "abcd")
    # The vandalized entry is valid JSON with a valid schema — only the
    # checksum can catch it.  Detection deletes the file (self-healing).
    assert store.get("run", "abcd", "fp") is None
    assert store.corrupt_repaired == 1
    assert not store.entry_path("run", "abcd").exists()
    assert "checksum mismatch" in capsys.readouterr().err
    # The slot heals on the next put.
    store.put("run", "abcd", "fp", {"x": 1.25})
    assert store.get("run", "abcd", "fp") == {"x": 1.25}


def test_campaign_reruns_corrupted_entry(tmp_path):
    store = ResultStore(tmp_path / "s")
    specs = _specs()
    cold = run_campaign(specs, store=store)
    chaos = ChaosSchedule(corrupt=(specs[0].digest,))
    clear_cache()
    warm = run_campaign(specs, store=store, chaos=chaos)
    assert warm.store_repairs == 1
    assert warm.cache_hits == 1 and warm.cache_misses == 1
    assert format_campaign_table(warm) == format_campaign_table(cold)


def test_put_degrades_gracefully_when_disk_refuses(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    # The store root lives *under a plain file*, so every mkdir fails —
    # the same OSError class a full or read-only disk raises.
    store = ResultStore(blocker / "store")
    assert store.put("run", "abcd", "fp", {"x": 1}) is None
    assert store.put("run", "abce", "fp", {"x": 2}) is None
    assert store.put_errors == 2
    err = capsys.readouterr().err
    assert err.count("degraded") == 1  # advisory prints once, not per put
    # And a campaign over a degraded store still completes.
    result = run_campaign(_specs(), store=store)
    assert all(row.completed for row in result.rows)


def test_sharded_layout_and_legacy_flat_read(tmp_path):
    store = ResultStore(tmp_path / "s")
    path = store.put("run", "abcdef", "fp", {"x": 1})
    assert path.parent.name == "ab"  # digest-prefix shard
    # A well-formed entry at the pre-shard flat path is not read: that
    # layout never held a current-schema entry.
    payload = {"y": 2}
    flat = store.root / "run-999888.json"
    flat.write_text(json.dumps({
        "schema": 2, "fingerprint": "fp", "kind": "run",
        "digest": "999888", "checksum": payload_checksum(payload),
        "payload": payload,
    }), encoding="utf-8")
    assert store.get("run", "999888", "fp") is None


def test_store_rejects_path_escaping_addresses(tmp_path):
    store = ResultStore(tmp_path / "s")
    with pytest.raises(ConfigurationError, match="kind"):
        store.put("../evil", "abcd", "fp", {})
    with pytest.raises(ConfigurationError, match="digest"):
        store.get("run", "../../etc", "fp")


# -- worker wire format -----------------------------------------------------------


def test_spec_from_dict_names_missing_keys():
    spec = _specs()[0]
    document = spec.to_dict()
    del document["network"]
    with pytest.raises(ConfigurationError, match="'network'"):
        RunSpec.from_dict(document)


def test_acceptance_crash_hang_poison_and_corruption(tmp_path):
    """The ISSUE acceptance scenario: one worker crash, one hung worker,
    one poison spec, one corrupted store entry — the campaign completes,
    quarantines exactly the poison spec, and the healthy rows are
    byte-identical to a fault-free run."""
    specs = _specs(nodes=(2, 3, 4, 5))
    clean = run_campaign(specs, store=None)
    clean_lines = format_campaign_table(clean).splitlines()

    store = ResultStore(tmp_path / "acceptance")
    seeded = specs[2]
    from repro.bench.runner import run_spec
    from repro.campaign.serialize import run_to_payload

    store.put("run", seeded.digest, seeded.fingerprint,
              run_to_payload(run_spec(seeded, use_cache=False)))
    chaos = ChaosSchedule(
        crash={specs[0].digest: 1},
        hang={specs[1].digest: 1},
        fail={specs[3].digest: -1},
        corrupt=(seeded.digest,),
        hang_seconds=30.0,
    )
    clear_cache()
    result = run_campaign(specs, jobs=2, store=store, retries=2,
                          task_timeout=3.0, chaos=chaos)
    assert result.store_repairs == 1  # the seeded entry was vandalized
    rows = result.rows
    assert rows[0].completed and rows[1].completed and rows[2].completed
    assert not rows[3].completed  # the poison spec, quarantined by name
    assert rows[3].outcome == "quarantined"
    assert result.quarantined == 1
    assert result.lost_workers >= 2  # the crash and the hang
    faulted_lines = format_campaign_table(result).splitlines()
    # Healthy rows (header + rows 0..2) match the fault-free run exactly.
    assert faulted_lines[:5] == clean_lines[:5]
    assert faulted_lines[5].endswith(" NO")

    # And once the poison stops being poisonous, --resume keeps the
    # journaled verdicts; a fresh campaign (no resume) heals the row.
    clear_cache()
    healed = run_campaign(specs, jobs=1, store=store)
    assert format_campaign_table(healed) == format_campaign_table(clean)
    assert healed.cache_hits == 3 and healed.cache_misses == 1

"""Tests for repro.campaign: RunSpec normalization, the two-tier result
cache, and the parallel campaign runner — including regression tests for
the four historical ``run_workload`` cache bugs (key aliasing on resolved
defaults, thunderx phantom dimensions, shared mutable cached state, and
bare TypeErrors on bad kwargs)."""

from __future__ import annotations

import json

import pytest

from repro.bench import runner
from repro.bench.runner import cache_stats, clear_cache, run_spec, run_workload
from repro.campaign import (
    ResultStore,
    RunSpec,
    build_campaign,
    format_campaign_stats,
    format_campaign_table,
    load_campaign_file,
    run_campaign,
    supervisor,
)
from repro.campaign.serialize import (
    result_from_payload,
    run_from_payload,
    run_to_payload,
    summarize_result,
)
from repro.cuda.memory_models import MemoryModel
from repro.errors import ConfigurationError

JACOBI_SMALL = {"n": 64, "iterations": 2}


@pytest.fixture(autouse=True)
def _fresh_caches(tmp_path, monkeypatch):
    """Every test gets an empty memory tier and its own store directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


# -- RunSpec normalization (bugfixes 1, 2, 4) -------------------------------------


def test_default_resolution_aliasing_fixed():
    # Historical bug: omitted defaults and explicit defaults keyed apart.
    implicit = RunSpec.normalize("hpl")
    explicit = RunSpec.normalize(
        "hpl", nodes=16, network="10G", system="tx1",
        ranks_per_node=None, traced=False,
    )
    assert implicit.key == explicit.key
    assert implicit.digest == explicit.digest


def test_workload_kwarg_defaults_resolve_into_key():
    bare = RunSpec.normalize("jacobi", nodes=2)
    spelled = RunSpec.normalize(
        "jacobi", nodes=2, n=8192, iterations=60,
        memory_model=None, gpudirect=False,
    )
    assert bare.key == spelled.key
    different = RunSpec.normalize("jacobi", nodes=2, iterations=61)
    assert different.key != bare.key


def test_run_workload_defaults_share_one_cache_entry():
    run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    run_workload(
        "jacobi", nodes=2, network="10G", system="tx1", ranks_per_node=None,
        traced=False, memory_model=None, gpudirect=False, **JACOBI_SMALL,
    )
    assert cache_stats()["memory_hits"] == 1


def test_thunderx_phantom_dimensions_fixed():
    # Historical bug: `nodes` (ignored by the cluster factory) and
    # `network` still participated in the key — one run, up to 4 keys.
    variants = [
        RunSpec.normalize("ep", system="thunderx", nodes=nodes, network=net)
        for nodes in (2, 16) for net in ("1G", "10G")
    ]
    assert len({spec.key for spec in variants}) == 1
    assert variants[0].nodes == 1
    assert variants[0].network == "10G"
    assert variants[0].ranks_per_node == 64


def test_thunderx_one_simulation_for_all_shapes():
    run_workload("ep", system="thunderx", nodes=2, network="1G")
    run_workload("ep", system="thunderx", nodes=16, network="10G")
    assert cache_stats()["memory_hits"] == 1


def test_gtx980_network_canonicalized():
    a = RunSpec.normalize("jacobi", system="gtx980", nodes=2, network="1G")
    b = RunSpec.normalize("jacobi", system="gtx980", nodes=2, network="10G")
    assert a.key == b.key


def test_unhashable_kwargs_raise_taxonomy_error():
    # Historical bug: a dict/set value escaped as a bare TypeError from
    # the tuple-of-items cache key.
    with pytest.raises(ConfigurationError, match="uncacheable type"):
        run_workload("jacobi", nodes=2, memory_model={"zero": "copy"})
    with pytest.raises(ConfigurationError, match="uncacheable type"):
        RunSpec.normalize("jacobi", iterations={1, 2})


def test_unknown_network_lists_choices():
    with pytest.raises(ConfigurationError, match=r"known networks: 1G, 10G"):
        run_workload("jacobi", nodes=2, network="40G")


def test_unknown_workload_parameter_lists_known():
    with pytest.raises(ConfigurationError, match="known parameters:.*iterations"):
        RunSpec.normalize("jacobi", itertions=5)


def test_npb_kwargs_rejected_not_dropped():
    # Historical aliasing: NPB factories silently dropped kwargs, so
    # distinct-looking keys mapped onto identical runs.
    with pytest.raises(ConfigurationError, match="accepts no parameters"):
        RunSpec.normalize("ep", iterations=5)


def test_preset_parameters_cannot_be_overridden():
    from repro.workloads import gpgpu_workload

    with pytest.raises(ConfigurationError, match="fixes parameter"):
        gpgpu_workload("alexnet", network="googlenet")
    # Tag-equal values are tolerated (resolved kwargs round-trip through
    # the factory carrying the preset).
    assert gpgpu_workload("alexnet", network="alexnet").name == "alexnet"


def test_invalid_nodes_and_rpn_rejected():
    with pytest.raises(ConfigurationError, match="nodes"):
        RunSpec.normalize("jacobi", nodes=0)
    with pytest.raises(ConfigurationError, match="ranks_per_node"):
        RunSpec.normalize("jacobi", ranks_per_node=-1)


def test_memory_model_enum_and_string_are_one_revivable_spec():
    from repro.campaign.spec import build_workload

    enum = RunSpec.normalize("jacobi", nodes=2, memory_model=MemoryModel.ZERO_COPY)
    text = RunSpec.normalize("jacobi", nodes=2, memory_model="zero-copy")
    assert enum.key == text.key and enum.digest == text.digest
    clone = RunSpec.from_dict(json.loads(json.dumps(enum.to_dict())))
    workload = build_workload(clone.name, clone.constructor_kwargs())
    assert workload.memory_model is MemoryModel.ZERO_COPY
    # An explicit host-device model still keys apart from the default.
    explicit = RunSpec.normalize(
        "jacobi", nodes=2, memory_model=MemoryModel.HOST_DEVICE
    )
    assert explicit.key != RunSpec.normalize("jacobi", nodes=2).key


def test_memory_model_specs_revive_in_campaigns():
    # Every spec crosses a process boundary: the enum and its canonical
    # string complete serially and in the pool, with the in-process row.
    from repro.campaign.runner import _merge_row

    run = run_workload(
        "jacobi", nodes=2, memory_model=MemoryModel.ZERO_COPY, **JACOBI_SMALL
    )
    for model in (MemoryModel.ZERO_COPY, "zero-copy"):
        spec = RunSpec.normalize(
            "jacobi", nodes=2, memory_model=model, **JACOBI_SMALL
        )
        expected = _merge_row(spec, summarize_result(run.result), cached=False)
        assert expected.binding_level is not None
        for jobs in (1, 2):
            result = run_campaign([spec], jobs=jobs, store=None)
            assert result.rows == [expected], (model, jobs)


def test_non_revivable_gpgpu_row_is_placed():
    # An enum memory-model spec was once non-revivable; it revives now, and
    # its row is still placed without rebuilding the workload.
    from repro.campaign.runner import _merge_row

    spec = RunSpec.normalize("jacobi", nodes=2, memory_model=MemoryModel.ZERO_COPY)
    run = run_workload("jacobi", nodes=2, memory_model=MemoryModel.ZERO_COPY)
    row = _merge_row(spec, summarize_result(run.result), cached=False)
    assert row.binding_level is not None


def test_table3_is_served_from_the_disk_tier(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    from repro.bench.experiments import memory_model_study

    cold = memory_model_study(sizes=(1,))
    clear_cache()  # a fresh process: memory tier gone, disk warm
    warm = memory_model_study(sizes=(1,))
    assert warm == cold
    stats = cache_stats()
    assert stats["disk_hits"] == len(MemoryModel)
    assert stats["disk_misses"] == 0 and stats["memory_hits"] == 0


def test_cli_table3_cold_and_warm_stdout_identical(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    from repro.cli import main

    assert main(["experiment", "table3"]) == 0
    cold = capsys.readouterr().out
    clear_cache()
    assert main(["experiment", "table3"]) == 0
    assert capsys.readouterr().out == cold
    stats = cache_stats()  # two cluster sizes x three models, all on disk
    assert stats["disk_hits"] == 2 * len(MemoryModel)
    assert stats["disk_misses"] == 0


def test_spec_wire_round_trip_preserves_digest():
    spec = RunSpec.normalize("jacobi", nodes=4, traced=True, iterations=3)
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.key == spec.key
    assert clone.digest == spec.digest
    assert clone.fingerprint == spec.fingerprint


# -- shared mutable state (bugfix 3) ----------------------------------------------


def test_cached_runs_do_not_share_mutable_state():
    first = run_workload("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    states = list(first.trace.states)
    # Vandalize everything mutable on the first handle.
    first.result.rank_values.clear()
    first.result.counters.clear()
    first.result.failures[0] = "vandalized"
    first.rank_to_node.append(99)
    # The trace is immutable, so memo snapshots share it.
    with pytest.raises(AttributeError):
        first.trace.states.clear()
    second = run_workload("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    assert second.result.rank_values
    assert second.result.counters
    assert not second.result.failures
    assert states and list(second.trace.states) == states
    assert second.rank_to_node == [0, 1]


def test_op_tables_built_on_snapshots_stay_out_of_the_memory_tier():
    first = run_workload("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    first.trace.op_table()
    second = run_workload("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    assert second.trace.states is first.trace.states
    assert "_op_table" not in vars(second.trace)
    assert not [run for run in runner._cache.values()
                if run.trace is not None and "_op_table" in vars(run.trace)]


def test_cached_runs_get_fresh_clusters():
    first = run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    second = run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    assert first.cluster is not second.cluster
    assert second.cluster.node_count == 2


# -- the persistent store ---------------------------------------------------------


def test_store_round_trip_and_fingerprint_invalidation(tmp_path):
    store = ResultStore(tmp_path / "s")
    store.put("run", "abc", "fp1", {"x": 1.25})
    assert store.get("run", "abc", "fp1") == {"x": 1.25}
    # A moved source fingerprint is a miss, not an error.
    assert store.get("run", "abc", "fp2") is None
    assert store.get("run", "missing", "fp1") is None
    assert store.hits == 1 and store.misses == 2


def test_store_tolerates_corrupt_files(tmp_path):
    store = ResultStore(tmp_path / "s")
    path = store.put("run", "abc", "fp", {"x": 1})
    path.write_text("not json", encoding="utf-8")
    assert store.get("run", "abc", "fp") is None


def test_disk_round_trip_reproduces_run_exactly():
    spec = RunSpec.normalize("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    cold = run_spec(spec, use_cache=False)
    revived = run_from_payload(
        spec, json.loads(json.dumps(run_to_payload(cold)))
    )
    assert revived.result.elapsed_seconds == cold.result.elapsed_seconds
    assert revived.result.energy_joules == cold.result.energy_joules
    assert revived.result.network_bytes == cold.result.network_bytes
    assert revived.result.counters == cold.result.counters
    assert revived.trace.states == cold.trace.states
    assert revived.rank_to_node == cold.rank_to_node
    assert revived.cluster.node_count == cold.cluster.node_count


def test_second_process_would_warm_start_from_disk(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    clear_cache()  # simulate a fresh process: memory tier gone, disk warm
    run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    stats = cache_stats()
    assert stats["disk_hits"] == 1
    assert stats["memory_hits"] == 0


def test_disk_cache_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    clear_cache()
    run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    assert cache_stats()["disk_hits"] == 0


# -- campaigns --------------------------------------------------------------------


def test_build_campaign_dedupes_canonical_grid():
    specs = build_campaign(
        ["ep"], nodes=(2, 4, 8), networks=("1G", "10G"), system="thunderx"
    )
    assert len(specs) == 1  # the whole grid folds onto the one Cavium box


def test_build_campaign_rejects_unmatched_kwargs():
    with pytest.raises(ConfigurationError, match="do not match"):
        build_campaign(["jacobi"], workload_kwargs={"hpl": {}})


@pytest.mark.parametrize("key, value", [("nodes", 2), ("traced", True)])
def test_build_campaign_rejects_spec_settings_in_workload_kwargs(key, value):
    with pytest.raises(ConfigurationError, match=f"'jacobi' cannot set '{key}'"):
        build_campaign(["jacobi"], workload_kwargs={"jacobi": {key: value}})


def test_campaign_serial_parallel_and_warm_tables_identical(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    specs = build_campaign(
        ["jacobi"], nodes=(2, 4), networks=("1G", "10G"),
        workload_kwargs={"jacobi": JACOBI_SMALL},
    )
    parallel_cold = run_campaign(specs, jobs=2)
    assert parallel_cold.cache_misses == len(specs)
    assert parallel_cold.workers_used >= 2
    warm = run_campaign(specs, jobs=1)
    assert warm.cache_hits == len(specs)
    assert warm.cache_misses == 0
    serial_cold = run_campaign(specs, jobs=1, store=None)
    table = format_campaign_table(parallel_cold)
    assert format_campaign_table(warm) == table
    assert format_campaign_table(serial_cold) == table
    assert "jacobi" in table and "10G" in table


def test_campaign_row_order_is_input_order_not_completion_order():
    specs = build_campaign(
        ["jacobi"], nodes=(4, 2), workload_kwargs={"jacobi": JACOBI_SMALL}
    )
    result = run_campaign(specs, jobs=2)
    assert [row.nodes for row in result.rows] == [4, 2]


def test_campaign_counters_exported_through_registry():
    specs = build_campaign(["jacobi"], nodes=(2,),
                           workload_kwargs={"jacobi": JACOBI_SMALL})
    result = run_campaign(specs, jobs=1)
    from repro.telemetry import to_prometheus_text

    text = to_prometheus_text(result.registry)
    assert "campaign_cache_misses_total 1" in text
    assert "campaign_runs_total 1" in text
    stats = format_campaign_stats(result)
    assert "0 hits, 1 misses" in stats


def test_campaign_requires_specs_and_valid_jobs():
    with pytest.raises(ConfigurationError, match="at least one"):
        run_campaign([])
    specs = build_campaign(["jacobi"], workload_kwargs={"jacobi": JACOBI_SMALL})
    with pytest.raises(ConfigurationError, match="jobs"):
        run_campaign(specs, jobs=0)


def test_campaign_file_loading(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({
        "workloads": ["jacobi", "ep"],
        "nodes": [2],
        "networks": ["10G"],
        "workload_kwargs": {"jacobi": JACOBI_SMALL},
    }), encoding="utf-8")
    specs = load_campaign_file(path)
    assert [spec.name for spec in specs] == ["jacobi", "ep"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"workloads": ["jacobi"], "node": [2]}),
                   encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_campaign_file(bad)
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_campaign_file(tmp_path / "nope.json")


def _memory_model_campaign(tmp_path, model):
    path = tmp_path / "memory-model.json"
    path.write_text(json.dumps({
        "workloads": ["jacobi"],
        "nodes": [2],
        "workload_kwargs": {"jacobi": {"memory_model": model, **JACOBI_SMALL}},
    }), encoding="utf-8")
    return path


def test_campaign_file_memory_model_completes(tmp_path):
    specs = load_campaign_file(_memory_model_campaign(tmp_path, "zero-copy"))
    result = run_campaign(specs, jobs=1)
    assert [row.outcome for row in result.rows] == ["ok"]
    assert not result.failed_rows


def test_campaign_file_bad_memory_model_fails_at_load(tmp_path, capsys):
    from repro.cli import main

    path = _memory_model_campaign(tmp_path, "bogus")
    with pytest.raises(ConfigurationError, match="unknown memory model"):
        load_campaign_file(path)
    assert main(["sweep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "repro sweep: unknown memory model 'bogus'; known models: "
        "host-device, zero-copy, unified"
    ]


# -- consumers warm-start ---------------------------------------------------------


def test_bench_baseline_rows_warm_start(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    from repro.campaign.store import default_store
    from repro.insight import collect_baseline

    first = collect_baseline(workloads=("jacobi",), nodes=2)
    store = default_store()
    assert store.hits == 0
    second = collect_baseline(workloads=("jacobi",), nodes=2)
    assert store.hits == 1  # the derived row came back from disk
    assert second == first


def test_cli_sweep_smoke(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    from repro.cli import main

    argv = ["sweep", "--workloads", "jacobi", "--nodes", "2", "--jobs", "2"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache: 0 hits, 1 misses" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache: 1 hits, 0 misses" in warm
    assert cold.splitlines()[:3] == warm.splitlines()[:3]  # identical table


def test_cli_sweep_rejects_conflicting_sources(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "c.json"
    path.write_text('{"workloads": ["jacobi"]}', encoding="utf-8")
    code = main(["sweep", str(path), "--workloads", "jacobi"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


# -- UncacheableRunError fallback (ad-hoc rank values) ----------------------------


def _inject_opaque_rank_value(monkeypatch):
    """Make every simulation return a rank value JSON cannot represent."""
    import repro.bench.runner as bench_runner

    real = bench_runner._simulate

    def patched(spec, telemetry):
        run = real(spec, telemetry)
        run.result.rank_values.append(object())
        return run

    monkeypatch.setattr(bench_runner, "_simulate", patched)


def test_uncacheable_rank_values_fall_back_to_memory_tier(monkeypatch):
    import os
    from pathlib import Path

    from repro.campaign.serialize import UncacheableRunError

    _inject_opaque_rank_value(monkeypatch)
    spec = RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL)
    first = run_spec(spec)
    with pytest.raises(UncacheableRunError, match="rank_values"):
        run_to_payload(first)
    # The failed disk put must not leave a partial entry behind: a later
    # process would otherwise revive a half-written run.
    store_root = Path(os.environ["REPRO_CACHE_DIR"])
    assert not list(store_root.rglob("run-*.json"))
    second = run_spec(spec)
    assert cache_stats()["memory_hits"] == 1  # served from the memory tier
    assert second.result.elapsed_seconds == first.result.elapsed_seconds


def test_uncacheable_runs_still_summarize_identically(monkeypatch):
    _inject_opaque_rank_value(monkeypatch)
    spec = RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL)
    cold = summarize_result(run_spec(spec).result)
    warm = summarize_result(run_spec(spec).result)  # memory-tier hit
    assert warm == cold  # same dict, bit for bit — table rows match
    assert cache_stats()["memory_hits"] == 1


def test_summary_rows_match_between_live_and_serialized_paths():
    run = run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    # Floats repr-round-trip through JSON, so a disk-revived payload
    # produces byte-identical rows to the live run.
    revived = json.loads(json.dumps(run_to_payload(run)))
    assert (
        summarize_result(result_from_payload(revived["result"]))
        == summarize_result(run.result)
    )


def test_disk_revived_run_summarizes_identically(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)  # needs the disk tier
    cold = run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    cold_row = summarize_result(cold.result)
    clear_cache()  # drop the memory tier; keep the disk store
    warm = run_workload("jacobi", nodes=2, **JACOBI_SMALL)
    assert cache_stats()["disk_hits"] == 1
    assert summarize_result(warm.result) == cold_row


# -- campaign-file type validation ------------------------------------------------


def test_campaign_file_rejects_scalar_nodes(tmp_path):
    # Historical bug: {"nodes": 4} sailed through and failed much later
    # as a bare TypeError inside normalization.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workloads": ["jacobi"], "nodes": 4}),
                    encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'nodes'"):
        load_campaign_file(path)


def test_campaign_file_rejects_wrong_item_types(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workloads": ["jacobi"], "nodes": [2, "4"]}),
                    encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'nodes'"):
        load_campaign_file(path)
    path.write_text(json.dumps({"workloads": ["jacobi", 7]}),
                    encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'workloads'"):
        load_campaign_file(path)
    path.write_text(json.dumps({"workloads": ["jacobi"], "nodes": [True]}),
                    encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'nodes'"):
        load_campaign_file(path)


def test_campaign_file_rejects_string_ranks_per_node(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"workloads": ["jacobi"], "ranks_per_node": "2"}),
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="'ranks_per_node'"):
        load_campaign_file(path)


def test_campaign_file_rejects_malformed_workload_kwargs(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"workloads": ["jacobi"], "workload_kwargs": ["n"]}),
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="'workload_kwargs'"):
        load_campaign_file(path)
    path.write_text(
        json.dumps({"workloads": ["jacobi"],
                    "workload_kwargs": {"jacobi": 64}}),
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="workload_kwargs.jacobi"):
        load_campaign_file(path)


def test_campaign_file_json_error_chains_cause(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"workloads": [', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not valid JSON") as info:
        load_campaign_file(path)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


# -- store hygiene: temp droppings ------------------------------------------------


def test_stale_tmp_droppings_collected(tmp_path):
    # Historical bug: clear()/__len__ only globbed *.json, so crashed
    # writers' *.json.tmp.<pid> files accumulated forever.
    store = ResultStore(tmp_path / "s")
    path = store.put("run", "abcd", "fp", {"x": 1})
    dead = path.with_name(f"{path.name}.tmp.999999")
    dead.write_text("{", encoding="utf-8")
    assert len(store) == 1  # droppings never count as entries
    # put() into the same shard opportunistically sweeps dead writers.
    store.put("run", "abce", "fp", {"x": 2})
    assert not dead.exists()
    assert store.tmp_collected == 1


def test_live_writer_tmp_files_survive_put(tmp_path):
    import os

    store = ResultStore(tmp_path / "s")
    path = store.put("run", "abcd", "fp", {"x": 1})
    own = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    own.write_text("{", encoding="utf-8")
    store.put("run", "abce", "fp", {"x": 2})
    assert own.exists()  # an in-flight writer: its os.replace will land
    assert store.tmp_collected == 0
    own.unlink()


def test_clear_collects_entries_and_all_droppings(tmp_path):
    store = ResultStore(tmp_path / "s")
    path = store.put("run", "abcd", "fp", {"x": 1})
    dropping = path.with_name(f"{path.name}.tmp.999999")
    dropping.write_text("{", encoding="utf-8")
    assert store.clear() == 2
    assert len(store) == 0
    assert not dropping.exists()


# -- store: concurrent writers ----------------------------------------------------


def _concurrent_put(task):
    """Worker for the concurrent-put race test (module-level: picklable)."""
    from repro.campaign.store import ResultStore

    root, payload = task
    store = ResultStore(root)
    path = store.put("run", "racedigest", "fp", payload)
    return path is not None


def test_concurrent_puts_same_entry_leave_one_valid_winner(tmp_path):
    from concurrent.futures import ProcessPoolExecutor

    store = ResultStore(tmp_path / "s")
    payload = {"x": 1.25, "rows": [1, 2, 3]}
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(
            _concurrent_put, [(str(store.root), payload)] * 8
        ))
    assert all(outcomes)  # every writer succeeded (atomic os.replace)
    assert len(store) == 1  # one entry, no torn siblings
    assert list(store.root.rglob("*.tmp.*")) == []
    first = store.get("run", "racedigest", "fp")
    assert first == payload
    raw = store.entry_path("run", "racedigest").read_bytes()
    assert raw == store.entry_path("run", "racedigest").read_bytes()


def test_summary_round_trips_loopback():
    spec = RunSpec.normalize("cg", nodes=2)
    run = run_spec(spec, use_cache=False)
    payload = run_to_payload(run)
    summary = summarize_result(result_from_payload(payload["result"]))
    assert summary["network_bytes"] == run.result.network_bytes
    assert payload["result"]["loopback_bytes"] == run.result.loopback_bytes


# -- spec normalization cost ----------------------------------------------------


def test_normalize_walks_constructor_signatures_once_per_class(monkeypatch):
    import inspect

    from repro.campaign import spec as spec_module

    walked = []
    signature = inspect.signature

    def counting(obj, *args, **kwargs):
        walked.append(obj)
        return signature(obj, *args, **kwargs)

    spec_module._constructor_parameters.cache_clear()
    monkeypatch.setattr(inspect, "signature", counting)
    first = RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL)
    assert walked  # the first call walks jacobi's constructors
    once = len(walked)
    again = [RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL) for _ in range(3)]
    assert len(walked) == once
    assert all(spec == first and spec.digest == first.digest for spec in again)


def test_normalize_builds_each_distinct_workload_once(monkeypatch):
    from repro.campaign import spec as spec_module

    built = []
    build = spec_module.build_workload

    def counting(name, kwargs):
        built.append(name)
        return build(name, kwargs)

    spec_module._default_ranks_per_node.cache_clear()
    monkeypatch.setattr(spec_module, "build_workload", counting)
    first = RunSpec.normalize("googlenet", nodes=2)
    again = RunSpec.normalize("googlenet", nodes=2)
    assert built == ["googlenet"] and again == first
    # hpl's default ranks per node depend on its mode, which is in the key.
    gpu = RunSpec.normalize("hpl", nodes=2)
    cpu = RunSpec.normalize("hpl", nodes=2, mode="cpu")
    assert built == ["googlenet", "hpl", "hpl"]
    assert gpu.ranks_per_node != cpu.ranks_per_node
    # A failed build is never remembered: every call raises.
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="images/batch must be positive"):
            RunSpec.normalize("googlenet", nodes=2, batch_size=0)
    assert built == ["googlenet", "hpl", "hpl", "googlenet", "googlenet"]


# -- parallel prefetch ----------------------------------------------------------


def _usable_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(
        runner.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def _small_curve():
    from repro.bench.experiments import _scalability_curves

    return _scalability_curves(("jacobi",), (2, 4), None, **JACOBI_SMALL)[0]


def _small_specs():
    """The six traced runs behind :func:`_small_curve`, by (nodes, network)."""
    return {
        (nodes, network): RunSpec.normalize(
            "jacobi", nodes=nodes, network=network, traced=True, **JACOBI_SMALL)
        for nodes in (1, 2, 4) for network in ("1G", "10G")
    }


def _recording_simulate(monkeypatch):
    """Patch ``runner._simulate`` to list the specs this process simulates.

    A forked worker appends to its own copy of the list, so the list ends
    up naming only the specs simulated here.
    """
    simulate = runner._simulate
    simulated_here = []

    def recording(spec, telemetry):
        simulated_here.append(spec)
        return simulate(spec, telemetry)

    monkeypatch.setattr(runner, "_simulate", recording)
    return simulated_here


def test_prefetch_on_one_cpu_starts_no_pool(monkeypatch):
    _usable_cpus(monkeypatch, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(supervisor, "ProcessPoolExecutor", no_pool)
    specs = [RunSpec.normalize("jacobi", nodes=n, **JACOBI_SMALL) for n in (1, 2)]
    runner.prefetch(specs)
    assert not any(spec.key in runner._cache for spec in specs)
    assert _small_curve().measured_10g  # the body runs every point itself


def test_prefetched_curve_equals_the_serial_one_and_is_stored(monkeypatch):
    _usable_cpus(monkeypatch, 1)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    serial = _small_curve()
    clear_cache()
    monkeypatch.delenv("REPRO_DISK_CACHE")
    _usable_cpus(monkeypatch, 2)
    specs = list(_small_specs().values())
    runner.prefetch(specs)
    assert all(spec.key in runner._cache for spec in specs)
    assert cache_stats()["memory_hits"] == 0
    assert _small_curve() == serial
    assert cache_stats()["memory_hits"] == len(specs)  # the body simulated none
    # Every prefetched run is on disk, as a serial miss would leave it.
    store = runner.default_store()
    for spec in specs:
        stored = store.get("run", spec.digest, spec.fingerprint)
        serial_run = run_spec(spec, use_cache=False)
        assert stored == json.loads(json.dumps(run_to_payload(serial_run)))


def test_prefetch_leaves_a_failed_spec_cold(monkeypatch):
    from repro.bench.experiments import _scalability_curves
    from repro.errors import CudaError

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    # An empty grid fails inside the simulation, in a worker as here.
    bad = RunSpec.normalize("jacobi", nodes=2, n=0, iterations=2)
    good = RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL)
    runner.prefetch([bad, good])
    assert good.key in runner._cache  # the pool ran
    assert bad.key not in runner._cache
    with pytest.raises(CudaError, match="allocation must be positive"):
        run_spec(bad)
    with pytest.raises(CudaError, match="allocation must be positive"):
        _scalability_curves(("jacobi",), (2, 4), None, n=0, iterations=2)


def _what_if_where(spec, run):
    """The figures' per-run replays plus the process that computed them."""
    import os

    from repro.bench.experiments import _what_if

    return os.getpid(), _what_if(spec, run)


def test_prefetch_runs_then_in_the_workers_as_on_one_cpu(monkeypatch):
    import os

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    specs = list(_small_specs().values())
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    serial = runner.prefetch(specs, then=_what_if_where)
    clear_cache()
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    parallel = runner.prefetch(specs, then=_what_if_where)
    assert list(parallel) == list(serial) == specs
    assert {pid for pid, _ in serial.values()} == {os.getpid()}
    # No replay ran here: every value came back from a worker.
    assert os.getpid() not in {pid for pid, _ in parallel.values()}
    assert all(spec.key in runner._cache for spec in specs)
    values = {spec: value for spec, (_, value) in parallel.items()}
    assert values == {spec: value for spec, (_, value) in serial.items()}
    replayed = [spec for spec, value in values.items() if value is not None]
    assert [(spec.nodes, spec.network) for spec in replayed] == [(2, "10G"), (4, "10G")]


def test_what_if_sorts_each_trace_once(monkeypatch):
    import numpy as np

    from repro.bench.experiments import _what_if

    spec = RunSpec.normalize("jacobi", nodes=2, traced=True, **JACOBI_SMALL)
    run = run_spec(spec, use_cache=False)
    sorts = []
    lexsort = np.lexsort

    def counting(keys, *args, **kwargs):
        sorts.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting)
    assert _what_if(spec, run) is not None  # three replays
    # One op-table sort by (rank, start, end), then the message pairing's
    # one sort per side (sends, receives), all shared by the three replays.
    assert sorts == [3, 1, 1]


def _refuse_two_nodes(spec, run):
    from repro.errors import AnalysisError

    if spec.nodes == 2:
        raise AnalysisError("two-node run refused")
    return run.runtime


def test_prefetch_leaves_a_spec_whose_then_raised_cold(monkeypatch):
    from repro.errors import AnalysisError

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    bad = RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL)
    good = RunSpec.normalize("jacobi", nodes=4, **JACOBI_SMALL)
    simulated_here = _recording_simulate(monkeypatch)
    with pytest.raises(AnalysisError, match="two-node run refused"):
        runner.prefetch([bad, good], then=_refuse_two_nodes)
    assert good.key in runner._cache  # the pool ran
    # The worker's run of *bad* was dropped: this process simulated it again.
    assert simulated_here == [bad]
    assert runner.prefetch([good], then=_refuse_two_nodes) == {good: run_spec(good).runtime}


def test_a_dead_prefetch_worker_leaves_no_spec_to_this_process(monkeypatch, tmp_path):
    import os

    _usable_cpus(monkeypatch, 1)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    serial = _small_curve()
    clear_cache()
    _usable_cpus(monkeypatch, 2)
    # Submitted second, largest first: the crash takes down the pool while
    # the other 4-node run is in flight and four runs are still to come.
    victim = _small_specs()[4, "10G"]
    here = os.getpid()
    crashed = tmp_path / "crashed"
    simulate = runner._simulate

    def crash_once(spec, telemetry):
        if spec == victim and os.getpid() != here and not crashed.exists():
            crashed.touch()
            os._exit(13)
        return simulate(spec, telemetry)

    monkeypatch.setattr(runner, "_simulate", crash_once)
    simulated_here = _recording_simulate(monkeypatch)
    assert _small_curve() == serial
    assert crashed.exists()  # one worker died
    # Every run, the victim's retry included, was installed from a worker.
    assert simulated_here == []


def test_fig5_curves_survive_a_crash_a_hang_and_a_poison_spec(monkeypatch):
    from repro.campaign import ChaosSchedule

    _usable_cpus(monkeypatch, 1)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    clean = _small_curve()
    clear_cache()
    _usable_cpus(monkeypatch, 2)
    specs = _small_specs()
    poison = specs[1, "10G"]
    chaos = ChaosSchedule(
        crash={specs[4, "10G"].digest: 1},
        hang={specs[2, "1G"].digest: 1},
        fail={poison.digest: -1},
        hang_seconds=0.5,
    )
    built = []

    def chaotic(*args, **kwargs):
        built.append(supervisor.CampaignSupervisor(*args, chaos=chaos, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "CampaignSupervisor", chaotic)
    simulated_here = _recording_simulate(monkeypatch)
    assert _small_curve() == clean
    [chaotic_run] = built
    records = chaotic_run.records
    assert chaotic_run.counters["lost_workers"] >= 1
    assert records[specs[4, "10G"].digest].outcome == "retried"  # the crash
    assert records[specs[2, "1G"].digest].outcome == "retried"  # the hang
    assert records[poison.digest].outcome == "quarantined"
    # The quarantined spec stayed cold, so the curve body simulated it here.
    assert simulated_here == [poison]


# -- catalog hardware overrides -------------------------------------------------


def _half_nic() -> dict[str, float]:
    from repro.hardware import catalog

    return {"nic.achievable_rate": catalog.XGBE_PCIE.achievable_rate / 2}


def _nic_rate(spec, run):
    return run.cluster.spec.nic.achievable_rate


def test_hardware_override_reaches_the_cluster_on_every_path(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    rate = _half_nic()["nic.achievable_rate"]
    spec = RunSpec.normalize("jacobi", nodes=2, hardware=_half_nic(), **JACOBI_SMALL)
    plain = run_spec(RunSpec.normalize("jacobi", nodes=2, **JACOBI_SMALL))
    cold = run_spec(spec)
    assert _nic_rate(spec, cold) == rate and cold.runtime > plain.runtime
    assert _nic_rate(spec, run_spec(spec)) == rate
    assert cache_stats()["memory_hits"] == 1
    clear_cache()
    assert _nic_rate(spec, run_spec(spec)) == rate
    assert cache_stats()["disk_hits"] == 1
    _usable_cpus(monkeypatch, 2)
    pooled = [
        RunSpec.normalize("jacobi", nodes=n, hardware=_half_nic(), **JACOBI_SMALL)
        for n in (3, 4)
    ]
    assert set(runner.prefetch(pooled, then=_nic_rate).values()) == {rate}
    assert cache_stats()["memory_hits"] == 0  # both values came from workers
    assert {_nic_rate(s, run_spec(s)) for s in pooled} == {rate}


def test_catalog_valued_override_is_the_plain_spec():
    from repro.hardware import catalog
    from repro.units import ghz

    plain = RunSpec.normalize("jacobi", nodes=2)
    same = RunSpec.normalize("jacobi", nodes=2, hardware={
        "nic.achievable_rate": catalog.XGBE_PCIE.achievable_rate,
        "cpu.frequency_hz": ghz(1.73),
    })
    assert same.hardware == ()
    assert same.key == plain.key and same.digest == plain.digest


def test_hardware_override_survives_the_wire_form():
    spec = RunSpec.normalize("jacobi", nodes=2, hardware={
        "gpu.memory_bandwidth": 1.0e10, "cpu.frequency_hz": 1.9e9,
    })
    assert spec.hardware == (
        ("cpu.frequency_hz", 1.9e9), ("gpu.memory_bandwidth", 1.0e10),
    )
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec and clone.digest == spec.digest
    assert spec.digest != RunSpec.normalize("jacobi", nodes=2).digest
    as_ints = RunSpec.normalize("jacobi", nodes=2, hardware={
        "gpu.memory_bandwidth": 10**10, "cpu.frequency_hz": 19 * 10**8,
    })
    assert as_ints.digest == spec.digest


@pytest.mark.parametrize("system, key", [
    ("tx1", "fpga.clock_hz"),
    ("tx1", "gpu.warp_size"),
    ("tx1", "nic"),
    ("thunderx", "gpu.memory_bandwidth"),
])
def test_unknown_hardware_override_names_the_key(system, key):
    with pytest.raises(ConfigurationError, match=repr(key)):
        RunSpec.normalize("cg", system=system, hardware={key: 1.0})


def test_campaigns_run_catalog_hardware():
    with pytest.raises(ConfigurationError, match="'hardware'"):
        build_campaign(["jacobi"], workload_kwargs={
            "jacobi": {"hardware": _half_nic()},
        })


def test_repeated_sensitivity_study_simulates_nothing(monkeypatch):
    from repro.bench.sensitivity import network_speedup_sensitivity

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    _usable_cpus(monkeypatch, 1)
    simulated = []
    real = runner._simulate

    def counting(spec, telemetry):
        simulated.append(spec)
        return real(spec, telemetry)

    monkeypatch.setattr(runner, "_simulate", counting)
    first = network_speedup_sensitivity(nodes=2, workloads=("jacobi", "hpl"))
    # 3 scales x 2 workloads on 1 GbE plus one 10 GbE run each; the 1.0
    # scale is the plain 1 GbE spec.
    assert len(simulated) == len(set(simulated)) == 8

    def no_simulation(spec, telemetry):
        raise AssertionError(f"re-simulated {spec.label}")

    monkeypatch.setattr(runner, "_simulate", no_simulation)
    assert network_speedup_sensitivity(nodes=2, workloads=("jacobi", "hpl")) == first

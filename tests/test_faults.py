"""Fault-injection subsystem: schedules, injectors, MPI retry, experiments.

Covers the acceptance properties of the subsystem: an empty schedule is a
bit-for-bit no-op, all stochastic behaviour is reproducible from the
schedule seed, degraded MPI semantics raise the typed taxonomy, and the
resilience experiment driver survives a mid-run node crash by excluding
the dead node and restarting.
"""

import json
import math

import numpy as np
import pytest

from repro.bench.runner import clear_cache
from repro.cli import main
from repro.cluster import Cluster
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import (
    ConfigurationError,
    MPIError,
    MPITimeoutError,
    NodeFailure,
    RankFailedError,
)
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    LinkFlap,
    MessageLoss,
    NicDegradation,
    NodeCrash,
    StragglerJitter,
)
from repro.faults import experiments as fx
from repro.mpi import CommWorld, RetryPolicy
from repro.workloads import make_workload


def small_jacobi():
    return make_workload("jacobi", n=512, iterations=5)


def run_small(faults=None, nodes=2, **job_kwargs):
    clear_cache()
    cluster = Cluster(tx1_cluster_spec(nodes, "10G"))
    result = small_jacobi().run_on(cluster, faults=faults, **job_kwargs)
    return cluster, result


# -- spec validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: NodeCrash(node_id=-1, at=0.0),
        lambda: NodeCrash(node_id=0, at=-1.0),
        lambda: NicDegradation(node_id=0, start=0.0, end=1.0, multiplier=0.0),
        lambda: NicDegradation(node_id=0, start=0.0, end=1.0, multiplier=1.5),
        lambda: NicDegradation(node_id=0, start=2.0, end=1.0, multiplier=0.5),
        lambda: LinkFlap(node_id=0, start=-1.0, end=1.0),
        lambda: LinkFlap(node_id=0, start=1.0, end=1.0),
        lambda: StragglerJitter(rank=-1, mean=0.1),
        lambda: StragglerJitter(rank=0, mean=-0.1),
        lambda: MessageLoss(probability=1.0),
        lambda: MessageLoss(probability=-0.1),
        lambda: MessageLoss(probability=0.5, node_id=-2),
    ],
)
def test_invalid_fault_specs_rejected(factory):
    with pytest.raises(ConfigurationError):
        factory()


def test_schedule_rejects_non_spec():
    with pytest.raises(ConfigurationError, match="not a fault spec"):
        FaultSchedule(["crash node 0"])


def test_empty_schedule_structure():
    schedule = FaultSchedule()
    assert schedule.is_empty
    assert len(schedule) == 0
    assert schedule.crash_time(0) is None
    assert schedule.rate_multiplier(0, 5.0) == 1.0
    assert schedule.loss_probability(0, 1, 5.0) == 0.0
    assert schedule.mean_rate_multiplier(0, 0.0, 10.0) == 1.0


# -- deterministic schedule queries -------------------------------------------


def test_overlapping_degradations_compound():
    schedule = FaultSchedule([
        NicDegradation(node_id=0, start=0.0, end=10.0, multiplier=0.5),
        NicDegradation(node_id=0, start=5.0, end=15.0, multiplier=0.5),
        NicDegradation(node_id=1, start=0.0, end=10.0, multiplier=0.1),
    ])
    assert schedule.rate_multiplier(0, 2.0) == 0.5
    assert schedule.rate_multiplier(0, 7.0) == 0.25
    assert schedule.rate_multiplier(0, 12.0) == 0.5
    assert schedule.rate_multiplier(0, 20.0) == 1.0
    assert schedule.rate_multiplier(2, 7.0) == 1.0


def test_loss_terms_compound_and_flap_forces_loss():
    schedule = FaultSchedule([
        MessageLoss(probability=0.5),
        MessageLoss(probability=0.5, node_id=1),
        LinkFlap(node_id=0, start=10.0, end=20.0),
    ])
    assert schedule.loss_probability(2, 3, 0.0) == 0.5
    assert schedule.loss_probability(1, 2, 0.0) == pytest.approx(0.75)
    assert schedule.loss_probability(0, 2, 15.0) == 1.0


def test_mean_rate_multiplier_integrates_windows():
    schedule = FaultSchedule([
        NicDegradation(node_id=0, start=0.0, end=5.0, multiplier=0.5),
    ])
    assert schedule.mean_rate_multiplier(0, 0.0, 10.0) == pytest.approx(0.75)
    # A flap counts as zero bandwidth.
    flappy = FaultSchedule([LinkFlap(node_id=0, start=0.0, end=5.0)])
    assert flappy.mean_rate_multiplier(0, 0.0, 10.0) == pytest.approx(0.5)


def test_without_crashes_and_remap():
    schedule = FaultSchedule([
        NodeCrash(node_id=3, at=1.0),
        NicDegradation(node_id=2, start=0.0, end=1.0, multiplier=0.5),
        StragglerJitter(rank=1, mean=0.1),
        MessageLoss(probability=0.1, node_id=3),
    ], seed=7)
    calm = schedule.without_crashes()
    assert calm.crashes == () and len(calm) == 3 and calm.seed == 7

    remapped = schedule.remap_nodes({2: 0})  # nodes 0,1,3 excluded
    assert remapped.crashes == ()  # node 3 dropped
    assert remapped.losses == ()  # node-3-scoped loss dropped
    assert remapped.degradations[0].node_id == 0
    assert remapped.stragglers == schedule.stragglers  # rank-addressed: kept


def test_kind_properties_keep_schedule_order_per_schedule():
    specs = [
        MessageLoss(probability=0.2, node_id=1),
        NicDegradation(node_id=2, start=0.0, end=1.0, multiplier=0.5),
        NodeCrash(node_id=3, at=2.0),
        LinkFlap(node_id=1, start=0.0, end=1.0),
        StragglerJitter(rank=4, mean=0.3),
        NicDegradation(node_id=1, start=1.0, end=2.0, multiplier=0.25),
        MessageLoss(probability=0.1),
        NodeCrash(node_id=1, at=1.0),
        LinkFlap(node_id=2, start=3.0, end=4.0),
        StragglerJitter(rank=0, mean=0.1),
    ]
    schedule = FaultSchedule(specs, seed=3)
    for kind, attr in [
        (NodeCrash, "crashes"),
        (NicDegradation, "degradations"),
        (LinkFlap, "flaps"),
        (StragglerJitter, "stragglers"),
        (MessageLoss, "losses"),
    ]:
        assert getattr(schedule, attr) == tuple(s for s in specs if isinstance(s, kind))

    # A reseeded schedule (the restart path's reroll) answers for its specs.
    reseeded = FaultSchedule(schedule.faults, seed=schedule.seed + 1)
    assert reseeded.degradations == schedule.degradations
    assert reseeded.loss_probability(1, 5, 0.5) == 1.0  # node 1 flaps

    # A remapped schedule answers for its own specs, not the original's.
    remapped = schedule.remap_nodes({1: 0, 2: 1})
    assert remapped.crashes == (NodeCrash(node_id=0, at=1.0),)
    assert remapped.degradations == (
        NicDegradation(node_id=1, start=0.0, end=1.0, multiplier=0.5),
        NicDegradation(node_id=0, start=1.0, end=2.0, multiplier=0.25),
    )
    assert [f.node_id for f in remapped.flaps] == [0, 1]
    assert remapped.losses == (
        MessageLoss(probability=0.2, node_id=0),
        MessageLoss(probability=0.1),
    )
    assert remapped.stragglers == schedule.stragglers
    assert remapped.rate_multiplier(0, 1.5) == 0.25
    assert remapped.rate_multiplier(1, 0.5) == 0.5
    assert schedule.rate_multiplier(1, 1.5) == 0.25  # the original is untouched
    assert remapped.loss_probability(0, 5, 0.5) == 1.0  # old node 1 flaps
    assert remapped.loss_probability(2, 5, 0.5) == pytest.approx(0.1)


def test_schedule_json_roundtrip():
    schedule = FaultSchedule([
        NodeCrash(node_id=1, at=0.25),
        NicDegradation(node_id=0, start=0.0, end=1.0, multiplier=0.5),
        LinkFlap(node_id=1, start=2.0, end=3.0),
        StragglerJitter(rank=2, mean=0.1, std=0.05),
        MessageLoss(probability=0.01),
    ], seed=42)
    data = json.loads(json.dumps(schedule.to_dict()))
    back = FaultSchedule.from_dict(data)
    assert back.faults == schedule.faults
    assert back.seed == 42
    assert back.losses[0].end == math.inf


@pytest.mark.parametrize(
    "data",
    [
        "not a mapping",
        {"faults": "nope"},
        {"faults": [{"no_kind": True}]},
        {"faults": [{"kind": "meteor-strike"}]},
        {"faults": [{"kind": "crash", "node_id": 0}]},  # missing 'at'
    ],
)
def test_schedule_from_dict_rejects_garbage(data):
    with pytest.raises(ConfigurationError):
        FaultSchedule.from_dict(data)


# -- injector -----------------------------------------------------------------


def test_injector_rejects_crash_beyond_cluster():
    cluster = Cluster(tx1_cluster_spec(2))
    schedule = FaultSchedule([NodeCrash(node_id=5, at=0.0)])
    with pytest.raises(ConfigurationError, match="node 5"):
        FaultInjector(schedule, cluster)


def test_straggler_draw_is_seeded_and_reproducible():
    schedule = FaultSchedule([StragglerJitter(rank=1, mean=0.2, std=0.1)], seed=9)
    a = FaultInjector(schedule, Cluster(tx1_cluster_spec(2)))
    b = FaultInjector(schedule, Cluster(tx1_cluster_spec(2)))
    assert a.straggler_multiplier(1) == b.straggler_multiplier(1) > 1.0
    assert a.straggler_multiplier(0) == 1.0


def test_empty_schedule_never_consumes_rng():
    cluster = Cluster(tx1_cluster_spec(2))
    injector = FaultInjector(FaultSchedule(seed=3), cluster)
    for _ in range(10):
        assert injector.message_dropped(0, 1) is False
    fresh = np.random.default_rng(3 + 1)
    assert injector._loss_rng.bit_generator.state == fresh.bit_generator.state


def test_flap_window_drop_is_deterministic():
    cluster = Cluster(tx1_cluster_spec(2))
    schedule = FaultSchedule([LinkFlap(node_id=1, start=0.0, end=1.0)])
    injector = FaultInjector(schedule, cluster)
    assert injector.message_dropped(0, 1) is True  # env.now = 0, in window
    assert injector.message_dropped(0, 0) is False  # node 0 untouched


# -- the no-op property -------------------------------------------------------


def test_empty_schedule_is_bit_for_bit_noop():
    _, base = run_small(faults=None)
    _, wired = run_small(faults=FaultSchedule())
    assert wired.elapsed_seconds == base.elapsed_seconds
    assert wired.energy_joules == base.energy_joules
    assert wired.total_flops == base.total_flops
    assert wired.network_bytes == base.network_bytes
    assert wired.comm_seconds == base.comm_seconds
    assert wired.rank_values == base.rank_values
    assert wired.failures == {} and wired.completed
    assert wired.comm_retries == 0


# -- retry policy -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": 0.0},
        {"max_retries": -1},
        {"backoff_base": -1.0},
        {"backoff_factor": 0.5},
        {"jitter": 1.0},
        {"jitter": -0.1},
        # NaN compares false both ways, so a ``<=``/``<`` check lets it in.
        {"timeout": float("nan")},
        {"backoff_base": float("nan")},
        {"backoff_factor": float("nan")},
        {"jitter": float("nan")},
    ],
)
def test_retry_policy_validation(kwargs):
    with pytest.raises(MPIError):
        RetryPolicy(**kwargs)


def test_backoff_is_exponential_and_seeded():
    policy = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, jitter=0.1)
    a = [policy.backoff_seconds(i, np.random.default_rng(5)) for i in range(4)]
    b = [policy.backoff_seconds(i, np.random.default_rng(5)) for i in range(4)]
    assert a == b  # same seed, same jittered delays
    for i, delay in enumerate(a):
        base = 1e-3 * 2.0**i
        assert base * 0.9 <= delay <= base * 1.1
    zero = RetryPolicy(backoff_base=1e-3, jitter=0.0)
    assert zero.backoff_seconds(2, np.random.default_rng(0)) == 4e-3


# -- degraded MPI semantics ---------------------------------------------------


def _world(cluster, retry=None):
    return CommWorld(cluster.env, cluster.fabric, [0, 1], retry=retry)


def test_recv_timeout_raises_typed_error():
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster)

    def lonely(comm):
        yield from comm.recv(source=0, tag=7, timeout=0.5)

    proc = cluster.env.process(lonely(world.communicator(1)))
    with pytest.raises(MPITimeoutError, match="timed out after 0.5"):
        cluster.env.run(until=proc)
    assert cluster.env.now == pytest.approx(0.5)


@pytest.mark.parametrize("collective", ["gather", "allgather"])
def test_gather_root_times_out_like_recv(collective):
    """The root's receives in gather are timed by the retry policy, as
    ``recv`` is; a silent peer is a timeout, not a drained queue."""
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster, retry=RetryPolicy(timeout=0.5))

    def root(comm):
        yield from getattr(comm, collective)("mine")

    proc = cluster.env.process(root(world.communicator(0)))
    with pytest.raises(MPITimeoutError, match="any source .* timed out after 0.5"):
        cluster.env.run(until=proc)
    assert cluster.env.now == pytest.approx(0.5)


@pytest.mark.parametrize("collective", ["gather", "allgather"])
def test_gather_root_fails_fast_on_dead_rank(collective):
    """A dead rank whose item is still due fails the root's receive at
    once, as ``recv(source=dead)`` does, not after the timeout."""
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster, retry=RetryPolicy(timeout=0.5))
    world.mark_rank_failed(1)

    def root(comm):
        yield from getattr(comm, collective)("mine")

    proc = cluster.env.process(root(world.communicator(0)))
    with pytest.raises(RankFailedError, match="dead rank 1") as failure:
        cluster.env.run(until=proc)
    assert failure.value.rank == 1
    assert cluster.env.now == 0.0


def test_gather_root_names_rank_that_died_while_awaited():
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster, retry=RetryPolicy(timeout=0.5))

    def root(comm):
        yield from comm.gather("mine")

    def crash():
        yield cluster.env.timeout(0.25)
        world.mark_rank_failed(1)

    cluster.env.process(crash())
    proc = cluster.env.process(root(world.communicator(0)))
    with pytest.raises(RankFailedError, match="rank 1 died while awaited"):
        cluster.env.run(until=proc)
    assert cluster.env.now == pytest.approx(0.5)


def test_send_to_dead_rank_fails_fast():
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster)
    world.mark_rank_failed(1)

    def push(comm):
        yield from comm.send(b"x", dest=1)

    proc = cluster.env.process(push(world.communicator(0)))
    with pytest.raises(RankFailedError, match="dead rank 1"):
        cluster.env.run(until=proc)


def test_recv_from_dead_rank_fails_fast():
    cluster = Cluster(tx1_cluster_spec(2))
    world = _world(cluster)
    world.mark_rank_failed(0)

    def pull(comm):
        yield from comm.recv(source=0)

    proc = cluster.env.process(pull(world.communicator(1)))
    with pytest.raises(RankFailedError, match="dead rank 0"):
        cluster.env.run(until=proc)


def test_lost_message_is_retried_and_delivered():
    cluster = Cluster(tx1_cluster_spec(2))
    # The link flaps only for the first 10 us: the first attempt is lost
    # deterministically, the backed-off resend lands after the window.
    schedule = FaultSchedule([LinkFlap(node_id=1, start=0.0, end=1e-5)])
    FaultInjector(schedule, cluster).arm()
    policy = RetryPolicy(timeout=1.0, max_retries=3, backoff_base=1e-4, jitter=0.0)
    world = _world(cluster, retry=policy)
    got = []

    def sender(comm):
        yield from comm.send(np.arange(4.0), dest=1, tag=3)

    def receiver(comm):
        data = yield from comm.recv(source=0, tag=3)
        got.append(data)

    cluster.env.process(sender(world.communicator(0)))
    proc = cluster.env.process(receiver(world.communicator(1)))
    cluster.env.run(until=proc)
    assert np.array_equal(got[0], np.arange(4.0))
    assert world.stats[0].retries == 1
    assert cluster.fabric.dropped_transfers == 1


def test_retries_exhausted_raises_timeout():
    cluster = Cluster(tx1_cluster_spec(2))
    schedule = FaultSchedule([LinkFlap(node_id=1, start=0.0, end=100.0)])
    FaultInjector(schedule, cluster).arm()
    policy = RetryPolicy(timeout=200.0, max_retries=2, backoff_base=1e-4, jitter=0.0)
    world = _world(cluster, retry=policy)

    def sender(comm):
        yield from comm.send(b"payload", dest=1)

    proc = cluster.env.process(sender(world.communicator(0)))
    with pytest.raises(MPITimeoutError, match="lost 3 time"):
        cluster.env.run(until=proc)
    assert world.stats[0].retries == 2


def test_send_through_crashed_node_names_dead_rank():
    cluster = Cluster(tx1_cluster_spec(2))
    cluster.fail_node(1)
    world = _world(cluster)

    def sender(comm):
        yield from comm.send(b"x", dest=1)

    proc = cluster.env.process(sender(world.communicator(0)))
    with pytest.raises(RankFailedError) as info:
        cluster.env.run(until=proc)
    assert info.value.rank == 1
    assert world.is_failed(1)  # the death was recorded for fail-fast


# -- job-level integration ----------------------------------------------------


def test_straggler_slows_the_job():
    _, base = run_small()
    _, slow = run_small(
        faults=FaultSchedule([StragglerJitter(rank=0, mean=0.5)], seed=1)
    )
    assert slow.elapsed_seconds > base.elapsed_seconds


def test_nic_degradation_slows_the_job():
    _, base = run_small()
    _, slow = run_small(
        faults=FaultSchedule([
            NicDegradation(node_id=0, start=0.0, end=1e9, multiplier=0.05),
        ])
    )
    assert slow.elapsed_seconds > base.elapsed_seconds


def test_node_crash_raises_by_default():
    _, base = run_small()
    schedule = FaultSchedule([
        NodeCrash(node_id=1, at=0.5 * base.elapsed_seconds),
    ])
    with pytest.raises((NodeFailure, RankFailedError, MPITimeoutError)):
        run_small(faults=schedule, retry=RetryPolicy(timeout=0.05))


def test_node_crash_tolerated_records_failures():
    _, base = run_small()
    schedule = FaultSchedule([
        NodeCrash(node_id=1, at=0.5 * base.elapsed_seconds),
    ])
    cluster, result = run_small(
        faults=schedule, retry=RetryPolicy(timeout=0.05), on_fault="tolerate"
    )
    assert not result.completed
    assert 1 in result.failed_ranks  # the crashed node's rank died
    assert cluster.failed_node_ids == [1]
    assert result.rank_values[1] is None


def test_bad_on_fault_rejected():
    with pytest.raises(ConfigurationError, match="on_fault"):
        run_small(on_fault="panic")


# -- resilience experiments ---------------------------------------------------


def test_run_degraded_restarts_after_crash():
    clear_cache()
    probe = fx.run_workload("jacobi", nodes=2, n=256, iterations=4)
    schedule = FaultSchedule([
        NodeCrash(node_id=1, at=0.5 * probe.runtime),
    ])
    clear_cache()
    report = fx.run_degraded(
        "jacobi", schedule, nodes=2,
        retry=RetryPolicy(timeout=probe.runtime / 4, backoff_base=1e-5),
        n=256, iterations=4,
    )
    assert report.completed
    assert len(report.attempts) == 2
    assert not report.attempts[0].completed and report.attempts[1].completed
    assert report.attempts[1].nodes == 1
    assert report.excluded_nodes == (1,)
    assert report.wasted_seconds > 0
    assert report.degraded_runtime > report.baseline_runtime
    assert report.slowdown > 1.0
    text = fx.format_report(report)
    assert "attempt 2" in text and "excluded nodes" in text


def test_run_degraded_reports_effective_ceiling():
    clear_cache()
    schedule = FaultSchedule([
        NicDegradation(node_id=0, start=0.0, end=1e9, multiplier=0.5),
    ])
    report = fx.run_degraded("jacobi", schedule, nodes=2, n=256, iterations=4)
    assert report.completed and len(report.attempts) == 1
    assert report.effective_network_bandwidth == pytest.approx(
        0.5 * report.baseline_network_bandwidth
    )
    assert report.baseline_efficiency is not None
    assert report.degraded_efficiency is not None
    assert report.degraded_efficiency.transfer <= report.baseline_efficiency.transfer


def test_demo_schedule_needs_two_nodes():
    with pytest.raises(ConfigurationError, match="2 nodes"):
        fx.demo_schedule(1, 1.0)


# -- CLI ----------------------------------------------------------------------


def test_cli_faults_demo(capsys):
    clear_cache()
    assert main(["faults", "--demo", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "Resilience report" in out
    assert "effective" in out


def test_cli_faults_requires_demo_or_schedule(capsys):
    assert main(["faults", "jacobi"]) == 2
    assert "--demo or --schedule" in capsys.readouterr().err


def test_cli_faults_schedule_file(tmp_path, capsys):
    clear_cache()
    schedule = FaultSchedule([
        NicDegradation(node_id=0, start=0.0, end=1e9, multiplier=0.5),
    ])
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule.to_dict()))
    assert main(["faults", "jacobi", "--schedule", str(path), "--nodes", "2"]) == 0
    assert "network ceiling" in capsys.readouterr().out

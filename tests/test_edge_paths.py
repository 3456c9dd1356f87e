"""Edge-path tests: condition failures, interrupt interactions, paraver
multi-label chopping, caffe pipeline overlap, and model_io error paths."""

import numpy as np
import pytest

from repro.cluster import Cluster, Job
from repro.cluster.cluster import thunderx_cluster_spec, tx1_cluster_spec
from repro.core import measure_roofline_point, roofline_for_cluster
from repro.errors import AnalysisError, SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt, Resource
from repro.tracing import Tracer, chop_iterations
from repro.workloads import ImageClassificationWorkload


# -- sim conditions and interrupts ---------------------------------------------------


def test_allof_fails_fast_on_component_failure():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("component died")

    def waiter(env):
        p = env.process(failer(env))
        slow = env.timeout(10.0)
        try:
            yield AllOf(env, [p, slow])
        except ValueError as exc:
            caught.append((str(exc), env.now))

    env.process(waiter(env))
    env.run()
    # Fails at t=1, without waiting for the 10s timeout.
    assert caught == [("component died", 1.0)]


def test_anyof_failure_propagates():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(0.5)
        raise RuntimeError("early fail")

    def waiter(env):
        p = env.process(failer(env))
        try:
            yield AnyOf(env, [p, env.timeout(5.0)])
        except RuntimeError:
            caught.append(env.now)

    env.process(waiter(env))
    env.run()
    assert caught == [0.5]


def test_interrupt_while_holding_resource_releases_cleanly():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request() as req:
            yield req
            try:
                yield env.timeout(100.0)
            except Interrupt:
                order.append(("interrupted", env.now))
        # context manager released the slot on exit

    def second(env, res):
        with res.request() as req:
            yield req
            order.append(("acquired", env.now))

    victim = env.process(holder(env, res))

    def interrupter(env):
        yield env.timeout(2.0)
        victim.interrupt()

    env.process(interrupter(env))
    env.process(second(env, res))
    env.run()
    assert order == [("interrupted", 2.0), ("acquired", 2.0)]


def test_run_until_already_triggered_event():
    env = Environment()
    ev = env.event()
    ev.succeed("done")
    env.run()  # processes the event
    assert env.run(until=ev) == "done"


def test_interrupted_process_detaches_from_target():
    """After an interrupt, the original timeout firing must not resume the
    process a second time."""
    env = Environment()
    hits = []

    def sleeper(env):
        try:
            yield env.timeout(5.0)
            hits.append("timeout")
        except Interrupt:
            hits.append("interrupt")
        yield env.timeout(10.0)
        hits.append("after")

    p = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1.0)
        p.interrupt()

    env.process(interrupter(env))
    env.run()
    assert hits == ["interrupt", "after"]
    assert env.now == 11.0


# -- paraver multi-label chopping -----------------------------------------------------


def test_chop_iterations_respects_label_and_rank():
    tracer = Tracer(2)
    for t in (0.0, 1.0, 2.0):
        tracer.mark(0, "iteration", t)
        tracer.mark(0, "phase", t + 0.5)
        tracer.mark(1, "iteration", t + 0.1)
    trace = tracer.finalize()
    assert len(chop_iterations(trace, label="iteration", rank=0)) == 2
    assert len(chop_iterations(trace, label="phase", rank=0)) == 2
    assert len(chop_iterations(trace, label="iteration", rank=1)) == 2
    # A different rank's markers must not leak into rank 0's chopping.
    assert len(chop_iterations(trace, label="phase", rank=1)) == 1
    # Unknown label: whole trace as one window.
    assert chop_iterations(trace, label="epoch") == [trace]


# -- caffe pipeline ------------------------------------------------------------------


def test_caffe_pipeline_overlaps_decode_and_gpu():
    """With enough decode workers, total time must be far below the serial
    sum of decode time and GPU time (the double-buffered pipeline)."""
    w = ImageClassificationWorkload("alexnet", total_images=256, batch_size=32)
    result = w.run_on(Cluster(tx1_cluster_spec(1)))
    counters = result.counters[0]
    decode_seconds = counters.compute_seconds / 3  # 3 workers in parallel
    gpu_seconds = counters.gpu_seconds
    assert result.elapsed_seconds < 0.95 * (decode_seconds + gpu_seconds) + 1.0


def test_caffe_decode_workers_parameter():
    fast = ImageClassificationWorkload("googlenet", total_images=128,
                                       batch_size=32, decode_workers=3)
    slow = ImageClassificationWorkload("googlenet", total_images=128,
                                       batch_size=32, decode_workers=1)
    t_fast = fast.run_on(Cluster(tx1_cluster_spec(1))).elapsed_seconds
    t_slow = slow.run_on(Cluster(tx1_cluster_spec(1))).elapsed_seconds
    assert t_fast < t_slow


# -- roofline measurement error paths ---------------------------------------------------


def test_measure_roofline_point_requires_gpu_traffic():
    cluster = Cluster(tx1_cluster_spec(2))
    job = Job(cluster)

    def cpu_only(ctx):
        from repro.hardware.cpu import WorkloadCPUProfile

        yield from ctx.cpu_compute(WorkloadCPUProfile(name="x"), 1e7)
        yield from ctx.comm.allreduce(1.0)

    result = job.run(cpu_only)
    with pytest.raises(AnalysisError, match="GPU FLOPs"):
        measure_roofline_point("cpu-only", result, cluster, precision="double")


def test_roofline_for_thunderx_rejected():
    with pytest.raises(AnalysisError):
        roofline_for_cluster(Cluster(thunderx_cluster_spec()))


# -- numpy payload edge: zero-length arrays move fine ------------------------------------


def test_zero_length_array_transport():
    from repro.mpi import CommWorld
    from tests.conftest import build_tx1_fabric

    env, fabric, _ = build_tx1_fabric(2)
    world = CommWorld(env, fabric, [0, 1])

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.array([]), dest=1)
            return None
        data = yield from comm.recv(source=0)
        return data.size

    procs = [env.process(main(c)) for c in world.communicators()]
    for p in procs:
        env.run(until=p)
    assert procs[1].value == 0

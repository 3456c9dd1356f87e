"""Unit tests for the network fabric and microbenchmarks."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.errors import ConfigurationError, NetworkError
from repro.hardware import catalog
from repro.mpi import CommWorld
from repro.network import Fabric, Flow, SwitchSpec, iperf, ping_pong
from repro.sim import Interrupt, Join
from repro.telemetry import Telemetry
from repro.units import gbit_s, to_gbit_s, to_ms, us

from tests.conftest import build_tx1_fabric


def test_switch_from_catalog():
    sw = SwitchSpec.from_catalog(catalog.SWITCH_10G)
    assert sw.name.startswith("Cisco")
    assert sw.bisection_bandwidth == pytest.approx(gbit_s(480.0))


def test_switch_validation():
    with pytest.raises(ConfigurationError):
        SwitchSpec("bad", 0.0, 1e-6)
    with pytest.raises(ConfigurationError):
        SwitchSpec("bad", 1e9, -1.0)


def test_transfer_duration_matches_model(tx1_pair):
    env, fabric, nodes = tx1_pair
    nbytes = 1e8
    records = []

    def go():
        rec = yield from fabric.transfer(0, 1, nbytes)
        records.append(rec)

    env.run(until=env.process(go()))
    rec = records[0]
    expected = (
        nodes[0].nic.latency_one_way
        + fabric.switch.latency
        + nbytes / nodes[0].nic.achievable_rate
    )
    assert rec.seconds == pytest.approx(expected)
    assert rec.queue_seconds == 0.0


def test_transfer_records_node_traffic(tx1_pair):
    env, fabric, nodes = tx1_pair

    def go():
        yield from fabric.transfer(0, 1, 1000.0)

    env.run(until=env.process(go()))
    assert nodes[0].network_bytes_sent == 1000.0
    assert nodes[1].network_bytes_received == 1000.0
    assert fabric.total_bytes == 1000.0
    assert fabric.total_transfers == 1


def test_loopback_skips_nic(tx1_pair):
    env, fabric, nodes = tx1_pair

    def go():
        yield from fabric.transfer(0, 0, 1e6)

    env.run(until=env.process(go()))
    assert nodes[0].network_bytes_sent == 0.0
    assert fabric.total_bytes == 0.0
    # Loopback still takes memcpy time.
    assert env.now > 0.0


def test_receiver_contention_serializes(tx1_quad):
    """Two senders to the same receiver must serialize at its RX path."""
    env, fabric, nodes = tx1_quad
    nbytes = 1e8
    done = []

    def sender(src):
        rec = yield from fabric.transfer(src, 3, nbytes)
        done.append(rec)

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    one = nbytes / nodes[0].nic.achievable_rate
    assert max(r.end for r in done) >= 2 * one


def test_distinct_receivers_run_parallel(tx1_quad):
    env, fabric, nodes = tx1_quad
    nbytes = 1e8
    done = []

    def sender(src, dst):
        rec = yield from fabric.transfer(src, dst, nbytes)
        done.append(rec)

    env.process(sender(0, 2))
    env.process(sender(1, 3))
    env.run()
    one = nbytes / nodes[0].nic.achievable_rate
    # Both finish in ~one serialization time, not two.
    assert max(r.end for r in done) < 1.5 * one


def test_unknown_node_rejected(tx1_pair):
    env, fabric, _ = tx1_pair

    def go():
        yield from fabric.transfer(0, 99, 10.0)

    with pytest.raises(NetworkError, match="node id 99"):
        env.run(until=env.process(go()))


def test_negative_bytes_rejected(tx1_pair):
    env, fabric, _ = tx1_pair
    with pytest.raises(ConfigurationError):
        # The generator raises eagerly on the first next() inside process().
        env.run(until=env.process(fabric.transfer(0, 1, -5.0)))


def _no_nic_claimed(fabric, nodes):
    for node in nodes:
        assert node.nic_tx.holder is None and not node.nic_tx.waiters
        assert node.nic_rx.holder is None and not node.nic_rx.waiters
    assert fabric.total_transfers == fabric.loopback_transfers == 0
    assert fabric.total_bytes == 0


@pytest.mark.parametrize("dst", [1, 0], ids=["wire", "loopback"])
@pytest.mark.parametrize(
    "nbytes", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
)
def test_bad_size_rejected_before_any_nic_request(tx1_pair, nbytes, dst):
    # NaN compares false against 0, so a ``< 0`` check lets it through to
    # the kernel's timeout, after both NIC slots were requested; infinity
    # passes ``>= 0`` and would finish the transfer at t=inf.
    env, fabric, nodes = tx1_pair
    with pytest.raises(ConfigurationError, match="non-negative"):
        env.run(until=env.process(fabric.transfer(0, dst, nbytes)))
    _no_nic_claimed(fabric, nodes)


def test_send_of_infinite_size_rejected_before_any_nic_request(tx1_pair):
    env, fabric, nodes = tx1_pair
    comm = CommWorld(env, fabric, [0, 1]).communicator(0)
    send = comm.send(np.zeros(1), dest=1, nbytes=float("inf"))
    with pytest.raises(ConfigurationError, match="non-negative"):
        env.run(until=env.process(send))
    _no_nic_claimed(fabric, nodes)
    assert env.now == 0.0


# -- flows over FIFO NIC slots -------------------------------------------------


def _waiter(flow):
    """Wait on *flow*; an interrupt aborts it (as a crash would)."""
    try:
        yield from flow
    except Interrupt:
        pass


def _interrupt_at(env, proc, at):
    yield env.timeout(at)
    proc.interrupt()


def _begun_at(flow):
    return flow.start + flow.queue_seconds


def test_transfer_returns_a_flow_record(tx1_pair):
    env, fabric, _ = tx1_pair
    flow = fabric.transfer(0, 1, 1e6)
    assert isinstance(flow, Flow) and not flow.triggered
    env.run(until=flow)
    assert flow.processed and flow.ok and flow.value is None
    assert flow.end == env.now == flow.start + flow.queue_seconds + flow.wire_seconds
    assert flow.seconds == flow.end - flow.start


def test_three_flows_contending_for_one_nic_are_granted_fifo(tx1_quad):
    env, fabric, _ = tx1_quad
    # Created out of source order: the rx slot of node 3 grants in
    # creation order, not by node id.
    flows = [fabric.transfer(src, 3, 1e6) for src in (2, 0, 1)]
    for flow in flows:
        env.process(_waiter(flow))
    env.run()
    assert [_begun_at(f) for f in flows] == [0.0, flows[0].end, flows[1].end]
    assert flows[0].end < flows[1].end < flows[2].end
    assert fabric.total_transfers == 3


def test_an_aborted_queued_flow_never_takes_the_slot(tx1_quad):
    env, fabric, nodes = tx1_quad
    first, doomed, last = (fabric.transfer(src, 3, 1e6) for src in (0, 1, 2))
    env.process(_waiter(first))
    victim = env.process(_waiter(doomed))
    env.process(_waiter(last))
    env.process(_interrupt_at(env, victim, 1e-6))  # first is in flight
    env.run()
    assert first.start + first.queue_seconds < 1e-6 < first.end
    assert doomed.end is None and doomed.queue_seconds == 0.0
    assert _begun_at(last) == first.end
    assert fabric.total_transfers == 2 and fabric.active_flows == 0
    assert nodes[3].nic_rx.holder is None and not nodes[3].nic_rx.waiters
    assert nodes[1].nic_tx.holder is None


def test_an_aborted_holder_passes_the_slot_on_at_once(tx1_quad):
    env, fabric, nodes = tx1_quad
    holder, waiting = (fabric.transfer(src, 3, 1e8) for src in (0, 1))
    victim = env.process(_waiter(holder))
    env.process(_waiter(waiting))
    env.run(until=1e-3)
    assert holder.wire_seconds > 1e-3  # in flight, not finished
    env.process(_interrupt_at(env, victim, 0.0))
    env.run()
    assert holder.end is None
    assert _begun_at(waiting) == 1e-3
    assert fabric.total_transfers == 1 and fabric.active_flows == 0
    assert nodes[3].nic_rx.holder is None and nodes[0].nic_tx.holder is None


def test_a_finished_flow_frees_without_the_cycle_collector(tx1_quad):
    env, fabric, _ = tx1_quad
    refs = []

    def go():
        for dst in (1, 0):  # a wire flow and a loopback flow
            flow = fabric.transfer(0, dst, 1e6)
            refs.append(weakref.ref(flow))
            yield flow

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.run(until=env.process(go()))
        # A queued flow whose waiter was killed frees too.
        first, doomed = (fabric.transfer(src, 3, 1e6) for src in (0, 1))
        env.process(_waiter(first))
        victim = env.process(_waiter(doomed))
        env.process(_interrupt_at(env, victim, 0.0))
        refs.append(weakref.ref(doomed))
        del first, doomed, victim
        env.run()
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_a_job_leaves_no_flow_for_the_collector():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run = run_workload("cg", nodes=2, use_cache=False)
        assert run.result.network_bytes > 0 and run.result.loopback_bytes > 0
        del run
        gc.collect()
        stranded = sum(isinstance(obj, (Flow, Join)) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert stranded == 0


class _TripwireSink:
    """A disabled sink whose span factory and instruments all raise.

    The fabric asks it for instruments once, when it is attached; after
    that an unobserved transfer must never touch it.
    """

    enabled = False

    class _Tripwire:
        def __getattr__(self, name):
            raise AssertionError(f"disabled sink touched: .{name}")

    def counter(self, *args, **kwargs):
        return self._Tripwire()

    histogram = counter

    def async_span(self, *args, **kwargs):
        raise AssertionError("disabled sink opened a span")

    span = instant = async_span


def test_unobserved_transfers_never_touch_the_sink(tx1_pair):
    env, fabric, nodes = tx1_pair
    fabric.set_telemetry(_TripwireSink())

    def go():
        yield from fabric.transfer(0, 1, 1000.0)
        yield from fabric.transfer(1, 1, 500.0)

    env.run(until=env.process(go()))
    assert fabric.total_bytes == 1000.0
    assert fabric.total_transfers == 1
    assert fabric.loopback_bytes == 500.0
    assert fabric.loopback_transfers == 1
    assert nodes[1].network_bytes_received == 1000.0


def test_duplicate_attach_rejected(tx1_pair):
    env, fabric, nodes = tx1_pair
    with pytest.raises(ConfigurationError):
        fabric.attach(nodes[0])


# -- microbenchmarks (§III-A numbers) -------------------------------------------


def test_iperf_10gbe_near_3_3_gbit():
    env, fabric, _ = build_tx1_fabric(2, nic=catalog.XGBE_PCIE)
    rate = iperf(env, fabric, 0, 1, duration_bytes=5e9)
    assert to_gbit_s(rate) == pytest.approx(3.3, rel=0.02)


def test_iperf_1gbe_matches_paper():
    env, fabric, _ = build_tx1_fabric(
        2, nic=catalog.GBE_ONBOARD, switch=SwitchSpec.from_catalog(catalog.SWITCH_1G)
    )
    rate = iperf(env, fabric, 0, 1, duration_bytes=5e9)
    # Paper SIII-A: 0.53 Gb/s between two TX1 nodes over the on-board NIC.
    assert to_gbit_s(rate) == pytest.approx(0.53, rel=0.02)


def test_ping_pong_latency_ordering():
    env10, fab10, _ = build_tx1_fabric(2, nic=catalog.XGBE_PCIE)
    rtt10 = ping_pong(env10, fab10, 0, 1)
    env1, fab1, _ = build_tx1_fabric(
        2, nic=catalog.GBE_ONBOARD, switch=SwitchSpec.from_catalog(catalog.SWITCH_1G)
    )
    rtt1 = ping_pong(env1, fab1, 0, 1)
    # Paper: ~0.1 ms -> ~0.05 ms round trip (NIC + switch hops).
    assert rtt10 < rtt1
    assert 0.04 < to_ms(rtt10) < 0.07
    assert 0.09 < to_ms(rtt1) < 0.13


def test_bisection_throttles_oversubscription():
    """With a tiny-bisection switch, concurrent flows share its capacity."""
    tiny = SwitchSpec("tiny", bisection_bandwidth=gbit_s(3.3), latency=us(3.0))
    env, fabric, nodes = build_tx1_fabric(4, nic=catalog.XGBE_PCIE, switch=tiny)
    nbytes = 1e8
    done = []

    def sender(src, dst):
        rec = yield from fabric.transfer(src, dst, nbytes)
        done.append(rec)

    env.process(sender(0, 2))
    env.process(sender(1, 3))
    env.run()
    one_alone = nbytes / nodes[0].nic.achievable_rate
    # Two flows over a bisection equal to one NIC: ~2x slower than parallel.
    assert max(r.end for r in done) >= 1.8 * one_alone


def test_loopback_traffic_is_accounted_separately():
    telemetry = Telemetry(sample_interval=0.0)
    run = run_workload(
        "cg", nodes=2, use_cache=False, telemetry=telemetry
    )
    result = run.result
    assert result.loopback_bytes > 0
    registry = telemetry.registry
    wire = registry.counter("fabric_bytes_total", unit="bytes").value()
    loop = registry.counter("fabric_loopback_bytes_total", unit="bytes").value()
    # The wire-only invariant: fabric_bytes_total mirrors network_bytes
    # exactly, and loopback traffic lives under its own instrument.
    assert wire == result.network_bytes
    assert loop == result.loopback_bytes
    assert registry.counter("fabric_loopback_transfers_total").value() > 0

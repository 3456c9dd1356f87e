"""Tests for repro.telemetry: instruments, spans, sink, sampler, exporters.

The suite covers four layers:

* unit tests for the data model (instruments, spans, registry, sink);
* the clock-driven :class:`UtilizationSampler` (self-termination included);
* integration: a telemetry-enabled workload run emits spans from every
  instrumented layer, one record per trace event;
* determinism: a telemetry-enabled run is bit-identical to an
  uninstrumented one, and the exporters themselves are byte-stable.
"""

from __future__ import annotations

import collections
import io
import json
import math

import pytest

from repro.bench.runner import clear_cache, run_workload
from repro.cli import build_parser, main
from repro.cluster import Cluster, Job
from repro.cluster.cluster import tx1_cluster_spec
from repro.errors import TelemetryError
from repro.faults.model import FaultSchedule, NicDegradation
from repro.telemetry import (
    DURATION_BUCKETS,
    NULL,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Registry,
    Telemetry,
    UtilizationSampler,
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
)
from repro.telemetry.spans import NULL_SPAN
from repro.tracing import Tracer
from repro.workloads import make_workload


class FakeEnv:
    """A stand-in clock for unit tests (the sink only reads ``.now``)."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def bound_sink(**kwargs) -> tuple[Telemetry, FakeEnv]:
    telemetry = Telemetry(sample_interval=kwargs.pop("sample_interval", 0.0))
    env = FakeEnv()
    telemetry.bind_env(env)
    return telemetry, env


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc()
        assert counter.value() == 2.0

    def test_inc_by_amount(self):
        counter = Counter("bytes_total")
        counter.inc(4096.0)
        counter.inc(1024.0)
        assert counter.value() == 5120.0

    def test_negative_increment_rejected(self):
        counter = Counter("events_total")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_labelled_series_are_independent(self):
        counter = Counter("messages_total", labelnames=("kind",))
        counter.inc(kind="send")
        counter.inc(kind="send")
        counter.inc(kind="recv")
        assert counter.value(kind="send") == 2.0
        assert counter.value(kind="recv") == 1.0

    def test_label_mismatch_rejected(self):
        counter = Counter("messages_total", labelnames=("kind",))
        with pytest.raises(TelemetryError, match="do not match"):
            counter.inc(direction="send")

    def test_unset_series_reads_zero(self):
        assert Counter("events_total").value() == 0.0

    def test_bad_label_rejected_at_bind_time(self):
        counter = Counter("messages_total", labelnames=("kind",))
        with pytest.raises(TelemetryError, match="do not match"):
            counter.labels(direction="send")
        with pytest.raises(TelemetryError, match="do not match"):
            counter.labels()

    def test_bound_child_equals_labelled_inc(self):
        bound = Counter("bytes_total", labelnames=("kind",))
        keyed = Counter("bytes_total", labelnames=("kind",))
        send, recv = bound.labels(kind="send"), bound.labels(kind="recv")
        for amount in (64.0, 0.5, 1e9):
            send.inc(amount)
            keyed.inc(amount, kind="send")
        recv.inc()
        keyed.inc(kind="recv")
        for kind in ("send", "recv"):
            assert bound.value(kind=kind) == keyed.value(kind=kind)
        assert list(bound.series()) == list(keyed.series())

    def test_bound_child_rejects_negative_increment(self):
        child = Counter("events_total", labelnames=("kind",)).labels(kind="a")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            child.inc(-1.0)

    def test_bound_child_never_incremented_exports_no_series(self):
        registry = Registry()
        counter = registry.counter("messages_total", labelnames=("kind",))
        counter.labels(kind="send")
        counter.labels(kind="recv").inc()
        assert list(counter.series()) == [(("recv",), 1.0)]
        text = to_prometheus_text(registry)
        assert 'messages_total{kind="recv"} 1' in text
        assert "send" not in text


class TestGauge:
    def test_set_last_write_wins(self):
        gauge = Gauge("level")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value() == 1.5

    def test_add_moves_both_directions(self):
        gauge = Gauge("level")
        gauge.add(2.0)
        gauge.add(-0.5)
        assert gauge.value() == 1.5

    def test_labelled_series(self):
        gauge = Gauge("occupancy", labelnames=("node",))
        gauge.set(0.25, node="0")
        gauge.set(0.75, node="1")
        assert gauge.value(node="0") == 0.25
        assert gauge.value(node="1") == 0.75


class TestHistogram:
    def test_observation_lands_in_first_covering_bucket(self):
        histogram = Histogram("latency", buckets=(1.0, 10.0, 100.0))
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        assert snapshot.bucket_counts == [0, 1, 0, 0]

    def test_sum_and_count_accumulate(self):
        histogram = Histogram("latency", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        assert snapshot.count == 2
        assert snapshot.total == 5.5

    def test_overflow_goes_to_implicit_inf_bucket(self):
        histogram = Histogram("latency", buckets=(1.0, 10.0))
        histogram.observe(1e6)
        assert histogram.snapshot().bucket_counts == [0, 0, 1]

    def test_empty_buckets_rejected(self):
        with pytest.raises(TelemetryError, match="at least one bucket"):
            Histogram("latency", buckets=())

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(TelemetryError, match="strictly increasing"):
            Histogram("latency", buckets=(1.0, 1.0, 2.0))

    def test_infinite_bucket_rejected(self):
        with pytest.raises(TelemetryError, match="finite"):
            Histogram("latency", buckets=(1.0, math.inf))

    def test_default_duration_buckets_strictly_increasing(self):
        assert all(
            b2 > b1 for b1, b2 in zip(DURATION_BUCKETS, DURATION_BUCKETS[1:])
        )
        assert DURATION_BUCKETS[0] == pytest.approx(1e-6)

    def test_size_buckets_are_powers_of_four_from_64(self):
        assert SIZE_BUCKETS[0] == 64.0
        assert all(b2 == b1 * 4.0 for b1, b2 in zip(SIZE_BUCKETS, SIZE_BUCKETS[1:]))


class TestInstrumentIdentity:
    @pytest.mark.parametrize("bad", ["", "has space", "has-dash", "1leading"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(TelemetryError, match="bad instrument name"):
            Counter(bad)

    def test_duplicate_label_names_rejected(self):
        with pytest.raises(TelemetryError, match="duplicate label names"):
            Gauge("level", labelnames=("node", "node"))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = Registry()
        first = registry.counter("events_total")
        second = registry.counter("events_total")
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_rejected(self):
        registry = Registry()
        registry.counter("events_total")
        with pytest.raises(TelemetryError, match="already registered as counter"):
            registry.gauge("events_total")

    def test_instruments_listing_is_name_sorted(self):
        registry = Registry()
        registry.gauge("zeta")
        registry.counter("alpha")
        registry.histogram("mid")
        assert [i.name for i in registry.instruments()] == ["alpha", "mid", "zeta"]

    def test_get_by_name(self):
        registry = Registry()
        created = registry.counter("events_total")
        assert registry.get("events_total") is created
        assert "events_total" in registry
        assert "missing" not in registry

    def test_get_miss_raises_naming_known_instruments(self):
        registry = Registry()
        registry.counter("events_total")
        registry.gauge("active_flows")
        with pytest.raises(TelemetryError) as err:
            registry.get("missing")
        message = str(err.value)
        assert "missing" in message
        assert "active_flows, events_total" in message

    def test_get_miss_on_empty_registry_says_none(self):
        with pytest.raises(TelemetryError, match="<none>"):
            Registry().get("anything")


# ---------------------------------------------------------------------------
# Spans and the sink
# ---------------------------------------------------------------------------


class TestSpans:
    def test_scoped_span_stamps_open_and_close_times(self):
        telemetry, env = bound_sink()
        env.now = 1.0
        with telemetry.span("rank0", "compute", "rank"):
            env.now = 3.0
        (span,) = telemetry.spans
        assert (span.start, span.end, span.kind) == (1.0, 3.0, "scoped")
        assert span.seconds == 2.0
        assert span.track == "rank0"
        assert span.category == "rank"

    def test_set_attaches_midflight_args(self):
        telemetry, _ = bound_sink()
        with telemetry.async_span("fabric", "xfer", "fabric", nbytes=64) as span:
            span.set(rate=1e9)
        (record,) = telemetry.spans
        assert record.args == {"nbytes": 64, "rate": 1e9}
        assert record.kind == "async"

    def test_exception_flags_error_and_still_records(self):
        telemetry, env = bound_sink()
        with pytest.raises(RuntimeError):
            with telemetry.span("rank0", "compute"):
                env.now = 2.0
                raise RuntimeError("boom")
        (span,) = telemetry.spans
        assert span.error
        assert span.args["error"] == "RuntimeError: boom"
        assert span.end == 2.0

    def test_instant_has_zero_duration(self):
        telemetry, env = bound_sink()
        env.now = 0.25
        telemetry.instant("job", "job:start", "job", ranks=4)
        (span,) = telemetry.spans
        assert span.kind == "instant"
        assert span.start == span.end == 0.25
        assert span.args == {"ranks": 4}

    def test_record_span_rejects_negative_duration(self):
        telemetry, _ = bound_sink()
        with pytest.raises(TelemetryError, match="ends before it starts"):
            telemetry.record_span("rank0", "compute", "rank", 2.0, 1.0)

    @pytest.mark.parametrize("start, end", [(math.nan, 1.0), (0.0, math.nan)])
    def test_record_span_rejects_nan_bounds(self, start, end):
        # A NaN bound would reach the Chrome export as a bare ``NaN``,
        # which strict JSON parsers and Perfetto reject.
        telemetry, _ = bound_sink()
        with pytest.raises(TelemetryError, match="ends before it starts"):
            telemetry.record_span("rank0", "x", "rank", start, end)
        assert telemetry.spans == []

    def test_null_span_is_inert(self):
        with NULL_SPAN as handle:
            handle.set(anything="goes")
        assert handle is NULL_SPAN
        # __exit__ must not swallow exceptions.
        assert NULL_SPAN.__exit__(RuntimeError, RuntimeError("x"), None) is False


class TestSink:
    def test_negative_sample_interval_rejected(self):
        with pytest.raises(TelemetryError, match="sample_interval"):
            Telemetry(sample_interval=-0.1)

    def test_nan_sample_interval_rejected(self):
        with pytest.raises(TelemetryError, match="sample_interval"):
            Telemetry(sample_interval=math.nan)

    def test_rebinding_same_env_is_idempotent(self):
        telemetry, env = bound_sink()
        telemetry.bind_env(env)
        assert telemetry.now == env.now

    def test_rebinding_different_env_rejected(self):
        telemetry, _ = bound_sink()
        with pytest.raises(TelemetryError, match="already bound"):
            telemetry.bind_env(FakeEnv())

    def test_unbound_sink_reads_time_zero(self):
        assert Telemetry(sample_interval=0).now == 0.0

    def test_span_counts_by_category_sorted(self):
        telemetry, _ = bound_sink()
        telemetry.instant("t", "a", "mpi")
        telemetry.instant("t", "b", "cuda")
        telemetry.instant("t", "c", "mpi")
        assert telemetry.span_counts() == {"cuda": 1, "mpi": 2}
        assert list(telemetry.span_counts()) == ["cuda", "mpi"]

    def test_tracks_merge_spans_and_samples_sorted(self):
        telemetry, _ = bound_sink()
        telemetry.instant("rank1", "x")
        telemetry.sample("fabric", "link_utilization", 0.5)
        assert telemetry.tracks() == ["fabric", "rank1"]

    def test_sample_coerces_value_to_float(self):
        telemetry, env = bound_sink()
        env.now = 1.5
        telemetry.sample("fabric", "active_flows", 3)
        (point,) = telemetry.samples
        assert point.value == 3.0
        assert isinstance(point.value, float)
        assert point.time == 1.5


class TestNullTelemetry:
    def test_disabled_and_clockless(self):
        assert NULL.enabled is False
        assert NULL.sample_interval == 0.0
        assert NULL.now == 0.0
        NULL.bind_env(object())  # accepted, ignored
        assert NULL.now == 0.0

    def test_span_factories_return_the_shared_null_span(self):
        assert NULL.span("t", "n") is NULL_SPAN
        assert NULL.async_span("t", "n") is NULL_SPAN

    def test_instrument_factories_share_one_null_instrument(self):
        counter = NULL.counter("a")
        assert NULL.gauge("b") is counter
        assert NULL.histogram("c") is counter
        counter.inc()
        counter.set(5.0)
        counter.add(1.0)
        counter.observe(2.0)
        assert counter.value() == 0.0
        assert counter.labels(kind="send") is counter

    def test_record_hooks_accumulate_nothing(self):
        sink = NullTelemetry()
        sink.record_span("t", "n", "c", 0.0, 1.0)
        sink.instant("t", "n")
        sink.sample("t", "n", 1.0)
        assert not hasattr(sink, "spans")
        assert not hasattr(sink, "samples")


# ---------------------------------------------------------------------------
# The utilization sampler
# ---------------------------------------------------------------------------


def _idle_cluster(nodes: int = 2) -> Cluster:
    return Cluster(tx1_cluster_spec(nodes, "10G"))


class TestSampler:
    def test_zero_interval_rejected(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.0)
        with pytest.raises(TelemetryError, match="must be positive"):
            UtilizationSampler(telemetry, cluster)

    def test_negative_explicit_interval_rejected(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.1)
        with pytest.raises(TelemetryError, match="must be positive"):
            UtilizationSampler(telemetry, cluster, interval=-1.0)

    def test_interval_defaults_to_sink_sample_interval(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.25)
        sampler = UtilizationSampler(telemetry, cluster)
        assert sampler.interval == 0.25

    def test_sampler_ticks_and_self_terminates(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.5)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()

        def ticker(env):
            yield env.timeout(1.6)

        cluster.env.process(ticker(cluster.env))
        cluster.env.run()  # terminates: the sampler stops on an empty queue
        assert sampler.samples_taken >= 3
        assert math.isinf(cluster.env.peek())
        # Per tick: nic + cpu + gpu per node, link util + active flows.
        per_tick = 3 * len(cluster.nodes) + 2
        assert len(telemetry.samples) == sampler.samples_taken * per_tick

    def test_stop_halts_before_first_sample(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.5)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()
        sampler.stop()

        def ticker(env):
            yield env.timeout(2.0)

        cluster.env.process(ticker(cluster.env))
        cluster.env.run()
        assert sampler.samples_taken == 0
        assert telemetry.samples == []

    def test_start_is_idempotent(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.5)
        sampler = UtilizationSampler(telemetry, cluster)
        assert sampler.start() is sampler.start()

    def test_idle_cluster_samples_read_zero_utilization(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=1.0)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()

        def ticker(env):
            yield env.timeout(1.0)

        cluster.env.process(ticker(cluster.env))
        cluster.env.run()
        assert sampler.samples_taken >= 1
        assert all(point.value == 0.0 for point in telemetry.samples)

    def test_finish_emits_trailing_partial_interval(self):
        # A job ending between ticks must still see its final work sampled.
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=1.0)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()

        def ticker(env):
            yield env.timeout(1.3)

        proc = cluster.env.process(ticker(cluster.env))
        cluster.env.run(until=proc)  # stops mid-interval, like a job does
        ticks = sampler.samples_taken
        sampler.stop()
        sampler.finish()
        assert sampler.samples_taken == ticks + 1
        assert max(point.time for point in telemetry.samples) == pytest.approx(1.3)

    def test_finish_is_idempotent(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=1.0)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()

        def ticker(env):
            yield env.timeout(0.4)

        proc = cluster.env.process(ticker(cluster.env))
        cluster.env.run(until=proc)
        sampler.stop()
        sampler.finish()
        taken = sampler.samples_taken
        sampler.finish()
        assert sampler.samples_taken == taken

    def test_finish_on_tick_boundary_adds_nothing(self):
        cluster = _idle_cluster()
        telemetry = Telemetry(sample_interval=0.5)
        sampler = UtilizationSampler(telemetry, cluster)
        sampler.start()

        def ticker(env):
            yield env.timeout(1.0)

        cluster.env.process(ticker(cluster.env))
        # Free-run: the sampler self-terminates right after its t=1.0 tick,
        # so the clock sits exactly on the last sample.
        cluster.env.run()
        ticks = sampler.samples_taken
        sampler.stop()
        sampler.finish()  # now == last tick time: zero-length interval
        assert sampler.samples_taken == ticks

    def test_job_run_samples_through_its_end(self):
        # End-to-end: the last sample of an instrumented run lands exactly
        # at job completion, not at the last whole tick before it.
        from repro.bench.runner import run_workload

        telemetry = Telemetry(sample_interval=0.5)
        run = run_workload("jacobi", nodes=2, use_cache=False,
                           telemetry=telemetry)
        last = max(point.time for point in telemetry.samples)
        assert last == pytest.approx(run.result.elapsed_seconds)
        assert last != pytest.approx(
            0.5 * int(run.result.elapsed_seconds / 0.5))


# ---------------------------------------------------------------------------
# Integration: full workload runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    """One telemetry-enabled + traced cloverleaf run shared by the module."""
    clear_cache()
    telemetry = Telemetry(sample_interval=0.001)
    run = run_workload(
        "cloverleaf", nodes=4, network="10G", steps=2,
        traced=True, use_cache=False, telemetry=telemetry,
    )
    return run, telemetry


def _assert_one_sink_record_per_trace_event(trace, telemetry):
    """The Trace and the sink hold each event once apiece, with equal bounds.

    The MPI layer's span is the sink's record of a message, and ``Job``'s
    ``rank`` span that of a state or marker; no rank span mirrors a message.
    """
    assert not [s for s in telemetry.spans
                if s.name.startswith(("comm->", "recv<-"))]

    def spans(predicate):
        return collections.Counter(
            (s.track, s.name, s.start, s.end) for s in telemetry.spans
            if predicate(s)
        )

    assert spans(lambda s: s.name.startswith("mpi.send->")) == collections.Counter(
        (f"rank{c.src}", f"mpi.send->r{c.dst}", c.start, c.end)
        for c in trace.comms
    )
    assert spans(lambda s: s.name == "mpi.recv") == collections.Counter(
        (f"rank{r.rank}", "mpi.recv", r.start, r.end) for r in trace.recvs
    )
    expected = collections.Counter(
        (f"rank{s.rank}", s.state, s.start, s.end) for s in trace.states
    )
    expected.update(
        (f"rank{m.rank}", m.label, m.time, m.time) for m in trace.markers
    )
    assert spans(lambda s: s.category == "rank") == expected


class TestWorkloadIntegration:
    def test_spans_cover_at_least_four_layers(self, traced_run):
        _, telemetry = traced_run
        categories = set(telemetry.span_counts())
        assert {"cuda", "fabric", "mpi", "rank", "job"} <= categories

    def test_tracks_cover_ranks_cuda_and_fabric(self, traced_run):
        _, telemetry = traced_run
        tracks = set(telemetry.tracks())
        assert {"rank0", "rank3", "cuda.node0", "fabric", "job"} <= tracks

    def test_fabric_bytes_counter_matches_job_result(self, traced_run):
        run, telemetry = traced_run
        counter = telemetry.registry.get("fabric_bytes_total")
        assert counter is not None
        assert counter.value() == pytest.approx(run.result.network_bytes)

    def test_sim_kernel_counters_progress(self, traced_run):
        _, telemetry = traced_run
        events = telemetry.registry.get("sim_events_processed_total")
        procs = telemetry.registry.get("sim_processes_started_total")
        assert events.value() > 0
        assert procs.value() > 0

    def test_mpi_send_and_recv_totals_balance(self, traced_run):
        _, telemetry = traced_run
        messages = telemetry.registry.get("mpi_messages_total")
        assert messages.value(kind="send") > 0
        assert messages.value(kind="recv") == messages.value(kind="send")

    def test_cuda_kernel_instruments_populated(self, traced_run):
        _, telemetry = traced_run
        kernels = telemetry.registry.get("cuda_kernels_total")
        seconds = telemetry.registry.get("cuda_kernel_seconds")
        assert kernels.value() > 0
        assert seconds.snapshot().count == kernels.value()

    def test_sampler_produced_link_utilization_series(self, traced_run):
        _, telemetry = traced_run
        names = {p.name for p in telemetry.samples if p.track == "fabric"}
        assert "link_utilization" in names
        assert telemetry.registry.get("fabric_link_utilization") is not None

    def test_job_markers_bound_the_run(self, traced_run):
        run, telemetry = traced_run
        job_spans = [s for s in telemetry.spans if s.category == "job"]
        names = [s.name for s in job_spans]
        assert names == ["job:start", "job:end"]
        end = next(s for s in job_spans if s.name == "job:end")
        assert end.args["elapsed"] == pytest.approx(run.result.elapsed_seconds)

    def test_elapsed_gauge_matches_result(self, traced_run):
        run, telemetry = traced_run
        gauge = telemetry.registry.get("job_elapsed_seconds")
        assert gauge.value() == pytest.approx(run.result.elapsed_seconds)

    def test_one_sink_record_per_trace_event(self, traced_run):
        run, telemetry = traced_run
        assert run.trace.comms and run.trace.states and run.trace.markers
        _assert_one_sink_record_per_trace_event(run.trace, telemetry)

    def test_gather_receives_are_recorded_once(self):
        telemetry = Telemetry(sample_interval=0)
        tracer = Tracer(4)
        job = Job(Cluster(tx1_cluster_spec(4, "10G")), tracer=tracer,
                  telemetry=telemetry)

        def program(ctx):
            return (yield from ctx.comm.gather(ctx.rank, root=0))

        assert job.run(program).rank_values[0] == [0, 1, 2, 3]
        trace = tracer.finalize()
        assert len(trace.recvs) == 3
        _assert_one_sink_record_per_trace_event(trace, telemetry)

    def test_tracerless_run_still_emits_rank_spans(self):
        telemetry = Telemetry(sample_interval=0)
        run_workload(
            "jacobi", nodes=2, network="10G", n=256, iterations=2,
            traced=False, use_cache=False, telemetry=telemetry,
        )
        assert telemetry.span_counts().get("rank", 0) > 0

    def test_tracerless_run_records_copy_states_and_iteration_markers(self):
        def rank_records(traced):
            telemetry = Telemetry(sample_interval=0)
            run_workload("cloverleaf", nodes=2, traced=traced, use_cache=False,
                         telemetry=telemetry)
            return [(s.track, s.name, s.start, s.end, s.kind)
                    for s in telemetry.spans
                    if s.category == "rank" and s.name in ("copy", "iteration")]

        traced = rank_records(traced=True)
        assert {name for _, name, *_ in traced} == {"copy", "iteration"}
        assert rank_records(traced=False) == traced

    def test_fault_windows_emit_fault_spans_and_counter(self):
        telemetry = Telemetry(sample_interval=0)
        workload = make_workload("jacobi", n=256, iterations=3)
        cluster = Cluster(tx1_cluster_spec(2, "10G"))
        schedule = FaultSchedule(
            [NicDegradation(node_id=0, start=0.0, end=math.inf, multiplier=0.5)]
        )
        workload.run_on(cluster, faults=schedule, telemetry=telemetry)
        fault_spans = [s for s in telemetry.spans if s.category == "fault"]
        assert any(s.name == "fault:nic:node0" for s in fault_spans)
        counter = telemetry.registry.get("faults_activated_total")
        assert counter.value(type="nic") == 1.0


# ---------------------------------------------------------------------------
# Determinism: telemetry must never perturb the simulation
# ---------------------------------------------------------------------------


def _fingerprint(result):
    return (
        result.elapsed_seconds,
        result.network_bytes,
        result.gpu_flops,
        result.cpu_flops,
        result.gpu_dram_bytes,
        tuple(result.comm_seconds),
        result.comm_retries,
    )


def _small_run(telemetry=None):
    return run_workload(
        "jacobi", nodes=2, network="10G", n=256, iterations=3,
        use_cache=False, telemetry=telemetry,
    )


class TestDeterminism:
    def test_telemetry_run_bit_identical_to_plain_run(self):
        plain = _small_run()
        telemetered = _small_run(Telemetry(sample_interval=0.001))
        assert _fingerprint(plain.result) == _fingerprint(telemetered.result)

    def test_null_sink_bit_identical_to_plain_run(self):
        plain = _small_run()
        nulled = _small_run(NullTelemetry())
        assert _fingerprint(plain.result) == _fingerprint(nulled.result)

    def test_identical_runs_export_identical_chrome_json(self):
        blobs = []
        for _ in range(2):
            telemetry = Telemetry(sample_interval=0.001)
            _small_run(telemetry)
            stream = io.StringIO()
            write_chrome_trace(telemetry, stream)
            blobs.append(stream.getvalue())
        assert blobs[0] == blobs[1]

    def test_identical_runs_export_identical_prometheus_text(self):
        texts = []
        for _ in range(2):
            telemetry = Telemetry(sample_interval=0.001)
            _small_run(telemetry)
            texts.append(to_prometheus_text(telemetry.registry))
        assert texts[0] == texts[1]

    def test_chrome_trace_declares_simulated_timebase(self):
        telemetry = Telemetry(sample_interval=0)
        _small_run(telemetry)
        document = to_chrome_trace(telemetry)
        assert document["otherData"]["timebase"] == "simulated"
        # No wall-clock or host-identity field anywhere in the document.
        serialized = json.dumps(document)
        for leak in ("hostname", "wall", "2026", "date"):
            assert leak not in serialized


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


@pytest.fixture()
def populated_sink():
    telemetry, env = bound_sink()
    env.now = 1.0
    with telemetry.span("rank0", "compute", "rank", flops=100):
        env.now = 2.0
    with telemetry.async_span("fabric", "xfer n0->n1", "fabric"):
        env.now = 2.5
    telemetry.instant("job", "job:end", "job")
    telemetry.sample("fabric", "link_utilization", 0.5)
    telemetry.counter("bytes_total", "bytes moved", unit="bytes").inc(64.0)
    telemetry.gauge("flows", labelnames=("node",)).set(2.0, node="0")
    histogram = telemetry.histogram("lat", "latency", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe(5.0)
    histogram.observe(50.0)
    return telemetry


class TestChromeExporter:
    def test_metadata_names_every_track_with_sorted_pids(self, populated_sink):
        document = to_chrome_trace(populated_sink)
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = [e["args"]["name"] for e in meta if e["name"] == "process_name"]
        assert names == ["fabric", "job", "rank0"]  # sorted == pid order
        pids = [e["pid"] for e in meta if e["name"] == "process_name"]
        assert pids == [0, 1, 2]

    def test_scoped_span_exports_complete_event_in_microseconds(self, populated_sink):
        document = to_chrome_trace(populated_sink)
        (event,) = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert event["name"] == "compute"
        assert event["ts"] == pytest.approx(1e6)
        assert event["dur"] == pytest.approx(1e6)
        assert event["args"] == {"flops": 100}

    def test_async_span_exports_balanced_begin_end_pair(self, populated_sink):
        document = to_chrome_trace(populated_sink)
        begins = [e for e in document["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in document["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["id"] == ends[0]["id"]
        assert begins[0]["ts"] <= ends[0]["ts"]

    def test_instant_and_counter_events_present(self, populated_sink):
        document = to_chrome_trace(populated_sink)
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"M", "X", "b", "e", "i", "C"} <= phases
        (instant,) = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instant["s"] == "p"
        (sample,) = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert sample["args"] == {"link_utilization": 0.5}

    def test_write_chrome_trace_round_trips_as_json(self, populated_sink, tmp_path):
        path = tmp_path / "trace.json"
        with open(path, "w", encoding="utf-8") as handle:
            write_chrome_trace(populated_sink, handle)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) > 0


class TestPrometheusExporter:
    def test_help_and_type_lines_per_instrument(self, populated_sink):
        text = to_prometheus_text(populated_sink.registry)
        assert "# HELP bytes_total bytes moved [bytes]\n" in text
        assert "# TYPE bytes_total counter\n" in text
        assert "# TYPE flows gauge\n" in text
        assert "# TYPE lat histogram\n" in text

    def test_counter_and_gauge_sample_lines(self, populated_sink):
        text = to_prometheus_text(populated_sink.registry)
        assert "\nbytes_total 64\n" in text
        assert '\nflows{node="0"} 2\n' in text

    def test_histogram_buckets_are_cumulative_with_inf(self, populated_sink):
        text = to_prometheus_text(populated_sink.registry)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 55.5" in text
        assert "lat_count 3" in text

    def test_families_are_name_sorted(self, populated_sink):
        text = to_prometheus_text(populated_sink.registry)
        helps = [l for l in text.splitlines() if l.startswith("# HELP")]
        names = [l.split()[2] for l in helps]
        assert names == sorted(names)

    def test_empty_registry_renders_empty_string(self):
        assert to_prometheus_text(Registry()) == ""

    def test_labeled_histogram_buckets_cumulative_per_label_tuple(self):
        registry = Registry()
        hist = registry.histogram(
            "rtt", "round trips", labelnames=("link",), buckets=(1.0, 10.0)
        )
        hist.observe(0.5, link="eth0")
        hist.observe(5.0, link="eth0")
        hist.observe(99.0, link="eth0")
        hist.observe(0.1, link="ib0")
        text = to_prometheus_text(registry)
        assert '\nrtt_bucket{link="eth0",le="1"} 1\n' in text
        assert '\nrtt_bucket{link="eth0",le="10"} 2\n' in text
        assert '\nrtt_bucket{link="eth0",le="+Inf"} 3\n' in text
        assert '\nrtt_bucket{link="ib0",le="+Inf"} 1\n' in text
        assert '\nrtt_sum{link="eth0"} 104.5\n' in text
        assert '\nrtt_count{link="ib0"} 1\n' in text

    def test_label_values_with_spaces_survive_unquoted(self):
        registry = Registry()
        gauge = registry.gauge("g", labelnames=("spec",))
        gauge.set(1.0, spec="jacobi on tx1 x4")
        assert '\ng{spec="jacobi on tx1 x4"} 1\n' in to_prometheus_text(
            registry
        )

    def test_label_values_escape_quotes_backslashes_newlines(self):
        registry = Registry()
        gauge = registry.gauge("g", labelnames=("spec",))
        gauge.set(1.0, spec='say "hi"\\now\nplease')
        text = to_prometheus_text(registry)
        assert '\ng{spec="say \\"hi\\"\\\\now\\nplease"} 1\n' in text
        # The rendered sample stays one physical line.
        sample = [l for l in text.splitlines() if l.startswith("g{")]
        assert len(sample) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_parser_accepts_telemetry_arguments(self):
        args = build_parser().parse_args(
            ["run", "jacobi", "--trace-out", "t.json",
             "--metrics-out", "m.txt", "--sample-interval", "0.01"]
        )
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.txt"
        assert args.sample_interval == 0.01

    def test_telemetry_subcommand_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.workload == "cloverleaf"
        assert args.nodes == 4
        assert args.sample_interval == 0.1

    @pytest.mark.parametrize("interval", ["nan", "-1"])
    def test_bad_sample_interval_is_a_usage_error(self, interval, capsys):
        code = main(["telemetry", "jacobi", "--nodes", "2",
                     "--sample-interval", interval])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro telemetry: sample_interval")

    def test_run_timeline_defaults(self):
        args = build_parser().parse_args(["run", "jacobi", "--timeline"])
        assert args.timeline is True
        assert args.width == 100

    def test_run_with_trace_out_writes_chrome_json(self, tmp_path, capsys):
        trace_path = tmp_path / "run.json"
        code = main(["run", "jacobi", "--nodes", "2",
                     "--trace-out", str(trace_path)])
        assert code == 0
        document = json.loads(trace_path.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "b", "e"} <= phases
        assert "wrote Chrome trace" in capsys.readouterr().out

    def test_telemetry_subcommand_writes_both_outputs(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.txt"
        code = main(["telemetry", "ep", "--nodes", "2",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans" in out
        json.loads(trace_path.read_text())
        metrics = metrics_path.read_text()
        assert "# TYPE sim_events_processed_total counter" in metrics

    def test_run_timeline_prints_timeline(self, capsys):
        code = main(["run", "jacobi", "--nodes", "2", "--timeline",
                     "--width", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out.lower()

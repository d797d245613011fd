"""Tests for the telemetry subsystem (:mod:`repro.telemetry`).

The acceptance properties of the observability layer live here:

* the registry loses **no increments** under thread contention;
* sweep shard snapshots merged across 4 workers equal a serial run's
  totals — and the rows stay byte-identical either way;
* attaching a tracer leaves every engine's final state **bit-identical**
  to the untraced run (the tracer consumes no RNG);
* the Prometheus exposition and the trace JSONL follow their documented
  schemas (docs/OBSERVABILITY.md);
* the live service answers ``GET /v1/metrics`` with non-zero request and
  job counters after a workload.
"""

from __future__ import annotations

import json
import math
import pickle
import threading

import numpy as np
import pytest

from repro.core.dynamics import ConcurrentDynamics
from repro.core.ensemble import EnsembleDynamics
from repro.core.imitation import ImitationProtocol
from repro.core.native import run_native_ensemble
from repro.errors import TelemetryError
from repro.experiments.runner import run_all
from repro.games.singleton import make_linear_singleton
from repro.sweeps import SweepSpec, SweepStore, run_sweep
from repro.telemetry import (
    DEFAULT_DURATION_BUCKETS,
    JsonlTraceSink,
    ListTraceSink,
    MetricsRegistry,
    MetricsSnapshot,
    NullLogger,
    RoundTracer,
    StructuredLogger,
    make_run_id,
)


# ----------------------------------------------------------------------
# Registry: counters, gauges, histograms
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc()
        registry.counter("jobs_total").inc(2)
        registry.gauge("depth").set(5)
        registry.gauge("depth").dec()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap.value("jobs_total") == 3
        assert snap.value("depth") == 4
        sample = snap.value("lat_seconds")
        assert sample["counts"] == [1, 1, 1]  # one per bucket + overflow
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)

    def test_labels_create_separate_children(self):
        registry = MetricsRegistry()
        registry.counter("http_requests_total", method="GET").inc()
        registry.counter("http_requests_total", method="POST").inc(4)
        snap = registry.snapshot()
        assert snap.value("http_requests_total", method="GET") == 1
        assert snap.value("http_requests_total", method="POST") == 4

    def test_same_name_same_labels_is_same_child(self):
        registry = MetricsRegistry()
        assert registry.counter("c", route="/x") is registry.counter(
            "c", route="/x")

    def test_kind_conflicts_and_bad_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("thing_total")
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(TelemetryError, match="strictly"):
            registry.histogram("h", buckets=(1.0, 1.0))
        registry.histogram("h2", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError, match="buckets"):
            registry.histogram("h2", buckets=(1.0, 3.0))

    def test_counter_rejects_negative_and_nonfinite(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(TelemetryError):
            counter.inc(-1)
        with pytest.raises(TelemetryError):
            counter.inc(math.nan)

    def test_no_lost_increments_under_thread_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        hist = registry.histogram("obs_seconds", buckets=(0.5,))
        threads, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                counter.inc()
                registry.gauge("depth").inc()
                hist.observe(0.1)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snap = registry.snapshot()
        assert snap.value("hits_total") == threads * per_thread
        assert snap.value("depth") == threads * per_thread
        assert snap.value("obs_seconds")["count"] == threads * per_thread


# ----------------------------------------------------------------------
# Snapshots: pickling, merging, rendering
# ----------------------------------------------------------------------

def small_snapshot(points: int) -> MetricsSnapshot:
    registry = MetricsRegistry()
    registry.counter("points_total").inc(points)
    registry.gauge("depth").set(points)
    hist = registry.histogram("seconds", buckets=(1.0, 10.0))
    for _ in range(points):
        hist.observe(0.5)
    return registry.snapshot()


class TestMetricsSnapshot:
    def test_pickle_roundtrip(self):
        snap = small_snapshot(3)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.to_dict() == snap.to_dict()

    def test_json_roundtrip(self):
        snap = small_snapshot(2)
        clone = MetricsSnapshot.from_dict(json.loads(snap.to_json()))
        assert clone.to_dict() == snap.to_dict()

    def test_merge_adds_counters_histograms_maxes_gauges(self):
        merged = small_snapshot(3).merge(small_snapshot(5))
        assert merged.value("points_total") == 8
        assert merged.value("depth") == 5  # max, not sum
        assert merged.value("seconds")["count"] == 8

    def test_merge_rejects_bucket_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("seconds", buckets=(2.0,)).observe(1.0)
        with pytest.raises(TelemetryError, match="bucket"):
            small_snapshot(1).merge(registry.snapshot())

    def test_registry_merge_folds_snapshot_into_live_metrics(self):
        registry = MetricsRegistry()
        registry.counter("points_total").inc(10)
        registry.merge(small_snapshot(4).to_dict())
        snap = registry.snapshot()
        assert snap.value("points_total") == 14
        assert snap.value("seconds")["count"] == 4

    def test_value_raises_on_unknown_sample(self):
        with pytest.raises(TelemetryError, match="no sample"):
            small_snapshot(1).value("nope")

    def test_flat_view_reduces_histograms(self):
        flat = small_snapshot(2).flat()
        assert flat["points_total"] == 2
        assert flat["seconds_count"] == 2
        assert "seconds_sum" in flat


class TestPrometheusExposition:
    def test_schema(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served.",
                         method="GET", route="/v1/jobs/{id}").inc(7)
        registry.gauge("queued", "Queue depth.").set(2)
        hist = registry.histogram("latency_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 9.0):
            hist.observe(value)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_requests_total Requests served." in lines
        assert "# TYPE repro_requests_total counter" in lines
        assert ('repro_requests_total{method="GET",'
                'route="/v1/jobs/{id}"} 7') in lines
        assert "repro_queued 2" in lines
        # histogram buckets are cumulative and end at +Inf
        assert 'repro_latency_seconds_bucket{le="0.1"} 2' in lines
        assert 'repro_latency_seconds_bucket{le="1"} 3' in lines
        assert 'repro_latency_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_latency_seconds_sum 9.6" in lines
        assert "repro_latency_seconds_count 4" in lines
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c').inc()
        assert r'c{path="a\"b\\c"} 1' in registry.render_prometheus()


# ----------------------------------------------------------------------
# Tracing: sinks, sampling, schema
# ----------------------------------------------------------------------

def quick_game():
    return make_linear_singleton(30, [1.0, 2.0, 4.0])


def quick_protocol():
    # lambda_=1.0 without the nu threshold keeps the dynamics moving for a
    # few rounds from an even split, so traces have round events to check.
    return ImitationProtocol(lambda_=1.0, use_nu_threshold=False)


class TestRoundTracer:
    def test_make_run_id_is_deterministic_and_short(self):
        assert make_run_id({"a": 1}) == make_run_id({"a": 1})
        assert make_run_id({"a": 1}) != make_run_id({"a": 2})
        assert len(make_run_id("spec-hash")) == 12

    def test_rejects_bad_sampling(self):
        with pytest.raises(TelemetryError, match="every"):
            RoundTracer(ListTraceSink(), every=0)

    def test_event_schema_and_brackets(self):
        sink = ListTraceSink()
        tracer = RoundTracer(sink, run_id="abc")
        ConcurrentDynamics(quick_game(), quick_protocol(), rng=3).run(
            [10, 10, 10], max_rounds=50, trace=tracer)
        events = sink.events
        assert events[0]["event"] == "run_started"
        assert events[0]["engine"] == "loop"
        assert events[0]["players"] == 30
        assert events[-1]["event"] == "run_finished"
        assert events[-1]["converged"] is True
        rounds = [e for e in events if e["event"] == "round"]
        assert rounds, "expected at least one round event"
        assert [e["round"] for e in rounds] == list(
            range(1, len(rounds) + 1))
        for event in events:
            assert event["run_id"] == "abc"
            assert event["wall_seconds"] >= 0
        first = rounds[0]
        assert {"live_replicas", "migrations", "potential_mean",
                "social_cost_mean"} <= set(first)
        if len(rounds) > 1:
            assert "potential_delta" in rounds[1]
        # the whole trace is JSON-serialisable (finite floats only)
        json.dumps(events, allow_nan=False)

    def test_every_downsamples_round_events(self):
        dense, sparse = ListTraceSink(), ListTraceSink()
        ConcurrentDynamics(quick_game(), quick_protocol(), rng=3).run(
            [10, 10, 10], max_rounds=50, trace=RoundTracer(dense))
        ConcurrentDynamics(quick_game(), quick_protocol(), rng=3).run(
            [10, 10, 10], max_rounds=50,
            trace=RoundTracer(sparse, every=2))
        dense_rounds = [e for e in dense.events if e["event"] == "round"]
        sparse_rounds = [e for e in sparse.events if e["event"] == "round"]
        assert len(sparse_rounds) == len(dense_rounds) // 2
        assert all(e["round"] % 2 == 0 for e in sparse_rounds)

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace" / "run.jsonl"
        with RoundTracer(JsonlTraceSink(path), run_id="xyz") as tracer:
            ConcurrentDynamics(quick_game(), quick_protocol(), rng=3).run(
                [10, 10, 10], max_rounds=50, trace=tracer)
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "run_started"
        assert events[-1]["event"] == "run_finished"
        assert all(event["run_id"] == "xyz" for event in events)


class TestTracedRunsAreBitIdentical:
    """A tracer consumes no RNG: per engine parity tier, the traced final
    state equals the untraced one exactly."""

    def test_loop_engine(self):
        untraced = ConcurrentDynamics(quick_game(), quick_protocol(),
                                      rng=7).run([10, 10, 10], max_rounds=60)
        traced = ConcurrentDynamics(quick_game(), quick_protocol(),
                                    rng=7).run([10, 10, 10], max_rounds=60,
                                               trace=RoundTracer(ListTraceSink()))
        assert traced.rounds == untraced.rounds
        assert np.array_equal(traced.final_state.counts,
                              untraced.final_state.counts)
        assert traced.total_migrations == untraced.total_migrations

    def test_batch_engine(self):
        untraced = EnsembleDynamics(quick_game(), quick_protocol(),
                                    rng=7).run(replicas=5, max_rounds=60)
        traced = EnsembleDynamics(quick_game(), quick_protocol(),
                                  rng=7).run(replicas=5, max_rounds=60,
                                             trace=RoundTracer(ListTraceSink()))
        assert np.array_equal(traced.final_states.to_array(),
                              untraced.final_states.to_array())
        assert np.array_equal(traced.rounds, untraced.rounds)

    def test_native_engine_chunk_tracing(self, native_kernel):
        sink = ListTraceSink()
        untraced = run_native_ensemble(quick_game(), quick_protocol(),
                                       replicas=5, max_rounds=60, rng=7)
        traced = run_native_ensemble(quick_game(), quick_protocol(),
                                     replicas=5, max_rounds=60, rng=7,
                                     trace=RoundTracer(sink))
        assert np.array_equal(traced.final_states.to_array(),
                              untraced.final_states.to_array())
        assert np.array_equal(traced.rounds, untraced.rounds)
        kinds = [event["event"] for event in sink.events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        # native reports coarsely at chunk boundaries, never per round
        assert "chunk" in kinds and "round" not in kinds

    def test_native_batch_round_traces_per_round(self, batch_round):
        """Without numba, native runs the batch round and traces it per
        round; the trace still names the engine the caller chose."""
        sink = ListTraceSink()
        untraced = EnsembleDynamics(quick_game(), quick_protocol(),
                                    rng=7).run(replicas=5, max_rounds=60,
                                               backend="native")
        traced = EnsembleDynamics(quick_game(), quick_protocol(),
                                  rng=7).run(replicas=5, max_rounds=60,
                                             backend="native",
                                             trace=RoundTracer(sink))
        assert np.array_equal(traced.final_states.to_array(),
                              untraced.final_states.to_array())
        kinds = [event["event"] for event in sink.events]
        assert sink.events[0]["engine"] == "native"
        assert "round" in kinds and "chunk" not in kinds


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------

class TestStructuredLogger:
    def test_writes_one_json_line_per_event(self):
        import io

        stream = io.StringIO()
        logger = StructuredLogger(stream, component="http")
        logger.log("http_request", method="GET", status=200)
        record = json.loads(stream.getvalue())
        assert record["event"] == "http_request"
        assert record["component"] == "http"
        assert record["method"] == "GET"
        assert record["status"] == 200
        assert record["ts"] > 0

    def test_null_logger_is_silent(self):
        NullLogger().log("anything", x=1)  # must not raise


# ----------------------------------------------------------------------
# Sweep scheduler instrumentation
# ----------------------------------------------------------------------

def tiny_spec(**overrides) -> SweepSpec:
    config = dict(
        name="tele-tiny",
        game="linear-singleton",
        protocol="imitation",
        measure="approx_equilibrium_time",
        axes={"n": [24, 48, 96], "epsilon": [0.4, 0.2]},
        base={"coeffs": [0.5, 1.0, 2.0, 4.0], "delta": 0.25},
        replicas=4,
        max_rounds=200,
        seed=11,
    )
    config.update(overrides)
    return SweepSpec(**config)


class TestSweepTelemetry:
    def test_serial_and_parallel_rows_identical_metrics_equal(self):
        serial = run_sweep(tiny_spec(), workers=1)
        pooled = run_sweep(tiny_spec(), workers=4)
        assert serial.rows == pooled.rows  # telemetry is a side channel
        for result in (serial, pooled):
            snap = result.metrics
            assert snap.value("sweep_points_computed_total") == 6
            assert snap.value("sweep_point_seconds")["count"] == 6
            assert snap.value("sweep_shard_seconds")["count"] >= 1
        assert pooled.metrics.value("sweep_workers") == 4
        utilization = pooled.metrics.value("sweep_worker_utilization")
        assert 0.0 <= utilization <= 1.0

    def test_store_manifest_records_telemetry(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        spec = tiny_spec()
        run_sweep(spec, store=store, workers=2)
        manifest = json.loads(store.manifest_path(spec).read_text())
        stanza = manifest["telemetry"]
        assert stanza["computed"] == 6
        assert stanza["cached"] == 0
        assert stanza["workers"] == 2
        assert stanza["recorded_at"] > 0
        assert "sweep_point_seconds" in stanza["metrics"]["metrics"]

    def test_resume_counts_cached_points(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        spec = tiny_spec()
        run_sweep(spec, store=store)
        again = run_sweep(spec, store=store, resume=True)
        snap = again.metrics
        assert snap.value("sweep_points_cached_total") == 6
        assert snap.value("sweep_resumed_runs_total") == 1
        with pytest.raises(TelemetryError):
            snap.value("sweep_points_computed_total")  # nothing recomputed


# ----------------------------------------------------------------------
# Service instrumentation (E2E over a real HTTP server)
# ----------------------------------------------------------------------

def service_spec(**overrides) -> SweepSpec:
    config = dict(
        name="tele-svc",
        game="linear-singleton",
        protocol="imitation",
        measure="approx_equilibrium_time",
        axes={"n": [16, 32]},
        base={"coeffs": [1.0, 2.0], "delta": 0.3, "epsilon": 0.4},
        replicas=2,
        max_rounds=100,
        seed=5,
    )
    config.update(overrides)
    return SweepSpec(**config)


@pytest.fixture
def service_harness(tmp_path):
    import threading as _threading

    from repro.service import ServiceClient, SweepService, make_server

    service = SweepService(tmp_path / "store", workers=1)
    service.start()
    server = make_server(service)
    thread = _threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    yield service, client
    server.shutdown()
    server.server_close()
    service.stop()
    thread.join(5.0)


class TestServiceMetrics:
    def test_metrics_surface_after_a_workload(self, service_harness):
        service, client = service_harness
        response = client.submit_and_wait(spec=service_spec(), timeout=30.0)
        assert response["job"]["state"] == "done"
        again = client.submit(spec=service_spec())
        assert again["cached"] is True

        text = client.metrics_text()
        assert 'repro_jobs_submitted_total 1' in text
        assert 'repro_jobs_finished_total{state="done"} 1' in text
        assert 'repro_jobs_dedup_hits_total' in text
        assert 'repro_job_seconds_count 1' in text
        # route templates bound cardinality: the polled job id never appears
        assert 'route="/v1/jobs/{id}"' in text
        job_id = response["job"]["job_id"]
        assert job_id not in text
        assert 'repro_http_requests_total{method="GET"' in text
        assert "repro_http_request_seconds_bucket" in text
        # idle again after the workload
        assert "repro_jobs_running 0" in text
        assert "repro_workers_busy 0" in text

        health = client.healthz()
        flat = health["metrics"]
        assert flat["jobs_submitted_total"] == 1
        assert flat['jobs_finished_total{state="done"}'] == 1

    def test_one_registry_carries_queue_and_pool_families(self, service_harness):
        service, _ = service_harness
        families = set(service.registry.snapshot().metrics)
        assert {"jobs_submitted_total", "jobs_queued", "jobs_running",
                "job_seconds", "workers_busy"} <= families


class TestRunAllTelemetry:
    def test_registry_records_experiment_durations(self):
        registry = MetricsRegistry()
        results = run_all(only=["E2"], quick=True, registry=registry)
        assert set(results) == {"E2"}
        snap = registry.snapshot()
        assert snap.value("experiments_run_total") == 1
        sample = snap.value("experiment_seconds", experiment="E2")
        assert sample["count"] == 1
        assert sample["sum"] >= 0

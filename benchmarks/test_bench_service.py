"""Benchmarks and the throughput guard for the sweep service.

The acceptance guard: a warm service (every grid point committed to the
store) must answer at least **200 cached aggregate requests per second**
through the real HTTP stack — daemon thread pool, JSON encoding,
``http.client`` keep-alive, one connection per client thread.  That is the
"equilibrium queries are cheap repeated reads" promise of the service: the
hot path is a disk read plus a group-by, never a recompute.

A companion (unguarded) benchmark times the cache-hit submit path — the
``POST /v1/sweeps`` answered from the store without enqueueing a job.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import ServiceClient, SweepService, make_server
from repro.sweeps import SweepSpec, run_sweep


def warm_spec() -> SweepSpec:
    """A 6-point grid, cheap to compute once and re-read many times."""
    return SweepSpec(
        name="bench-service-warm",
        game="linear-singleton",
        protocol="imitation",
        measure="approx_equilibrium_time",
        axes={"n": [16, 32, 64], "epsilon": [0.4, 0.2]},
        base={"coeffs": [0.5, 1.0, 2.0], "delta": 0.25},
        replicas=4,
        max_rounds=200,
        seed=17,
    )


@pytest.fixture
def warm_service(tmp_path):
    """A service whose store already holds every point of warm_spec()."""
    spec = warm_spec()
    service = SweepService(tmp_path / "store", workers=1).start()
    run_sweep(spec, workers=1, store=service.store)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("http://%s:%s" % server.server_address[:2],
                           timeout=10.0)
    # register the spec with the daemon (a cache-hit submit, no job)
    response = client.submit(spec=spec)
    assert response["cached"], "store warm-up failed"
    yield client, response["spec_hash"]
    server.shutdown()
    server.server_close()
    service.stop()


def test_bench_service_cached_aggregate_rate_at_least_200_per_second(
        benchmark, warm_service):
    """Acceptance guard: >= 200 cached aggregate requests/sec, warm store."""
    client, spec_hash = warm_service
    requests = 300

    def hammer():
        for _ in range(requests):
            rows = client.aggregate(spec_hash, by=["n"])
        return rows

    rows = benchmark.pedantic(hammer, rounds=1, iterations=1,
                              warmup_rounds=0)
    assert [row["n"] for row in rows] == [16, 32, 64]

    rate = requests / benchmark.stats.stats.mean
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["requests_per_second"] = round(rate, 1)
    assert rate >= 200.0, (
        f"warm service served only {rate:.0f} cached aggregate requests/sec "
        f"(needs >= 200)"
    )


def test_bench_service_cached_submit_roundtrip(benchmark, warm_service):
    """Timing reference: the cache-hit submit path (no job enqueued)."""
    client, _ = warm_service
    requests = 100

    def hammer():
        for _ in range(requests):
            response = client.submit(spec=warm_spec())
        return response

    response = benchmark.pedantic(hammer, rounds=1, iterations=1,
                                  warmup_rounds=0)
    assert response["cached"] is True
    benchmark.extra_info["requests_per_second"] = round(
        requests / benchmark.stats.stats.mean, 1)

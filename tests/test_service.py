"""Tests for the sweep service (:mod:`repro.service`).

The end-to-end tests run a real :class:`ThreadingHTTPServer` on an
ephemeral port and talk to it through :class:`ServiceClient` — the same
code path as ``python -m repro submit``.  The acceptance properties of the
subsystem live here:

* submit → poll → fetch returns rows **byte-identical** to a direct
  :func:`run_sweep` of the same spec;
* re-submitting a fully-stored spec is answered from cache without a job;
* concurrent duplicate submits coalesce into one job;
* malformed specs fail with HTTP 400 carrying the ``ReproError`` message;
* the transport is HTTP/1.1 keep-alive: no Nagle stall, one connection per
  client thread, and stale or abandoned connections cost no failed request.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro.experiments.exp_logn_scaling import logn_scaling_spec
from repro.service import (
    JobQueue,
    JobState,
    ServiceClient,
    ServiceError,
    SweepService,
    WorkerPool,
    make_server,
    resolve_spec,
)
from repro.service import server as server_module
from repro.sweeps import SweepSpec, SweepStore, aggregate_rows, run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]


def tiny_spec(**overrides) -> SweepSpec:
    """A 2-point spec that converges within a few rounds."""
    config = dict(
        name="svc-tiny",
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


class ServiceHarness:
    """One service + HTTP server + client, torn down deterministically."""

    def __init__(self, store_root, *, workers: int = 1, start_pool: bool = True):
        self.service = SweepService(store_root, workers=workers)
        if start_pool:
            self.service.start()
        self.server = make_server(self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url, timeout=10.0)

    def close(self):
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.stop()
        self.thread.join(5.0)


@pytest.fixture
def harness(tmp_path):
    harness = ServiceHarness(tmp_path / "store")
    yield harness
    harness.close()


# ----------------------------------------------------------------------
# Payload resolution
# ----------------------------------------------------------------------

class TestResolveSpec:
    def test_spec_payload(self):
        spec, priority = resolve_spec({"spec": tiny_spec().to_dict(),
                                       "priority": 3})
        assert spec == tiny_spec()
        assert priority == 3

    def test_preset_payload_with_overrides(self):
        spec, _ = resolve_spec({"preset": "logn", "quick": True,
                                "overrides": {"replicas": 2}})
        assert spec.replicas == 2
        assert spec.axes == logn_scaling_spec(quick=True).axes

    def test_rejects_spec_and_preset_together(self):
        with pytest.raises(ServiceError, match="exactly one"):
            resolve_spec({"spec": tiny_spec().to_dict(), "preset": "logn"})

    def test_rejects_unknown_top_level_field(self):
        with pytest.raises(ServiceError, match="unknown submit field"):
            resolve_spec({"preset": "logn", "bogus": 1})

    def test_rejects_unknown_preset_naming_known_ones(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="known.*logn"):
            resolve_spec({"preset": "nope"})

    def test_rejects_unknown_override_field_by_name(self):
        from repro.sweeps import SweepError
        with pytest.raises(SweepError, match="turbo"):
            resolve_spec({"preset": "logn", "overrides": {"turbo": True}})

    def test_rejects_non_integer_priority(self):
        with pytest.raises(ServiceError, match="priority"):
            resolve_spec({"preset": "logn", "priority": "high"})

    def test_validates_the_resolved_spec(self):
        bad = tiny_spec().to_dict()
        bad["axes"] = {}
        with pytest.raises(Exception, match="at least one axis"):
            resolve_spec({"spec": bad})


# ----------------------------------------------------------------------
# Job queue
# ----------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue()
        low, _ = queue.submit(tiny_spec(seed=1), priority=0)
        high, _ = queue.submit(tiny_spec(seed=2), priority=5)
        also_low, _ = queue.submit(tiny_spec(seed=3), priority=0)
        order = [queue.claim(timeout=1).job_id for _ in range(3)]
        assert order == [high.job_id, low.job_id, also_low.job_id]

    def test_in_flight_dedup_and_release_after_finish(self):
        queue = JobQueue()
        job, created = queue.submit(tiny_spec())
        again, created_again = queue.submit(tiny_spec())
        assert created and not created_again
        assert again.job_id == job.job_id

        claimed = queue.claim(timeout=1)
        assert claimed.job_id == job.job_id
        # still deduped while running
        running_dup, created_running = queue.submit(tiny_spec())
        assert not created_running and running_dup.job_id == job.job_id

        queue.finish(claimed, summary={"points": 2})
        fresh, created_fresh = queue.submit(tiny_spec())
        assert created_fresh and fresh.job_id != job.job_id

    def test_claim_times_out_when_empty(self):
        assert JobQueue().claim(timeout=0.05) is None

    def test_claim_defers_jobs_on_busy_directories(self):
        queue = JobQueue()
        spec = tiny_spec()
        job, _ = queue.submit(spec)
        # Simulate another worker executing the same store directory.
        with queue._wakeup:
            queue._busy_directories.add(spec.slug())
        assert queue.claim(timeout=0.05) is None
        with queue._wakeup:
            queue._busy_directories.discard(spec.slug())
            queue._wakeup.notify_all()
        assert queue.claim(timeout=1).job_id == job.job_id

    def test_cancel_queued_job_is_idempotent(self):
        queue = JobQueue()
        job, _ = queue.submit(tiny_spec())
        assert queue.cancel(job.job_id).state is JobState.CANCELLED
        assert queue.cancel(job.job_id).state is JobState.CANCELLED
        # a cancelled job no longer blocks resubmission
        fresh, created = queue.submit(tiny_spec())
        assert created and fresh.job_id != job.job_id
        # the claim loop drops the cancelled heap entry, returns the fresh one
        assert queue.claim(timeout=1).job_id == fresh.job_id

    def test_cancel_running_job_is_conflict(self):
        queue = JobQueue()
        queue.submit(tiny_spec())
        job = queue.claim(timeout=1)
        with pytest.raises(ServiceError) as excinfo:
            queue.cancel(job.job_id)
        assert excinfo.value.status == 409

    def test_unknown_job_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            JobQueue().get("job-999999")
        assert excinfo.value.status == 404

    def test_close_unblocks_claim(self):
        queue = JobQueue()
        results = []
        thread = threading.Thread(
            target=lambda: results.append(queue.claim()))
        thread.start()
        queue.close()
        thread.join(2.0)
        assert results == [None]

    def test_failed_job_records_error(self):
        queue = JobQueue()
        queue.submit(tiny_spec())
        job = queue.claim(timeout=1)
        queue.finish(job, error="RuntimeError: boom")
        assert job.state is JobState.FAILED
        assert queue.counts()["failed"] == 1


class TestWorkerPool:
    def test_worker_failure_is_reported_on_the_job(self, tmp_path):
        def exploding_runner(spec, **kwargs):
            raise RuntimeError("kernel exploded")

        queue = JobQueue()
        pool = WorkerPool(queue, SweepStore(tmp_path), workers=1,
                          runner=exploding_runner)
        job, _ = queue.submit(tiny_spec())
        pool.start()
        deadline = time.monotonic() + 5.0
        while job.state not in (JobState.FAILED, JobState.DONE):
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.01)
        pool.stop()
        assert job.state is JobState.FAILED
        assert "kernel exploded" in job.error


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------

class TestEndToEnd:
    def test_submit_poll_fetch_rows_byte_identical_to_run_sweep(
            self, harness, tmp_path):
        response = harness.client.submit_and_wait(preset="logn", quick=True,
                                                  timeout=120)
        assert response["job"]["state"] == "done"
        assert response["job"]["summary"]["computed"] == 3

        direct = run_sweep(logn_scaling_spec(quick=True), workers=1)
        served_lines = list(
            harness.client.iter_row_lines(response["spec_hash"]))
        direct_lines = [json.dumps(row) for row in direct.rows]
        assert served_lines == direct_lines

    def test_cache_hit_answers_without_enqueueing(self, harness):
        first = harness.client.submit_and_wait(spec=tiny_spec(), timeout=60)
        assert not first["cached"]
        jobs_before = len(harness.client.jobs())

        second = harness.client.submit(spec=tiny_spec())
        assert second["cached"] is True
        assert second["job"] is None
        assert second["points"] == tiny_spec().num_points
        assert len(harness.client.jobs()) == jobs_before

    def test_concurrent_duplicate_submits_coalesce(self, tmp_path):
        harness = ServiceHarness(tmp_path / "store", start_pool=False)
        try:
            barrier = threading.Barrier(2)
            responses = []

            def submit():
                barrier.wait()
                responses.append(harness.client.submit(spec=tiny_spec()))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)

            assert len(responses) == 2
            job_ids = {response["job"]["job_id"] for response in responses}
            assert len(job_ids) == 1, "duplicate submits created two jobs"
            assert sorted(response["created"]
                          for response in responses) == [False, True]
            assert len(harness.service.queue.jobs()) == 1

            harness.service.start()
            final = harness.client.wait(job_ids.pop(), timeout=60)
            assert final["state"] == "done"
        finally:
            harness.close()

    def test_malformed_spec_is_http_400_with_repro_error_message(
            self, harness):
        bad = tiny_spec().to_dict()
        bad["turbo_mode"] = True
        with pytest.raises(ServiceError) as excinfo:
            harness.client.submit(spec=bad)
        assert excinfo.value.status == 400
        assert "turbo_mode" in str(excinfo.value)

        # the raw HTTP view: status 400, JSON body carrying the message
        request = urllib.request.Request(
            f"{harness.url}/v1/sweeps", method="POST",
            data=json.dumps({"spec": bad}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as http_excinfo:
            urllib.request.urlopen(request, timeout=5)
        with http_excinfo.value as error:
            assert error.code == 400
            assert "turbo_mode" in json.loads(error.read())["error"]

    def test_invalid_json_body_is_http_400(self, harness):
        request = urllib.request.Request(
            f"{harness.url}/v1/sweeps", method="POST", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        with excinfo.value as error:
            assert error.code == 400
            assert "not valid JSON" in json.loads(error.read())["error"]

    def test_unknown_routes_and_hashes_are_404(self, harness):
        for path in ("/v2/sweeps", "/v1/nothing"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{harness.url}{path}", timeout=5)
            with excinfo.value as error:
                assert error.code == 404
        with pytest.raises(ServiceError) as service_excinfo:
            harness.client.rows("feedfacefeedface")
        assert service_excinfo.value.status == 404

    def test_aggregate_matches_local_reduction(self, harness):
        response = harness.client.submit_and_wait(spec=tiny_spec(),
                                                  timeout=60)
        served = harness.client.aggregate(response["spec_hash"], by=["n"])
        local = aggregate_rows(harness.client.rows(response["spec_hash"]),
                               by=["n"], value="rounds_mean")
        assert served == json.loads(json.dumps(local))

    def test_aggregate_without_rows_is_conflict(self, harness):
        spec = tiny_spec()
        harness.service._specs[spec.content_hash()] = spec  # known, no rows
        with pytest.raises(ServiceError) as excinfo:
            harness.client.aggregate(spec.content_hash(), by=["n"])
        assert excinfo.value.status == 409

    def test_healthz_reports_runtime_info(self, harness):
        health = harness.client.healthz()
        assert health["status"] == "ok"
        assert set(health["dependencies"]) == {"scipy", "networkx", "numba"}
        assert health["engines"]["engines"] == ["loop", "batch", "native"]
        assert health["engines"]["parity_tiers"]["native"] == "allclose"
        assert health["engines"]["native_mode"] in ("numba-jit",
                                                    "numpy-fallback")
        assert {"queued", "running", "done"} <= set(health["jobs"])
        assert any(preset["name"] == "logn" for preset in health["presets"])
        assert any(item["id"] == "E2" for item in health["experiments"])

    def test_presets_endpoint_lists_grids(self, harness):
        presets = harness.client.presets()
        by_name = {preset["name"]: preset for preset in presets}
        assert by_name["logn"]["num_points"] == 3
        assert by_name["logn"]["measure"] == "approx_equilibrium_time"

    def test_cancel_endpoint(self, tmp_path):
        harness = ServiceHarness(tmp_path / "store", start_pool=False)
        try:
            response = harness.client.submit(spec=tiny_spec())
            cancelled = harness.client.cancel(response["job"]["job_id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError, match="cancelled"):
                harness.client.wait(response["job"]["job_id"], timeout=5)
        finally:
            harness.close()

    def test_rows_survive_daemon_restart_via_manifest(self, harness,
                                                      tmp_path):
        # Non-alphabetical axis declaration order: the manifest must
        # preserve it, or the restarted daemon re-hashes the spec to a
        # different slug and loses the committed rows.
        spec = tiny_spec(axes={"epsilon": [0.4, 0.2], "delta": [0.3, 0.25]},
                         base={"coeffs": [1.0, 2.0], "n": 16})
        assert list(spec.axes) != sorted(spec.axes)
        response = harness.client.submit_and_wait(spec=spec, timeout=60)
        # a fresh service over the same store root: no in-memory spec map
        reborn = SweepService(harness.service.store.root)
        restored_lines = [json.dumps(row)
                          for row in reborn.rows(response["spec_hash"])]
        assert restored_lines \
            == list(harness.client.iter_row_lines(response["spec_hash"]))
        assert len(restored_lines) == spec.num_points

    def test_keep_alive_connection_survives_cancel_posts(self, tmp_path):
        """POST routes that ignore their body must still drain it, or the
        next request on a keep-alive connection reads garbage."""
        import http.client

        harness = ServiceHarness(tmp_path / "store", start_pool=False)
        try:
            response = harness.client.submit(spec=tiny_spec())
            job_id = response["job"]["job_id"]
            host, port = harness.server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=5)
            try:
                # cancel with a JSON body the route does not read ...
                connection.request(
                    "POST", f"/v1/jobs/{job_id}/cancel",
                    body=json.dumps({"reason": "keep-alive probe"}),
                    headers={"Content-Type": "application/json"})
                first = connection.getresponse()
                assert first.status == 200
                assert json.loads(first.read())["state"] == "cancelled"
                # ... and the SAME connection must stay usable
                connection.request("GET", "/v1/healthz")
                second = connection.getresponse()
                assert second.status == 200
                assert json.loads(second.read())["status"] == "ok"
            finally:
                connection.close()
        finally:
            harness.close()

    def test_unreachable_daemon_raises_transport_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status is None
        assert "cannot reach sweep service" in str(excinfo.value)

    def test_service_store_interoperates_with_direct_cli_sweep(
            self, harness):
        """A sweep written by run_sweep directly against the same root is
        served from cache — the relaxed single-writer contract at work."""
        spec = tiny_spec(seed=77)
        run_sweep(spec, workers=1, store=harness.service.store)
        response = harness.client.submit(spec=spec)
        assert response["cached"] is True


# ----------------------------------------------------------------------
# Keep-alive transport
# ----------------------------------------------------------------------

def connections_opened(service: SweepService) -> float:
    return service.registry.snapshot().value("http_connections_total")


def spawn_daemon(store, port: int = 0) -> tuple[subprocess.Popen, str]:
    """A real ``repro serve`` process; returns it and its base URL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--store", str(store)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    banner = daemon.stdout.readline()
    assert "listening on http://" in banner, banner
    return daemon, banner.split("listening on ")[1].split()[0]


def stop_daemon(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        daemon.stdout.close()


def sweep_posts(client: ServiceClient) -> float:
    """``POST /v1/sweeps`` requests the daemon has served, any status."""
    prefix = 'repro_http_requests_total{method="POST",route="/v1/sweeps",'
    return sum(float(line.rsplit(" ", 1)[1])
               for line in client.metrics_text().splitlines()
               if line.startswith(prefix))


class TestKeepAlive:
    def test_keep_alive_requests_do_not_stall(self, harness):
        """With Nagle on, every keep-alive response waited for the
        client's delayed ACK: about 43 ms a request."""
        host, port = harness.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            started = time.perf_counter()
            for _ in range(50):
                connection.request("GET", "/v1/presets")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            mean_ms = 1000.0 * (time.perf_counter() - started) / 50
        finally:
            connection.close()
        assert mean_ms < 10.0
        assert connections_opened(harness.service) == 1

    def test_a_request_is_counted_before_its_response_arrives(
            self, harness):
        """Scraped over another connection, /v1/metrics must already
        count a request whose response the client holds."""
        host, port = harness.server.server_address[:2]
        for count in range(1, 41):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            try:
                probe.request("GET", "/v1/no/such/route")
                assert probe.getresponse().status == 404
            finally:
                probe.close()
            assert ('repro_http_requests_total{method="GET",route="/other",'
                    f'status="404"}} {count}'
                    in harness.client.metrics_text().splitlines())

    def test_one_connection_per_client_thread(self, harness):
        for _ in range(10):
            harness.client.presets()
            harness.client.jobs()
            harness.client.metrics_text()
        assert connections_opened(harness.service) == 1

        client = ServiceClient(harness.url, timeout=10.0, retries=0)
        answers: list[int] = []

        def fifteen_requests() -> None:
            for _ in range(15):
                answers.append(len(client.presets()))

        threads = [threading.Thread(target=fifteen_requests)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(answers) == 30
        assert connections_opened(harness.service) == 3

        harness.client.close()
        harness.client.presets()
        assert connections_opened(harness.service) == 4

    def test_connections_of_ended_threads_are_closed(self, harness):
        """A connection whose thread has ended is closed by the client,
        not left to the socket's finalizer, which warns."""
        client = ServiceClient(harness.url, timeout=10.0, retries=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            threads = [threading.Thread(target=client.presets)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            client.close()
            gc.collect()
        assert [str(warning.message) for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []
        assert connections_opened(harness.service) == 4

    def test_abandoned_row_iterator_leaves_the_client_usable(self, harness):
        response = harness.client.submit_and_wait(spec=tiny_spec(),
                                                  timeout=60)
        spec_hash = response["spec_hash"]
        for _ in harness.client.iter_row_lines(spec_hash):
            break
        rows = run_sweep(tiny_spec(), workers=1).rows
        assert harness.client.aggregate(spec_hash, by=["n"]) \
            == json.loads(json.dumps(aggregate_rows(rows, by=["n"])))
        assert harness.client.rows(spec_hash) == rows

    def test_idle_connection_is_closed_and_client_reconnects(
            self, tmp_path, monkeypatch):
        assert 0 < server_module._Handler.timeout <= 300
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        harness = ServiceHarness(tmp_path / "store")
        client = ServiceClient(harness.url, timeout=10.0, retries=0)
        try:
            client.healthz()
            host, port = harness.server.server_address[:2]
            probe = http.client.HTTPConnection(host, port, timeout=5)
            try:
                probe.request("GET", "/v1/healthz")
                probe.getresponse().read()
                # EOF, not a 5 s socket timeout: the server hung up.
                assert probe.sock.recv(1) == b""
            finally:
                probe.close()
            time.sleep(0.1)
            # The client's connection went idle first, so it is closed
            # too; the next request must notice and reconnect.
            assert client.healthz()["status"] == "ok"
            assert connections_opened(harness.service) == 3
        finally:
            client.close()
            harness.close()

    def test_closed_server_stops_answering_keep_alive_clients(
            self, tmp_path):
        harness = ServiceHarness(tmp_path / "store")
        client = ServiceClient(harness.url, timeout=10.0, retries=0)
        try:
            client.healthz()
        finally:
            harness.close()
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status is None
        client.close()

    def test_restarted_daemon_costs_no_failed_request(self, tmp_path):
        """Each restart leaves the client holding a socket the old daemon
        closed.  Neither a GET nor a POST may fail on it (retries are off,
        so one failed attempt would raise), and the POST must reach the
        new daemon exactly once."""
        store = tmp_path / "store"
        daemon, url = spawn_daemon(store)
        port = int(url.rsplit(":", 1)[1])
        client = ServiceClient(url, timeout=30.0, retries=0)
        try:
            assert client.healthz()["status"] == "ok"
            stop_daemon(daemon)
            daemon, _ = spawn_daemon(store, port)
            assert client.healthz()["status"] == "ok"
            stop_daemon(daemon)
            daemon, _ = spawn_daemon(store, port)
            response = client.submit(spec=tiny_spec())
            assert response["created"] is True
            assert sweep_posts(client) == 1
            client.wait(response["job"]["job_id"], timeout=60)
        finally:
            client.close()
            stop_daemon(daemon)

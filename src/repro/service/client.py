"""A typed client for the sweep service (stdlib ``http.client``, no
dependencies).

>>> client = ServiceClient("http://127.0.0.1:8080")   # doctest: +SKIP
>>> response = client.submit(preset="logn", quick=True)  # doctest: +SKIP
>>> job = client.wait(response["job"]["job_id"])      # doctest: +SKIP
>>> rows = client.rows(response["spec_hash"])         # doctest: +SKIP

Requests travel over HTTP/1.1 keep-alive, one persistent connection per
client thread.  Every failure is raised as a
:class:`~repro.service.api.ServiceError` carrying the HTTP status and the
server's error message; transport failures (daemon not running,
connection refused) carry ``status=None``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
import weakref
from typing import Any, Iterator, Optional, Sequence, Union
from urllib.parse import urlsplit

from ..sweeps import SweepSpec
from ..telemetry.spans import (
    NO_SPANS,
    SpanRecorder,
    current_span_context,
    encode_traceparent,
)
from .api import ServiceError

__all__ = ["ServiceClient"]

#: Job states that terminate a wait() poll loop.
_TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceClient:
    """Talks to one sweep-service daemon at ``base_url``.

    Transient transport failures (connection refused/reset, a daemon
    mid-restart) on **idempotent GETs** are retried ``retries`` times with
    exponential backoff plus jitter before surfacing; POSTs are never
    retried automatically — a submit or shard completion that half-landed
    must not be silently replayed by the transport layer (the server-side
    dedup/409 machinery handles *deliberate* replays).  The final
    :class:`~repro.service.api.ServiceError` carries the last underlying
    exception as ``last_error``.

    Each thread of each process keeps its own keep-alive connection, so
    threads never interleave requests on one socket and a forked child
    never writes to its parent's.  A pooled socket the daemon has closed
    (idle timeout, restart) is found before a request is written on it
    and replaced, so it costs no failed request — and a POST is still
    never sent twice.  A thread's connection is closed when the thread
    ends; :meth:`close` (or leaving a ``with`` block) closes those of
    every live thread.
    """

    #: First backoff step; doubles per attempt (then jitter is applied).
    RETRY_BACKOFF = 0.1

    def __init__(self, base_url: str = "http://127.0.0.1:8080", *,
                 timeout: float = 30.0, retries: int = 2,
                 spans: SpanRecorder = NO_SPANS):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.netloc:
            raise ServiceError(f"unsupported service URL {base_url!r}: "
                               "expected http://HOST[:PORT]", status=None)
        self._netloc, self._path_prefix = url.netloc, url.path
        self.timeout = timeout
        self.retries = retries
        self.spans = spans
        self._local = threading.local()
        self._lock = threading.Lock()
        # Weak, so a finished thread's connection is freed (and closed)
        # with it.
        self._connections = weakref.WeakSet()  # guarded-by: _lock

    def close(self) -> None:
        """Close the pooled connection of every thread.  Call it when no
        request is in flight; a later request opens a new connection."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------------- transport
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> bytes:
        # One span per *logical* request: transport retries stay inside it
        # (the final `attempts` attr says how many it took), and every
        # attempt carries the span's context as `traceparent` plus its
        # ordinal as `x-repro-attempt`, so the daemon can both adopt the
        # trace and count arriving retries.
        with self.spans.span("client.request",
                             attrs={"method": method, "path": path}) as span:
            attempts_left = self.retries if method == "GET" else 0
            backoff = self.RETRY_BACKOFF
            attempt = 0
            while True:
                attempt += 1
                span.set_attr("attempts", attempt)
                try:
                    return self._request_once(method, path, payload,
                                              attempt=attempt)
                except ServiceError as error:
                    # status=None + a recorded transport error marks the
                    # transient class; HTTP-level errors (any status) are
                    # definitive answers and are never retried.
                    if attempts_left <= 0 or error.status is not None \
                            or error.last_error is None:
                        raise
                    attempts_left -= 1
                time.sleep(backoff * (0.5 + random.random()))
                backoff *= 2

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None, *,
                      attempt: int = 1) -> bytes:
        """One exchange on this thread's connection; the whole body.

        The body is read to the end before the connection is used again;
        any failure on the way closes the connection instead, so no
        half-read response is ever parsed as the next one.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers: dict[str, str] = (
            {"Content-Type": "application/json"} if body else {})
        if self.spans.enabled:
            context = current_span_context()
            if context is not None:
                headers["traceparent"] = encode_traceparent(context)
                headers["x-repro-attempt"] = str(attempt)
        connection = self._connection()
        try:
            connection.request(method, self._path_prefix + path, body=body,
                               headers=headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(
                f"cannot reach sweep service at {self.base_url}: "
                f"{type(error).__name__}: {error}",
                status=None, last_error=error) from error
        if not 200 <= response.status < 300:
            raise ServiceError(
                self._error_message(response.status, response.reason, data),
                status=response.status)
        return data

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection, replaced when the daemon
        has closed it or when it was opened by another process (closing a
        forked child's copy releases only the child's descriptor)."""
        local = self._local
        connection = getattr(local, "connection", None)
        if connection is not None and (local.pid != os.getpid()
                                       or _peer_closed(connection.sock)):
            connection.close()
            connection = None
        if connection is None:
            connection = _ThreadConnection(self._netloc, timeout=self.timeout)
            local.connection, local.pid = connection, os.getpid()
            with self._lock:
                self._connections.add(connection)
        return connection

    @staticmethod
    def _error_message(status: int, reason: str, body: bytes) -> str:
        try:
            return json.loads(body)["error"]
        except (ValueError, KeyError, TypeError):
            return f"HTTP {status}: {reason}"

    def _json(self, method: str, path: str,
              payload: Optional[dict] = None) -> Any:
        return json.loads(self._request(method, path, payload))

    # ------------------------------------------------------------- surface
    def healthz(self) -> dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._json("GET", "/v1/healthz")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — raw Prometheus text exposition."""
        return self._request("GET", "/v1/metrics").decode("utf-8")

    def presets(self) -> list[dict[str, Any]]:
        """``GET /v1/presets``."""
        return self._json("GET", "/v1/presets")["presets"]

    def submit(self, spec: Union[SweepSpec, dict, None] = None, *,
               preset: Optional[str] = None, quick: bool = True,
               seed: Optional[int] = None,
               overrides: Optional[dict] = None,
               priority: int = 0,
               mode: Optional[str] = None) -> dict[str, Any]:
        """``POST /v1/sweeps`` with a spec or a preset (+overrides).

        Returns the submit response: ``cached`` (served instantly from the
        store, ``job`` is ``None``), ``created`` (a new job was enqueued)
        or neither (an in-flight job for the same spec was joined).
        ``mode="remote"`` shards the job onto the lease board for
        ``repro worker`` agents instead of the daemon's own pool.
        """
        if (spec is None) == (preset is None):
            raise ServiceError("submit() needs exactly one of spec= or "
                               "preset=", status=None)
        if spec is not None:
            payload: dict[str, Any] = {
                "spec": spec.to_dict() if isinstance(spec, SweepSpec) else spec,
            }
        else:
            payload = {"preset": preset, "quick": quick}
            if seed is not None:
                payload["seed"] = seed
            if overrides:
                payload["overrides"] = dict(overrides)
        if priority:
            payload["priority"] = priority
        if mode is not None:
            payload["mode"] = mode
        return self._json("POST", "/v1/sweeps", payload)

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/<id>``."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /v1/jobs``."""
        return self._json("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``POST /v1/jobs/<id>/cancel``."""
        return self._json("POST", f"/v1/jobs/{job_id}/cancel", {})

    # --------------------------------------------------------------- shards
    def lease_shard(self, worker: Optional[str] = None, *,
                    ttl: Optional[float] = None) -> Optional[dict[str, Any]]:
        """``POST /v1/shards/lease`` — a shard lease, or None when idle."""
        payload: dict[str, Any] = {"worker": worker}
        if ttl is not None:
            payload["ttl"] = ttl
        return self._json("POST", "/v1/shards/lease", payload)["shard"]

    def shard_heartbeat(self, lease_id: str) -> dict[str, Any]:
        """``POST /v1/shards/<lease>/heartbeat`` — renew a lease.

        Raises :class:`ServiceError` with status 409 when the lease is no
        longer current (expired and requeued), 404 when unknown.
        """
        return self._json("POST", f"/v1/shards/{lease_id}/heartbeat", {})

    def complete_shard(self, lease_id: str, rows: list[dict[str, Any]], *,
                       metrics: Optional[dict[str, Any]] = None
                       ) -> dict[str, Any]:
        """``POST /v1/shards/<lease>/complete`` — commit a shard's rows.

        A 409 means the lease expired (or was already completed) and the
        rows were discarded — idempotently safe, since the requeued shard
        recomputes the identical bytes.
        """
        payload: dict[str, Any] = {"rows": rows}
        if metrics is not None:
            payload["metrics"] = metrics
        return self._json("POST", f"/v1/shards/{lease_id}/complete", payload)

    def wait(self, job_id: str, *, timeout: Optional[float] = None,
             poll: float = 0.1) -> dict[str, Any]:
        """Poll a job until it reaches a terminal state.

        Returns the final job payload for ``done`` jobs; raises
        :class:`ServiceError` when the job failed, was cancelled, or
        ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            state = payload["state"]
            if state in _TERMINAL_STATES:
                if state != "done":
                    detail = payload.get("error") or "no error recorded"
                    raise ServiceError(
                        f"job {job_id} {state}: {detail}", status=None)
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {state} after {timeout:.1f}s",
                    status=None)
            time.sleep(poll)

    def submit_and_wait(self, *, timeout: Optional[float] = None,
                        poll: float = 0.1, **submit_kwargs) -> dict[str, Any]:
        """Submit, then wait unless the answer came from cache.

        Returns the submit response with ``"job"`` replaced by the final
        job payload (for cached responses it stays ``None``).
        """
        response = self.submit(**submit_kwargs)
        if not response["cached"]:
            response["job"] = self.wait(response["job"]["job_id"],
                                        timeout=timeout, poll=poll)
        return response

    # ---------------------------------------------------------------- rows
    def iter_row_lines(self, spec_hash: str) -> Iterator[str]:
        """``GET /v1/sweeps/<hash>/rows`` as raw JSONL lines.

        The lines are byte-identical to the store's encoding (and to what
        ``json.dumps`` produces for a direct ``run_sweep``'s rows), so
        comparing serving paths never trips over formatting.
        """
        body = self._request("GET", f"/v1/sweeps/{spec_hash}/rows")
        for line in body.decode("utf-8").split("\n"):
            if line:
                yield line

    def rows(self, spec_hash: str) -> list[dict[str, Any]]:
        """The committed rows of a sweep, parsed."""
        return [json.loads(line) for line in self.iter_row_lines(spec_hash)]

    def aggregate(self, spec_hash: str, *, by: Sequence[str],
                  value: str = "rounds_mean",
                  stats: Optional[Sequence[str]] = None
                  ) -> list[dict[str, Any]]:
        """``GET /v1/sweeps/<hash>/aggregate``."""
        query = f"by={','.join(by)}&value={value}"
        if stats:
            query += f"&stats={','.join(stats)}"
        return self._json("GET",
                          f"/v1/sweeps/{spec_hash}/aggregate?{query}")["rows"]


class _ThreadConnection(http.client.HTTPConnection):
    """A keep-alive connection held in one thread's local storage.  That
    storage is freed when the thread ends; the socket is closed here then,
    not left to the socket's own finalizer, which warns it was unclosed."""

    def __del__(self) -> None:
        self.close()


def _peer_closed(sock: Optional[socket.socket]) -> bool:
    """Whether an idle keep-alive socket is unusable: the peer closed or
    reset it, or sent bytes no request asked for.  A zero-wait peek."""
    if sock is None:
        return False  # not connected yet: http.client connects on request
    timeout = sock.gettimeout()
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False  # nothing to read: still open
    except OSError:
        return True
    finally:
        sock.settimeout(timeout)
    return True

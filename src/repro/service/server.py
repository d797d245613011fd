"""The sweep service: a stdlib-only threaded HTTP daemon over the store.

Two layers:

* :class:`SweepService` — the transport-independent application object
  (submit/cached lookup/rows/aggregate/health).  Tests and embedders call
  it directly; it owns the :class:`~repro.service.jobs.JobQueue`, the
  :class:`~repro.service.workers.WorkerPool` and the
  :class:`~repro.sweeps.store.SweepStore`.
* :func:`make_server` / :func:`run_service` — the
  :class:`http.server.ThreadingHTTPServer` front end mapping the REST
  surface onto it.

Routes (all JSON unless noted)::

    GET  /v1/healthz                   daemon liveness + runtime info + metrics
    GET  /v1/metrics                   Prometheus text exposition (text/plain)
    GET  /v1/presets                   registered sweep presets
    POST /v1/sweeps                    submit a spec or preset (+overrides)
    GET  /v1/jobs                      every job, submission order
    GET  /v1/jobs/<id>                 one job
    POST /v1/jobs/<id>/cancel          cancel a queued job
    GET  /v1/sweeps/<hash>/rows        committed rows, JSONL
    GET  /v1/sweeps/<hash>/aggregate   group-by reduction over the rows
    POST /v1/shards/lease              lease a pending shard (remote worker)
    POST /v1/shards/<lease>/heartbeat  renew a shard lease
    POST /v1/shards/<lease>/complete   commit a leased shard's rows

Every request increments ``repro_http_requests_total{method,route,status}``
and lands in the ``repro_http_request_seconds{route}`` latency histogram
(routes are normalised to templates — ``/v1/jobs/{id}`` — so job ids never
explode the label space).  ``--access-log`` additionally emits one
structured JSON line per request to stderr (docs/OBSERVABILITY.md).

Connections are HTTP/1.1 keep-alive with Nagle's algorithm off.  Every
response goes out in one write with a ``Content-Length``, after its
request has been counted; ``repro_http_connections_total`` counts the
connections accepted, so connection reuse shows next to the request
counters.

The cache contract: ``POST /v1/sweeps`` whose spec is fully committed in
the store answers ``{"cached": true, ...}`` *without enqueueing a job* —
the hot path of a warm service is a disk read, never a recompute.  Partial
results enqueue a job that resumes from the committed points.

Failures surface as the matching status code with ``{"error": "<message>"}``
— the message of the underlying :class:`~repro.errors.ReproError`, so curl
and :class:`~repro.service.client.ServiceClient` report identical causes.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional
from urllib.parse import parse_qs, urlparse

from ..errors import ReproError
from ..info import runtime_info
from ..presets import preset_summaries
from ..sweeps import SweepSpec, SweepStore, aggregate_rows
from ..sweeps.aggregate import DEFAULT_STATS
from ..telemetry import MetricsRegistry, NullLogger, StructuredLogger
from ..telemetry.spans import NO_SPANS, SpanRecorder, decode_traceparent
from ..telemetry.tracing import JsonlTraceSink
from .api import ServiceError, resolve_mode, resolve_spec
from .jobs import JobQueue, ShardBoard
from .workers import WorkerPool

__all__ = ["SweepService", "make_server", "run_service"]


@dataclass(frozen=True)
class _StoredView:
    """One spec's committed rows as of one store token, parsed once.

    Warm reads (rows, aggregate, a cached submit's point count) are served
    from here; a view is replaced whole, never updated, when the store's
    :meth:`~repro.sweeps.store.SweepStore.rows_version` moves.  Only the
    aggregate answers fill in later, keyed by ``(by, value, stats)``.
    """

    token: Hashable
    rows: tuple[dict[str, Any], ...]
    lines: tuple[str, ...]
    committed_points: int
    aggregates: dict[tuple, list[dict[str, Any]]] = field(
        default_factory=dict)

    @classmethod
    def build(cls, token: Hashable, loaded: list[dict[str, Any]],
              spec: SweepSpec) -> _StoredView:
        rows = tuple(sorted(loaded, key=lambda row: row["point_index"]))
        committed = {row["point_key"] for row in rows}
        return cls(token=token, rows=rows,
                   lines=tuple(json.dumps(row) for row in rows),
                   committed_points=sum(1 for point in spec.expand()
                                        if point.key in committed))


class SweepService:
    """The application behind the daemon (usable without HTTP).

    Parameters
    ----------
    store:
        A :class:`~repro.sweeps.store.SweepStore` or its root path.
    workers:
        Concurrent jobs (service-level parallelism).
    sweep_workers:
        Processes per job's :func:`~repro.sweeps.scheduler.run_sweep`.
    runner:
        Test seam: replaces ``run_sweep`` in the worker pool.
    lease_ttl:
        Seconds a remote worker's shard lease lives between heartbeats;
        an expired lease requeues its shard for the next worker.
    shard_points:
        Points per remote shard (defaults to the scheduler's own
        granularity, ~4 shards per assumed worker).
    spans:
        A :class:`~repro.telemetry.spans.SpanRecorder` shared by the HTTP
        layer, queue, pool and board (the daemon half of distributed
        tracing; ``serve --spans-out`` builds one over a JSONL sink).
        Defaults to the disabled recorder — zero overhead.
    """

    def __init__(self, store: SweepStore | str | os.PathLike, *,
                 workers: int = 1, sweep_workers: int = 1,
                 runner: Optional[Callable] = None,
                 lease_ttl: float = 30.0,
                 shard_points: Optional[int] = None,
                 spans: SpanRecorder = NO_SPANS):
        self.store = store if isinstance(store, SweepStore) else SweepStore(store)
        #: One registry for the whole daemon: the queue's job lifecycle
        #: counters, the pool's execution timings, the shard board's fabric
        #: counters and the HTTP layer's request metrics all land here, so
        #: ``/v1/metrics`` is one read.
        self.registry = MetricsRegistry()
        self.spans = spans
        self.queue = JobQueue(registry=self.registry, spans=spans)
        self.pool = WorkerPool(self.queue, self.store, workers=workers,
                               sweep_workers=sweep_workers, runner=runner,
                               registry=self.registry, spans=spans)
        self.board = ShardBoard(self.queue, self.store, lease_ttl=lease_ttl,
                                shard_points=shard_points,
                                registry=self.registry, spans=spans)
        #: Every spec this process has resolved, by content hash — lets the
        #: rows/aggregate endpoints serve cached submissions that never
        #: created a job.  Store manifests cover everything older.
        self._specs: dict[str, SweepSpec] = {}
        #: The last stored view of each spec read here, by content hash.
        self._views: dict[str, _StoredView] = {}
        self.started_at = time.time()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "SweepService":
        """Start the worker pool."""
        self.pool.start()
        return self

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain and stop the worker pool; True if fully drained."""
        return self.pool.stop(timeout)

    # --------------------------------------------------------------- submit
    def submit(self, payload: Any) -> dict[str, Any]:
        """Handle one submit payload; the response dict is the HTTP body.

        Cached specs (every grid point committed) are answered from the
        store without touching the queue.  Otherwise the job queue dedups
        by content hash, so duplicate in-flight submits share one job —
        regardless of mode: if the spec is already being computed (either
        way), the submit joins that job.  New ``mode="remote"`` jobs are
        sharded onto the lease board instead of the worker-pool heap.
        """
        mode = resolve_mode(payload)
        spec, priority = resolve_spec(payload)
        spec_hash = spec.content_hash()
        self._specs[spec_hash] = spec
        cached_points = self._view(spec, spec_hash).committed_points
        if cached_points == spec.num_points:
            return {
                "spec_hash": spec_hash,
                "spec_name": spec.name,
                "cached": True,
                "created": False,
                "points": cached_points,
                "job": None,
            }
        job, created = self.queue.submit(spec, priority=priority, mode=mode)
        if created and mode == "remote":
            try:
                self.board.activate(job)
            except ReproError as error:
                self.queue.finish(job, error=str(error))
                raise
        return {
            "spec_hash": spec_hash,
            "spec_name": spec.name,
            "cached": False,
            "created": created,
            "points": spec.num_points,
            "job": job.to_dict(),
        }

    # ----------------------------------------------------------------- rows
    def spec_for_hash(self, spec_hash: str) -> SweepSpec:
        """Resolve a content hash to its spec (404 if never seen).

        In-memory specs win (they include cached submissions); store
        manifests make the lookup survive daemon restarts and cover sweeps
        written by the CLI directly against the same root.
        """
        spec = self._specs.get(spec_hash)
        if spec is not None:
            return spec
        for manifest in self.store.runs():
            if manifest.get("spec_hash") == spec_hash:
                spec = SweepSpec.from_dict(manifest["spec"])
                if spec.content_hash() != spec_hash:
                    # A manifest whose recorded spec no longer reproduces
                    # its own hash (e.g. written by a code version with a
                    # different canonicalisation) would point at the wrong
                    # directory — treat it as unknown rather than serve
                    # the wrong rows.
                    continue
                self._specs[spec_hash] = spec
                return spec
        raise ServiceError(f"unknown sweep {spec_hash!r}; submit it first "
                           "(or check the hash against /v1/jobs)", status=404)

    def _view(self, spec: SweepSpec, spec_hash: str) -> _StoredView:
        """The stored view of ``spec``, rebuilt only when its rows moved.

        The token is read *before* the rows, so a commit racing this call
        can only leave a view newer than its token (the next call
        rebuilds), never a stale one.  Racing rebuilds are harmless: each
        builds a whole view and the last assignment wins.
        """
        token = self.store.rows_version(spec)
        view = self._views.get(spec_hash)
        if view is None or view.token != token:
            view = _StoredView.build(token, self.store.load_rows(spec), spec)
            self._views[spec_hash] = view
        return view

    def rows(self, spec_hash: str) -> list[dict[str, Any]]:
        """The committed rows of a sweep, in point-expansion order.

        The row dicts are shared with the stored view: do not mutate them.
        """
        return list(self._view(self.spec_for_hash(spec_hash), spec_hash).rows)

    def row_lines(self, spec_hash: str) -> Iterator[str]:
        """The rows as JSONL lines: ``json.dumps`` of each row, which the
        store's byte-stable contract makes equal to the committed bytes.

        Unknown hashes raise *before* the iterator is returned (not lazily
        inside it), so a caller learns of the 404 when it asks, not midway
        through the lines.
        """
        return iter(self._view(self.spec_for_hash(spec_hash), spec_hash).lines)

    def aggregate(self, spec_hash: str, *, by: list[str],
                  value: str = "rounds_mean",
                  stats: Optional[list[str]] = None) -> list[dict[str, Any]]:
        """Group-by reduction over a sweep's committed rows.

        Answers are kept per view, so a repeated query on unchanged rows
        is a lookup; the dicts are shared with the view: do not mutate.
        """
        view = self._view(self.spec_for_hash(spec_hash), spec_hash)
        if not view.rows:
            raise ServiceError(
                f"sweep {spec_hash} has no committed rows yet", status=409)
        stats = stats or DEFAULT_STATS
        key = (tuple(by), value, tuple(stats))
        answer = view.aggregates.get(key)
        if answer is None:
            answer = aggregate_rows(view.rows, by=by, value=value,
                                    stats=stats)
            view.aggregates[key] = answer
        return list(answer)

    # --------------------------------------------------------------- health
    def healthz(self) -> dict[str, Any]:
        """Liveness payload: queue tally, :func:`runtime_info`, metrics."""
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "store_root": str(self.store.root),
            "service_workers": self.pool.workers,
            "sweep_workers": self.pool.sweep_workers,
            "store_backend": self.store.scheme,
            "jobs": self.queue.counts(),
            "fabric": self.board.describe(),
            "metrics": self.registry.snapshot().flat(),
            **runtime_info(),
        }

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        return self.registry.render_prometheus()


# ----------------------------------------------------------------- HTTP --

#: Known path shapes -> metric route templates.  Everything else maps to
#: "/other" so arbitrary probe paths cannot explode the label space.
def _route_template(parts: list[str]) -> str:
    if parts[:1] == ["v1"]:
        if len(parts) == 2 and parts[1] in ("healthz", "metrics", "presets",
                                            "jobs", "sweeps"):
            return "/v1/" + parts[1]
        if len(parts) == 3 and parts[1] == "shards" and parts[2] == "lease":
            return "/v1/shards/lease"
        if len(parts) == 3 and parts[1] == "jobs":
            return "/v1/jobs/{id}"
        if len(parts) == 4 and parts[1] == "jobs" and parts[3] == "cancel":
            return "/v1/jobs/{id}/cancel"
        if len(parts) == 4 and parts[1] == "shards" \
                and parts[3] in ("heartbeat", "complete"):
            return "/v1/shards/{lease}/" + parts[3]
        if len(parts) == 4 and parts[1] == "sweeps" \
                and parts[3] in ("rows", "aggregate"):
            return "/v1/sweeps/{hash}/" + parts[3]
    return "/other"


class _Handler(BaseHTTPRequestHandler):
    """Routes the REST surface onto a bound :class:`SweepService`."""

    # Set on the subclass built by make_server().
    service: SweepService = None  # type: ignore[assignment]
    quiet: bool = True
    access_log: Any = NullLogger()

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweep-service"
    # Keep-alive clients send their next request only after the previous
    # response arrived; with Nagle on, a response's last segment waits for
    # the client's delayed ACK (about 40 ms per request).
    disable_nagle_algorithm = True
    #: Seconds a connection may sit idle between requests before the
    #: server closes it, so idle keep-alive clients cannot pin handler
    #: threads forever.
    timeout = 60.0

    MAX_BODY = 8 * 1024 * 1024  # spec payloads are small; reject abuse

    # ------------------------------------------------------------ plumbing
    def setup(self) -> None:
        super().setup()
        self.service.registry.counter(
            "http_connections_total",
            "TCP connections accepted (keep-alive clients reuse one)").inc()

    def log_request(self, code="-", size="-") -> None:
        # Superseded: the instrumented dispatch emits a richer structured
        # access event (route template, latency) per request.
        pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # http.server's own diagnostics (malformed requests, broken pipes)
        # used to vanish here; route them through the structured logger.
        self.access_log.log("http_log", client=self.address_string(),
                            message=format % args)
        if not self.quiet:
            sys.stderr.write("%s - %s\n" % (self.address_string(),
                                            format % args))

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._status = code  # captured for the request metrics
        super().send_response(code, message)

    def _dispatch(self, method: str, route_handler: Callable[[], None]) -> None:
        """Time and count one request around the actual route handler."""
        self._status = 0
        registry = self.service.registry
        parts = [part for part in urlparse(self.path).path.split("/") if part]
        route = _route_template(parts)
        # Adopt the caller's trace, if it sent one: the server span becomes
        # a child of the client span, and everything the handler does
        # (submit, lease, complete) nests under it via the ambient context.
        parent = decode_traceparent(self.headers.get("traceparent"))
        attempt = self.headers.get("x-repro-attempt")
        if attempt is not None:
            try:
                if int(attempt) > 1:
                    # A client resending this request: retry storms become
                    # visible at /v1/metrics even though the retry loop
                    # itself runs in the client process.
                    registry.counter(
                        "client_retries_total",
                        "Requests that arrived as a client retry "
                        "(x-repro-attempt > 1)", route=route).inc()
            except ValueError:
                pass
        started = time.perf_counter()
        try:
            with self.service.spans.span(
                    f"http.{method.lower()}", parent=parent,
                    attrs={"route": route}) as span:
                route_handler()
                span.set_attr("status", self._status)
        finally:
            elapsed = time.perf_counter() - started
            registry.counter(
                "http_requests_total", "HTTP requests served",
                method=method, route=route, status=str(self._status)).inc()
            registry.histogram(
                "http_request_seconds", "HTTP request latency",
                route=route).observe(elapsed)
            self.access_log.log(
                "http_request", client=self.address_string(), method=method,
                path=self.path, route=route, status=self._status,
                duration_ms=round(elapsed * 1000, 3))
            # Written only now, so a client that holds the response also
            # finds its request counted at /v1/metrics.
            self.flush_headers()

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Buffer the response for one write: a response split over
        several small writes costs a segment (and a wakeup) each.
        ``send_header`` collects the header lines in ``_headers_buffer``
        until ``flush_headers`` writes them; the body joins that write,
        which :meth:`_dispatch` makes once the request is counted."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._headers_buffer.extend((b"\r\n", body))

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send(status, "application/json",
                   (json.dumps(payload) + "\n").encode("utf-8"))

    def _send_jsonl(self, lines: Iterable[str]) -> None:
        """Send lines as one ``application/x-ndjson`` body.  The body is
        built before the status line goes out, so an encoding error still
        becomes an error response."""
        self._send(200, "application/x-ndjson",
                   "".join(line + "\n" for line in lines).encode("utf-8"))

    def _send_error(self, error: Exception) -> None:
        status = 400
        if isinstance(error, ServiceError) and error.status is not None:
            status = error.status
        self._send_json({"error": str(error)}, status=status)

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            self._body_consumed = True
            raise ServiceError("unparseable Content-Length header") from None
        if length <= 0:
            raise ServiceError("the request needs a JSON body "
                               "(Content-Length missing or zero)")
        if length > self.MAX_BODY:
            # Refusing to read megabytes of abuse means the connection is
            # desynced — close it instead of draining.
            self.close_connection = True
            self._body_consumed = True
            raise ServiceError("request body too large", status=413)
        self._body_consumed = True
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as decode_error:
            raise ServiceError(
                f"request body is not valid JSON: {decode_error}") from None

    def _drain_body(self) -> None:
        """Consume an unread request body so HTTP/1.1 keep-alive stays in
        sync (routes that ignore their body — cancel, 404s — would
        otherwise leave its bytes to be parsed as the next request)."""
        if getattr(self, "_body_consumed", False):
            return
        self._body_consumed = True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if length > self.MAX_BODY:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 16))
            if not chunk:
                break
            length -= len(chunk)

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", self._do_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST", self._do_post)

    def _do_get(self) -> None:
        try:
            self._route_get()
        except ReproError as error:
            self._send_error(error)

    def _do_post(self) -> None:
        self._body_consumed = False
        try:
            self._route_post()
        except ReproError as error:
            self._send_error(error)
        finally:
            self._drain_body()

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts == ["v1", "healthz"]:
            self._send_json(self.service.healthz())
        elif parts == ["v1", "metrics"]:
            self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                       self.service.metrics_text().encode("utf-8"))
        elif parts == ["v1", "presets"]:
            self._send_json({"presets": preset_summaries()})
        elif parts == ["v1", "jobs"]:
            self._send_json({"jobs": [job.to_dict()
                                      for job in self.service.queue.jobs()]})
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._send_json(self.service.queue.describe(parts[2]))
        elif len(parts) == 4 and parts[:2] == ["v1", "sweeps"] \
                and parts[3] == "rows":
            self._send_jsonl(self.service.row_lines(parts[2]))
        elif len(parts) == 4 and parts[:2] == ["v1", "sweeps"] \
                and parts[3] == "aggregate":
            self._send_json({"rows": self._aggregate(parts[2], url.query)})
        else:
            raise ServiceError(f"no such resource: GET {url.path}",
                               status=404)

    def _route_post(self) -> None:
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts == ["v1", "sweeps"]:
            response = self.service.submit(self._read_body())
            self._send_json(response, status=202 if response["created"] else 200)
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "cancel":
            self._send_json(self.service.queue.cancel(parts[2]).to_dict())
        elif parts == ["v1", "shards", "lease"]:
            body = self._read_body()
            if not isinstance(body, dict):
                raise ServiceError("the lease body must be a JSON object")
            ttl = body.get("ttl")
            lease = self.service.board.lease(
                body.get("worker"),
                ttl=float(ttl) if ttl is not None else None)
            self._send_json({"shard": lease})
        elif len(parts) == 4 and parts[:2] == ["v1", "shards"] \
                and parts[3] == "heartbeat":
            self._drain_body()
            self._send_json(self.service.board.heartbeat(parts[2]))
        elif len(parts) == 4 and parts[:2] == ["v1", "shards"] \
                and parts[3] == "complete":
            body = self._read_body()
            if not isinstance(body, dict) \
                    or not isinstance(body.get("rows"), list):
                raise ServiceError("the completion body must be a JSON "
                                   "object with a 'rows' array")
            self._send_json(self.service.board.complete(
                parts[2], body["rows"], metrics=body.get("metrics")))
        else:
            raise ServiceError(f"no such resource: POST {url.path}",
                               status=404)

    def _aggregate(self, spec_hash: str, query: str) -> list[dict[str, Any]]:
        params = parse_qs(query)
        by = [column for chunk in params.get("by", [])
              for column in chunk.split(",") if column]
        if not by:
            raise ServiceError("aggregate needs at least one group-by "
                               "column: ?by=<col>[,<col>]")
        value = (params.get("value") or ["rounds_mean"])[0]
        stats = [stat for chunk in params.get("stats", [])
                 for stat in chunk.split(",") if stat] or None
        return self.service.aggregate(spec_hash, by=by, value=value,
                                      stats=stats)


class _Server(ThreadingHTTPServer):
    """Closing the server also ends its open keep-alive connections; their
    handler threads would otherwise go on answering for a stopped
    service."""

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any):
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()  # guarded-by: _lock
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            still_open = list(self._open)
        for request in still_open:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it in the meantime


def make_server(service: SweepService, *, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True,
                access_log: bool = False) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server to ``service`` (``port=0`` picks one).

    ``access_log=True`` emits one structured JSON line per request (and per
    http.server diagnostic) to stderr; off by default so tests stay quiet.
    The caller owns the lifecycle: ``serve_forever()`` it (usually on a
    thread), ``shutdown()`` + ``server_close()`` it when done.
    """
    logger = (StructuredLogger(sys.stderr, component="http")
              if access_log else NullLogger())
    handler = type("BoundSweepServiceHandler", (_Handler,),
                   {"service": service, "quiet": quiet,
                    "access_log": logger})
    return _Server((host, port), handler)


def _install_shutdown_signals() -> None:
    """Make SIGTERM (and SIGINT, even when inherited ignored) interrupt
    the serve loop.

    ``kill <pid>`` sends SIGTERM, whose default disposition would skip the
    clean-shutdown path; and a daemon started as a shell background job
    inherits SIGINT *ignored* (POSIX job control), so Ctrl-C-style signals
    would otherwise be dropped entirely.  Both are redirected to
    :class:`KeyboardInterrupt`.  Signal handlers only work on the main
    thread — embedders calling :func:`run_service` elsewhere keep their
    own arrangements.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _interrupt(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)


def run_service(store: SweepStore | str | os.PathLike, *,
                host: str = "127.0.0.1", port: int = 8080,
                workers: int = 1, sweep_workers: int = 1,
                lease_ttl: float = 30.0, shard_points: Optional[int] = None,
                quiet: bool = True, access_log: bool = False,
                spans_out: Optional[str] = None,
                ready: Optional[Callable[[ThreadingHTTPServer], Any]] = None,
                ) -> int:
    """Run the daemon until interrupted (the ``serve`` CLI verb).

    ``ready`` is called with the bound server before the serve loop starts
    (tests use it to learn the ephemeral port).  SIGINT/SIGTERM-as-
    KeyboardInterrupt triggers a clean shutdown: the HTTP loop stops, the
    worker pool drains its running jobs, and the store is left consistent
    (shard commits are atomic, so an interrupted sweep simply resumes on
    the next submit).

    ``spans_out`` enables distributed tracing: every request, job, lease
    and sweep records spans to that JSONL file (``repro trace`` reads it).
    """
    spans = (SpanRecorder(JsonlTraceSink(spans_out))
             if spans_out else NO_SPANS)
    service = SweepService(store, workers=workers,
                           sweep_workers=sweep_workers,
                           lease_ttl=lease_ttl,
                           shard_points=shard_points,
                           spans=spans).start()
    server = make_server(service, host=host, port=port, quiet=quiet,
                         access_log=access_log)
    _install_shutdown_signals()
    bound_host, bound_port = server.server_address[:2]
    print(f"sweep service listening on http://{bound_host}:{bound_port} "
          f"(store: {service.store.url}, workers: {workers}, "
          f"sweep workers: {sweep_workers})", flush=True)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if service.stop():
            print("sweep service shut down cleanly", flush=True)
        else:
            print("sweep service shut down with jobs still running; "
                  "interrupted sweeps resume from their last shard commit "
                  "on re-submit", flush=True)
        spans.close()
    return 0

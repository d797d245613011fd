"""Round tracing: per-round JSONL events from a running dynamics.

The engines in :mod:`repro.core` expose an opt-in ``trace=`` hook that
accepts a :class:`RoundTracer`.  When attached, the tracer emits one JSON
object per (sampled) round to its sink — round index, live replica count,
migration volume, potential and social-cost means with deltas, and wall
time since the run started — bracketed by ``run_started`` /
``run_finished`` events that carry a correlation ``run_id``.

Two invariants the engine integration relies on:

* **no RNG** — the tracer never touches a random generator, so a traced
  run consumes exactly the same random stream as an untraced one and the
  final states stay bit-identical (asserted per engine parity tier in
  ``tests/test_telemetry.py``);
* **near-zero cost when absent** — the engines guard every tracer call
  with a single ``if trace is not None`` per round, and the native kernel
  only reports at chunk boundaries (outside the jitted region), so the
  benchmark guard in ``benchmarks/test_bench_telemetry.py`` can hold the
  disabled-path overhead under 5%.

The JSONL schema is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import socket
import threading
import time
from typing import Any, Optional, TextIO

import numpy as np

from ..errors import TelemetryError
from .spans import current_span_context

__all__ = [
    "JsonlTraceSink",
    "ListTraceSink",
    "NullTraceSink",
    "RoundTracer",
    "default_run_id",
    "make_run_id",
    "parse_run_id",
]


def make_run_id(payload: Any) -> str:
    """A short, deterministic correlation id for a run.

    Hashes the canonical JSON of ``payload`` (typically a sweep spec's
    content-hash string, a point key, or a parameter dict) to 12 hex
    characters — stable across processes, short enough to grep for.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


class NullTraceSink:
    """Discards every event (useful to measure tracer-side overhead)."""

    def emit(self, event: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class ListTraceSink:
    """Buffers events in memory — the test-friendly sink."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlTraceSink:
    """Appends one compact JSON object per line to ``path``.

    The file handle opens lazily on the first event and is line-buffered
    so a crashed run still leaves a readable prefix.  Thread-safe: the
    service's worker threads may share one sink.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None

    def emit(self, event: dict[str, Any]) -> None:
        line = json.dumps(event, separators=(",", ":"), default=float)  # lint: disable=HASH001 -- trace event stream, not a hash input
        with self._lock:
            if self._handle is None:
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8",
                                    buffering=1)
            self._handle.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


_RUN_COUNTER = itertools.count(1)


def _hostname() -> str:
    """Hostname with whitespace collapsed (same shape DirectoryLock uses)."""
    return "-".join(socket.gethostname().split()) or "unknown-host"


def default_run_id() -> str:
    """Process-local default run id, qualified by hostname.

    Pids collide across fabric hosts, so JSONL merged from two workers
    could interleave two runs under one ``run-{pid}-{n}`` id.  The current
    form is ``run-{host}-{pid}-{n}``; since hostnames may themselves
    contain dashes, parse these from the *right* (``rsplit("-", 2)``) —
    which also still accepts the pre-PR-10 ``run-{pid}-{n}`` form (the
    host field is then empty).
    """
    return f"run-{_hostname()}-{os.getpid()}-{next(_RUN_COUNTER)}"


def parse_run_id(run_id: str) -> Optional[dict[str, Any]]:
    """Split a default-form run id into host/pid/counter, if it is one.

    Handles both ``run-{host}-{pid}-{n}`` (hostnames may contain dashes)
    and the legacy ``run-{pid}-{n}``.  Returns ``None`` for custom ids
    (e.g. the 12-hex :func:`make_run_id` form).
    """
    if not run_id.startswith("run-"):
        return None
    parts = run_id[len("run-"):].rsplit("-", 2)
    if len(parts) == 3 and parts[0]:
        host, pid, counter = parts
    elif len(parts) >= 2:
        host, pid, counter = None, parts[-2], parts[-1]
    else:
        return None
    try:
        return {"host": host, "pid": int(pid), "counter": int(counter)}
    except ValueError:
        return None


class RoundTracer:
    """Emits per-round trace events for one or more runs.

    Parameters
    ----------
    sink:
        Any object with ``emit(dict)`` (and optionally ``close()``).
    run_id:
        Correlation id stamped on every event.  Defaults to a process-local
        sequential id; pass :func:`make_run_id` of the spec content hash to
        correlate traces with sweep artifacts.
    every:
        Sample one round event out of every ``every`` rounds (the
        ``run_started``/``run_finished`` brackets and the final round are
        always emitted).  Deltas are relative to the previously *emitted*
        event, so downsampled traces still integrate correctly.
    """

    def __init__(self, sink: Any, *, run_id: Optional[str] = None,
                 every: int = 1):
        if every < 1:
            raise TelemetryError(f"trace every= must be >= 1, got {every}")
        self.sink = sink
        self.run_id = run_id or default_run_id()
        self.every = int(every)
        self._started_at: Optional[float] = None
        self._last_potential: Optional[float] = None
        self._last_cost: Optional[float] = None
        self.rounds_emitted = 0

    # ------------------------------------------------------------- helpers
    def _wall(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    @staticmethod
    def _batch_means(game, counts: np.ndarray,
                     active: Optional[np.ndarray]) -> tuple[float, float, int]:
        """Mean potential / social cost over the live replicas."""
        batch = np.atleast_2d(np.asarray(counts))
        live = int(batch.shape[0])
        if active is not None:
            live = int(len(active))
            if live > 0:  # all-retired: means over the final snapshot
                batch = batch[np.asarray(active)]
        potential = float(np.mean(game.potential_batch(batch)))
        cost = float(np.mean(game.social_cost_batch(batch)))
        return potential, cost, live

    def _emit(self, event: dict[str, Any]) -> None:
        event["run_id"] = self.run_id
        event["wall_seconds"] = round(self._wall(), 9)
        # Join the ambient distributed trace, if one is open: round events
        # then appear under the per-point span in `repro trace` output.
        context = current_span_context()
        if context is not None:
            event["trace_id"] = context.trace_id
            event["span_id"] = context.span_id
        self.sink.emit(event)

    # -------------------------------------------------------------- events
    def run_started(self, game, *, engine: str, replicas: int,
                    max_rounds: int) -> None:
        self._started_at = time.perf_counter()
        self._last_potential = None
        self._last_cost = None
        self._emit({
            "event": "run_started",
            "engine": engine,
            "replicas": int(replicas),
            "max_rounds": int(max_rounds),
            "players": int(game.num_players),
            "strategies": int(game.num_strategies),
        })

    def round_completed(self, game, counts: np.ndarray,
                        active: Optional[np.ndarray], round_index: int,
                        migrations: int, *, kind: str = "round") -> None:
        """Record one completed round (or, for the numba native kernel, one
        kernel chunk — ``kind="chunk"`` with ``round_index`` = rounds so
        far and ``migrations`` = moves accumulated over the chunk)."""
        if kind == "round" and round_index % self.every != 0:
            return
        potential, cost, live = self._batch_means(game, counts, active)
        event: dict[str, Any] = {
            "event": kind,
            "round": int(round_index),
            "live_replicas": live,
            "migrations": int(migrations),
            "potential_mean": potential,
            "social_cost_mean": cost,
        }
        if self._last_potential is not None:
            event["potential_delta"] = potential - self._last_potential
            event["social_cost_delta"] = cost - self._last_cost
        self._last_potential = potential
        self._last_cost = cost
        self.rounds_emitted += 1
        self._emit(event)

    def chunk_completed(self, game, counts: np.ndarray,
                        active: Optional[np.ndarray], rounds_done: int,
                        migrations: int) -> None:
        """Coarse per-chunk event from the native kernel (the fine-grained
        per-round hook would force sync=1 and deoptimize the hot loop)."""
        self.round_completed(game, counts, active, rounds_done, migrations,
                             kind="chunk")

    def run_finished(self, game, counts: np.ndarray,
                     active: Optional[np.ndarray], *, rounds: int,
                     total_migrations: int, converged: bool) -> None:
        potential, cost, live = self._batch_means(game, counts, active)
        self._emit({
            "event": "run_finished",
            "rounds": int(rounds),
            "live_replicas": live,
            "total_migrations": int(total_migrations),
            "potential_mean": potential,
            "social_cost_mean": cost,
            "converged": bool(converged),
        })

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "RoundTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

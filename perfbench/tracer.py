"""Per-layer spans for the traced repetition, recorded around public calls.

:class:`Tracer` replaces a function — a module attribute, a class method or
a method of one object — by a wrapper that opens a span when the call
starts and closes it when the call returns.  A span has a group (the
per-layer metric it feeds), a parent (the span open on the same thread when
it started), a start and an end.  Totals are accumulated as spans close:

* ``s`` and ``calls`` of a group count only its outermost spans, so a
  latency call made from inside another latency call is not counted twice;
* ``self_s`` of a group is the duration of each of its spans minus the time
  of that span's children, whatever their group.

The first :data:`KEEP` spans stay in memory and :meth:`Tracer.write` saves
them as JSON lines when the repetition ends (the totals cover every span).
:meth:`Tracer.restore` puts every original function back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Spans kept for the span file.  A traced singleton-nash repetition opens
#: millions; the totals are accumulated as spans close and need none kept.
KEEP = 200_000

_MISSING = object()


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans --
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, group: str) -> list:
        stack = self._stack()
        # [group, span id, parent span id, time in children, start]
        frame = [group, next(self._ids), stack[-1][1] if stack else 0, 0.0,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        group, span_id, parent, children, start = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        outermost = all(open_frame[0] != group for open_frame in stack)
        with self._lock:
            total = self.totals[group]
            total["self_s"] += duration - children
            if outermost:
                total["s"] += duration
                total["calls"] += 1
            if len(self.spans) < KEEP:
                self.spans.append((span_id, parent, group, start, end,
                                   threading.get_ident()))

    @contextmanager
    def span(self, group: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open(group)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, group: str, func):
        """``func`` with one span per call."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self._open(group)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(frame)
        return traced

    def wrap_run(self, group: str, run):
        """``EnsembleDynamics.run`` with a span per call, a ``core.stop``
        span around each call of its stop condition, and the exact round
        and migration counts of each result.  ``functools.wraps`` copies the
        stop condition's attributes, so the native engine still finds the
        ``native_spec`` it fuses into its kernel."""
        @functools.wraps(run)
        def traced(dynamics, *args, **kwargs):
            stop = kwargs.get("stop_condition")
            if stop is not None:
                kwargs["stop_condition"] = self.wrap("core.stop", stop)
            with self.span(group):
                result = run(dynamics, *args, **kwargs)
            with self._lock:
                self.counts["core.rounds_total"] += int(result.rounds.sum())
                self.counts["core.rounds_max"] = max(
                    self.counts["core.rounds_max"], int(result.rounds.max()))
                self.counts["core.migrations_total"] += int(
                    result.total_migrations.sum())
            return result
        return traced

    # ---------------------------------------------------------- patches --
    def patch(self, owner, name: str, group: str, wrapper=None) -> None:
        """Replace ``owner.name`` (module, class or object) by its traced
        form until :meth:`restore`."""
        saved = vars(owner).get(name, _MISSING)
        wrapper = wrapper or self.wrap
        setattr(owner, name, wrapper(group, getattr(owner, name)))
        self._patches.append((owner, name, saved))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, name, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)

    def write(self, path) -> None:
        """Save the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, group, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "group": group,
                    "start": start, "end": end, "thread": thread}) + "\n")


class NullTracer:
    """The untraced repetition's tracer: a span is one no-op block."""

    @contextmanager
    def span(self, group: str):
        yield


def _classes(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def trace_compute(tracer: Tracer) -> None:
    """Wrap the game, protocol, engine and sweep-kernel functions whose
    time the ``games.*`` and ``core.*`` per-layer metrics report."""
    from repro.core import ensemble
    from repro.core.protocols import Protocol
    from repro.games.base import CongestionGame
    from repro.sweeps import kernels

    game_methods = (("strategy_latencies_batch", "games.latency"),
                    ("resource_latencies_batch", "games.latency"),
                    ("post_migration_latency_matrix_batch",
                     "games.post_migration"),
                    ("validate_batch_state", "games.validate"))
    for cls in _classes(CongestionGame):
        for name, group in game_methods:
            if name in vars(cls):
                tracer.patch(cls, name, group)
    for cls in _classes(Protocol):
        if "switch_probabilities_batch" in vars(cls):
            tracer.patch(cls, "switch_probabilities_batch", "core.protocol")
    tracer.patch(ensemble.EnsembleDynamics, "run", "core.ensemble",
                 tracer.wrap_run)
    tracer.patch(ensemble, "sample_migration_matrices", "core.draw")
    tracer.patch(kernels, "build_game", "games.build")


def trace_store(tracer: Tracer, service) -> None:
    """Wrap the daemon's store reads and writes and its aggregate call."""
    from repro.service import server

    tracer.patch(service.store, "commit", "sweeps.store.commit")
    tracer.patch(service.store, "load_rows", "sweeps.store.load_rows")
    tracer.patch(service.store, "completed_keys",
                 "sweeps.store.completed_keys")
    tracer.patch(server, "aggregate_rows", "sweeps.aggregate")


def trace_handlers(tracer: Tracer, service) -> None:
    """Wrap the :class:`SweepService` methods behind the warm routes."""
    for route in ("rows", "aggregate", "submit"):
        method = "row_lines" if route == "rows" else route
        tracer.patch(service, method, f"service.handler.{route}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the spans and counts give, by metric name."""
    totals, counts = tracer.totals, tracer.counts
    metrics: dict[str, float] = {}
    for group in ("games.latency", "games.post_migration", "games.validate",
                  "core.draw", "sweeps.store.commit", "sweeps.store.load_rows"):
        metrics[f"{group}.s"] = totals[group]["s"]
        metrics[f"{group}.calls"] = totals[group]["calls"]
    for group in ("core.stop", "core.protocol"):
        metrics[f"{group}.s"] = totals[group]["s"]
        metrics[f"{group}.self_s"] = totals[group]["self_s"]
        metrics[f"{group}.calls"] = totals[group]["calls"]
    metrics["core.ensemble.self_s"] = totals["core.ensemble"]["self_s"]
    metrics["games.build_s"] = totals["games.build"]["s"]
    metrics["sweeps.store.completed_keys.s"] = \
        totals["sweeps.store.completed_keys"]["s"]
    metrics["sweeps.aggregate.s"] = totals["sweeps.aggregate"]["s"]
    for name in ("core.rounds_total", "core.rounds_max",
                 "core.migrations_total"):
        metrics[name] = counts[name]
    return metrics

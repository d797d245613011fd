"""Run the whole experiment suite and render reports.

Used by the command-line interface (``python -m repro run-all``) and by the
documentation workflow that regenerates the measured tables in
``EXPERIMENTS.md``.  With ``jobs > 1`` the independent experiments are
distributed over the sweep scheduler's worker pool
(:func:`repro.sweeps.parallel_map`), so the suite parallelises the same way
a sharded parameter sweep does.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..errors import ExperimentError
from ..sweeps.scheduler import parallel_map
from ..telemetry import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from .registry import ExperimentResult, list_experiments, run_experiment

__all__ = ["run_all", "render_report", "render_markdown_report"]


def _run_one(payload: tuple[str, dict]) -> ExperimentResult:
    """Pool worker: run one experiment and record its wall clock."""
    experiment_id, kwargs = payload
    started = time.perf_counter()
    result = run_experiment(experiment_id, **kwargs)
    elapsed = time.perf_counter() - started
    result.parameters.setdefault("wall_clock_seconds", round(elapsed, 2))
    return result


def run_all(
    *,
    quick: bool = True,
    seed: int = 2009,
    only: Optional[Iterable[str]] = None,
    verbose: bool = False,
    engine: str = "batch",
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment (or the subset in ``only``).

    ``engine`` selects the round engine ("batch" runs each experiment's
    replicas as one vectorized ensemble, "native" through the fused round
    kernel, "loop" one trajectory at a time) for every experiment that
    simulates concurrent rounds; ``jobs`` distributes
    independent experiments over that many worker processes.  Unknown
    identifiers in ``only`` raise :class:`~repro.errors.ExperimentError`
    listing the valid ones.  Returns a mapping from experiment identifier to
    its result, in registry order.

    ``registry`` (an optional :class:`~repro.telemetry.MetricsRegistry`)
    collects ``experiments_run_total`` and a per-experiment
    ``experiment_seconds{experiment=...}`` duration histogram — the same
    wall clocks recorded in each result's ``wall_clock_seconds``, exposed
    as mergeable metrics for embedding callers.
    """
    specs = list_experiments()
    known = {spec.experiment_id for spec in specs}
    wanted = {identifier.upper() for identifier in only} if only is not None else None
    if wanted is not None:
        unknown = sorted(wanted - known)
        if unknown:
            raise ExperimentError(
                f"unknown experiment id(s) {unknown}; "
                f"known: {', '.join(sorted(known, key=lambda k: (len(k), k)))}"
            )
    selected = [spec.experiment_id for spec in specs
                if wanted is None or spec.experiment_id in wanted]

    kwargs = {"quick": quick, "seed": seed, "engine": engine}
    payloads = [(experiment_id, kwargs) for experiment_id in selected]
    ordered: list[Optional[ExperimentResult]] = [None] * len(payloads)
    for index, result in parallel_map(_run_one, payloads, workers=jobs):
        ordered[index] = result
        if registry is not None:
            registry.counter("experiments_run_total",
                             "Experiments executed by run_all").inc()
            registry.histogram(
                "experiment_seconds", "Wall time per experiment",
                DEFAULT_DURATION_BUCKETS,
                experiment=result.experiment_id,
            ).observe(float(result.parameters.get("wall_clock_seconds", 0.0)))
        if verbose and jobs <= 1:
            print(result.render())
            print()
    results = {result.experiment_id: result for result in ordered
               if result is not None}
    if verbose and jobs > 1:
        for result in results.values():
            print(result.render())
            print()
    return results


def render_report(results: dict[str, ExperimentResult]) -> str:
    """Plain-text report over all experiment results."""
    parts = []
    for result in results.values():
        parts.append(result.render())
        parts.append("")
    return "\n".join(parts)


def render_markdown_report(results: dict[str, ExperimentResult]) -> str:
    """Markdown report over all experiment results (EXPERIMENTS.md body)."""
    parts = []
    for result in results.values():
        parts.append(result.render_markdown())
        parts.append("")
    return "\n".join(parts)

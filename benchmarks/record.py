"""Persist benchmark guard numbers to a committed ``BENCH_<pr>.json``.

The acceptance guards in this directory (engine speedups, round-budget
ceilings, million-player wall-clock budgets) assert against thresholds, but
the *measured* numbers themselves are worth keeping: they are the
performance record of each PR.  With ``REPRO_BENCH_RECORD=1`` in the
environment, the ``pytest_sessionfinish`` hook in ``conftest.py`` calls
:func:`write_benchmark_record` after the benchmark session, dumping one JSON
document per PR — ``BENCH_10.json`` for this one — at the repository root.
Without it a session writes nothing.

The document carries, per benchmark: the timing statistics
(mean/min/max/stddev/rounds) and the benchmark's ``extra_info`` (speedup
factors, row counts, experiment notes), plus an environment stanza (numpy
version, numba availability) so a number can be read in context later.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any

#: The PR this record belongs to; bump together with the filename below.
PR_NUMBER = 10

#: Written at the repository root (the parent of ``benchmarks/``).
RECORD_PATH = Path(__file__).resolve().parent.parent / f"BENCH_{PR_NUMBER}.json"


def _environment() -> dict[str, Any]:
    import numpy

    from repro.engines import engine_runtime_info

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **engine_runtime_info(),
    }


def _stats_dict(stats) -> dict[str, Any]:
    return {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }


def collect_benchmarks(session) -> list[dict[str, Any]]:
    """Extract name/stats/extra_info for every benchmark that actually ran."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return []
    records = []
    for bench in benchmark_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # skipped or errored before measuring
            continue
        # the fixture nests Metadata.stats.stats; session entries may hold
        # the Stats object directly — accept both shapes
        inner = getattr(stats, "stats", stats)
        records.append({
            "name": bench.name,
            "group": bench.group,
            **_stats_dict(inner),
            "extra_info": dict(bench.extra_info),
        })
    return records


def write_benchmark_record(session) -> Path | None:
    """Dump the session's benchmarks to :data:`RECORD_PATH`.

    Returns the path written, or ``None`` when the session measured nothing
    (e.g. a collection-only or ``-k``-filtered run with no benchmarks) — an
    empty run must never clobber a committed record.
    """
    records = collect_benchmarks(session)
    if not records:
        return None
    payload = {
        "pr": PR_NUMBER,
        "environment": _environment(),
        "benchmarks": sorted(records, key=lambda r: r["name"]),
    }
    RECORD_PATH.write_text(json.dumps(payload, indent=2, sort_keys=False)
                           + "\n", encoding="utf-8")
    return RECORD_PATH

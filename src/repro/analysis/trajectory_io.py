"""Persisting trajectories and experiment results.

Long experiment campaigns want their raw data on disk: per-round metric
records for plotting, and experiment tables for later aggregation.  This
module provides a small, dependency-free JSON/CSV layer:

* :func:`records_to_dicts` / :func:`save_records_csv` /
  :func:`save_records_json` — per-round :class:`RoundRecord` sequences,
* :func:`save_experiment_result` / :func:`load_experiment_result` — the
  :class:`~repro.experiments.registry.ExperimentResult` tables produced by
  the harness,
* :func:`trajectory_summary` — a compact dictionary summary of a
  :class:`~repro.core.dynamics.TrajectoryResult` suitable for logging.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from ..core.dynamics import TrajectoryResult
from ..core.metrics import RoundRecord

if TYPE_CHECKING:
    from ..experiments.registry import ExperimentResult

PathLike = Union[str, Path]

__all__ = [
    "records_to_dicts",
    "save_records_csv",
    "save_records_json",
    "load_records_json",
    "trajectory_summary",
    "save_experiment_result",
    "load_experiment_result",
]


def records_to_dicts(records: Sequence[RoundRecord]) -> list[dict]:
    """Convert round records to plain dictionaries (JSON/CSV friendly)."""
    return [asdict(record) for record in records]


def save_records_csv(records: Sequence[RoundRecord], path: PathLike) -> Path:
    """Write round records to a CSV file (one row per recorded round)."""
    path = Path(path)
    rows = records_to_dicts(records)
    if not rows:
        raise ValueError("cannot save an empty record sequence")
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def save_records_json(records: Sequence[RoundRecord], path: PathLike) -> Path:
    """Write round records to a JSON file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(records_to_dicts(records), handle, indent=2)
    return path


def load_records_json(path: PathLike) -> list[RoundRecord]:
    """Read round records back from :func:`save_records_json` output."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        rows = json.load(handle)
    return [RoundRecord(**row) for row in rows]


def trajectory_summary(result: TrajectoryResult) -> dict:
    """Compact, JSON-serialisable summary of a trajectory."""
    summary = {
        "rounds": result.rounds,
        "stop_reason": result.stop_reason.value,
        "total_migrations": result.total_migrations,
        "final_counts": result.final_state.counts.tolist(),
        "converged": result.converged,
    }
    if result.records:
        summary["initial_potential"] = result.records[0].potential
        summary["final_potential"] = result.records[-1].potential
    return summary


def save_experiment_result(result: ExperimentResult, path: PathLike) -> Path:
    """Write an experiment result (rows, notes, parameters) to JSON."""
    path = Path(path)
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "claim": result.claim,
        "rows": result.rows,
        "notes": result.notes,
        "parameters": result.parameters,
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path


def load_experiment_result(path: PathLike) -> ExperimentResult:
    """Read an experiment result back from :func:`save_experiment_result` output."""
    # Imported here: analysis sits below experiments, whose package pulls
    # in the sweep and telemetry layers.
    from ..experiments.registry import ExperimentResult

    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        claim=payload["claim"],
        rows=payload["rows"],
        notes=payload["notes"],
        parameters=payload["parameters"],
    )

"""Group-by reducers over sweep rows.

Sweep rows are per-point (already averaged over a point's ensemble
replicas); these helpers reduce *across* points — e.g. mean hitting time by
``n`` marginalised over the ``epsilon`` axis — and hand the heavy lifting to
the existing statistics toolkit (:func:`repro.analysis.statistics.summarize`
for means/CIs, plain quantiles otherwise), so sweep aggregates and
experiment tables share one numerical code path.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np
# np.quantile/np.median import numpy.ma on first call: load it before serving.
import numpy.ma  # noqa: F401

from ..analysis.statistics import summarize
from .spec import SweepError

__all__ = ["DEFAULT_STATS", "aggregate_rows", "explode_column", "group_rows",
           "table_rows"]

#: Reducers applied by default: mean/median with spread and a CI.
DEFAULT_STATS = ("count", "mean", "median", "std", "min", "max",
                 "ci_low", "ci_high")

#: Columns that identify a point rather than measure it — dropped from
#: rendered tables.
_IDENTITY_COLUMNS = ("point_key", "times")


def group_rows(rows: Sequence[Mapping[str, Any]], by: Sequence[str]
               ) -> dict[tuple, list[Mapping[str, Any]]]:
    """Group ``rows`` by the value tuple of the ``by`` columns.

    Groups keep first-appearance order (which for scheduler output means
    point-expansion order, independent of sharding).
    """
    if not by:
        raise SweepError("group_rows needs at least one group-by column")
    groups: dict[tuple, list[Mapping[str, Any]]] = {}
    for row in rows:
        missing = [column for column in by if column not in row]
        if missing:
            raise SweepError(f"row {sorted(row)} lacks group-by column(s) {missing}")
        groups.setdefault(tuple(row[column] for column in by), []).append(row)
    return groups


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _group_values(members: list[Mapping[str, Any]], value: str) -> list[float]:
    values: list[float] = []
    for member in members:
        if value not in member:
            raise SweepError(f"row {sorted(member)} lacks value column {value!r}")
        try:
            values.append(float(member[value]))
        except (TypeError, ValueError):
            raise SweepError(
                f"value column {value!r} is not numeric "
                f"(got {member[value]!r})"
            ) from None
    return values


def _reduce(values: list[float], summary: Mapping[str, float], stat: str) -> float:
    if stat.startswith("q") and stat[1:].isdigit():
        return _quantile(values, int(stat[1:]) / 100.0)
    try:
        return summary[stat]
    except KeyError:
        raise SweepError(
            f"unknown statistic {stat!r}; known: {sorted(summary)} "
            "plus quantiles like 'q25'"
        ) from None


def aggregate_rows(
    rows: Sequence[Mapping[str, Any]],
    *,
    by: Sequence[str],
    value: str = "rounds_mean",
    stats: Sequence[str] = DEFAULT_STATS,
) -> list[dict[str, Any]]:
    """Reduce ``value`` over groups of rows.

    Returns one output row per group — the group columns first, then one
    ``<value>_<stat>`` column per requested statistic.  ``stats`` accepts
    the :class:`~repro.analysis.statistics.TrialSummary` fields plus
    quantile names like ``"q25"``/``"q90"``.
    """
    aggregated: list[dict[str, Any]] = []
    for key, members in group_rows(rows, by).items():
        values = _group_values(members, value)
        summary = summarize(values).as_dict()
        out: dict[str, Any] = dict(zip(by, key))
        for stat in stats:
            out[f"{value}_{stat}"] = _reduce(values, summary, stat)
        aggregated.append(out)
    return aggregated


def explode_column(rows: Sequence[Mapping[str, Any]], column: str = "times"
                   ) -> list[dict[str, Any]]:
    """Flatten a list-valued column into one row per element.

    Turns per-point trial lists back into per-trial rows so that
    :func:`aggregate_rows` can reduce over *raw trials* (e.g. a pooled CI
    over every replica of every point sharing an ``n``) instead of over
    per-point means.
    """
    exploded: list[dict[str, Any]] = []
    for row in rows:
        values = row.get(column)
        if not isinstance(values, (list, tuple)):
            raise SweepError(f"column {column!r} is not list-valued in row "
                             f"{sorted(row)}")
        for value in values:
            flat = {k: v for k, v in row.items() if k != column}
            flat[column[:-1] if column.endswith("s") else f"{column}_value"] = value
            exploded.append(flat)
    return exploded


def table_rows(rows: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Rows with identity/bulk columns stripped, ready for table rendering."""
    return [{key: value for key, value in row.items()
             if key not in _IDENTITY_COLUMNS} for row in rows]

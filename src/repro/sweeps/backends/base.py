"""The pluggable store-backend contract.

A :class:`StoreBackend` is the persistence seam of the sweep layer: it
implements the read/write/commit/resume contract that
:class:`~repro.sweeps.store.SweepStore` (the facade every caller holds)
delegates to.  Three implementations ship with the package:

======== ======================= ==========================================
scheme   module                  layout
======== ======================= ==========================================
``dir``  :mod:`.localdir`        one directory per spec: JSONL rows + a
                                 JSON manifest (the historical layout)
``sqlite`` :mod:`.sqlite`        one SQLite file in WAL mode, shard commits
                                 as transactions
``object`` :mod:`.objectstore`   S3-style content-addressed objects keyed
                                 by ``spec.content_hash()`` / ``point_key``
                                 under a filesystem prefix
======== ======================= ==========================================

The invariants every backend must uphold (they are what the scheduler,
service and remote-worker fabric rely on):

* **first commit wins** — committing a ``point_key`` that is already stored
  must never replace the stored row.  Rows are deterministic functions of
  ``(spec, point.index)``, so duplicates are identical anyway; the rule
  makes duplicate shard completions (a requeued lease racing its dead
  holder) idempotent at the storage layer too.
* **atomic shard commits** — a crash mid-:meth:`~StoreBackend.commit`
  leaves either nothing or only complete, parseable rows behind (a single
  torn trailing artefact that :meth:`~StoreBackend.load_rows` skips is
  acceptable); interrupted sweeps must resume losslessly.
* **byte-stable rows** — :meth:`~StoreBackend.load_rows` returns dicts that
  ``json.dumps`` back to exactly what was committed (key order preserved),
  so cached reruns render byte-identical tables.
* **lock-free reads** — readers never block writers; consistency comes
  from commit atomicity.
* **a rows version** — :meth:`~StoreBackend.rows_version` changes
  whenever the committed rows of a spec change, whoever committed them,
  so a reader can keep its parse until the token moves.
"""

from __future__ import annotations

import abc
import time
from pathlib import Path
from typing import Any, ClassVar, Hashable, Iterable, Optional

from ..spec import CODE_VERSION, SweepSpec

__all__ = ["StoreBackend", "manifest_payload"]


def manifest_payload(spec: SweepSpec) -> dict[str, Any]:
    """The canonical manifest document every backend stores per spec.

    The recorded ``spec`` preserves axis declaration order (it is semantic:
    it fixes the point-index → seed assignment), which is why backends must
    never serialise it with ``sort_keys``.
    """
    return {
        "name": spec.name,
        "spec": spec.to_dict(),
        "spec_hash": spec.content_hash(),
        "code_version": CODE_VERSION,
        "num_points": spec.num_points,
        "created_at": time.time(),
    }


class StoreBackend(abc.ABC):
    """Abstract persistence backend behind :class:`SweepStore`.

    Parameters
    ----------
    root:
        The backend's filesystem anchor — a directory for ``dir`` and
        ``object``, a database file for ``sqlite``.  It need not exist yet;
        backends create it lazily on first write.
    """

    #: URL scheme this backend registers under (``dir``, ``sqlite``, ...).
    scheme: ClassVar[str] = ""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def url(self) -> str:
        """The ``<scheme>:<path>`` string that reopens this backend."""
        return f"{self.scheme}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.url}>"

    # ------------------------------------------------------------- writes
    @abc.abstractmethod
    def commit(self, spec: SweepSpec, rows: Iterable[dict[str, Any]]) -> int:
        """Persist one shard's completed rows atomically; first commit wins.

        Returns the number of rows handed in (duplicates count — the caller
        measures shard size, not storage deltas).  Rows without a
        ``point_key`` are not stored: they would be invisible to
        :meth:`load_rows` anyway.
        """

    @abc.abstractmethod
    def reset(self, spec: SweepSpec) -> None:
        """Drop the committed rows of ``spec`` (manifests are kept)."""

    @abc.abstractmethod
    def record_telemetry(self, spec: SweepSpec,
                         payload: dict[str, Any]) -> None:
        """Attach the last run's telemetry stanza to the spec's manifest.

        Advisory metadata: overwritten by each run, never part of the rows,
        never part of any content hash.
        """

    # -------------------------------------------------------------- reads
    @abc.abstractmethod
    def manifest(self, spec: SweepSpec) -> Optional[dict[str, Any]]:
        """The stored manifest of ``spec``, or ``None`` if never committed."""

    @abc.abstractmethod
    def load_rows(self, spec: SweepSpec) -> list[dict[str, Any]]:
        """All committed rows of ``spec``, de-duplicated by ``point_key``.

        Duplicated points keep their *first* committed row; torn artefacts
        of an interrupted commit are skipped.
        """

    @abc.abstractmethod
    def rows_version(self, spec: SweepSpec) -> Hashable:
        """A cheap token that changes whenever the committed rows change.

        Equal tokens promise equal :meth:`load_rows` results.  Read the
        token *before* the rows: a commit racing the read then makes the
        rows newer than their token (the next read reloads), never older.
        """

    @abc.abstractmethod
    def runs(self) -> list[dict[str, Any]]:
        """Manifests of every sweep ever committed to this backend."""

    def completed_keys(self, spec: SweepSpec) -> set[str]:
        """The ``point_key`` set of all committed points of ``spec``."""
        return {row["point_key"] for row in self.load_rows(spec)}

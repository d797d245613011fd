"""The ``sqlite:`` backend — one WAL-mode database file, transactional
shard commits.

Where the ``dir:`` backend needs an advisory
:class:`~repro.sweeps.store.DirectoryLock` to keep concurrent writers from
interleaving partial lines, SQLite gives the same guarantees natively:

* **atomic shard commits** — each :meth:`SqliteBackend.commit` is one
  transaction; a crash mid-commit rolls back to nothing instead of leaving
  a torn trailing line;
* **first commit wins** — a unique ``(spec_hash, point_key)`` index with
  ``INSERT OR IGNORE`` makes duplicate completions (a requeued lease racing
  its dead holder, a racy resume) no-ops at the storage layer;
* **concurrent writers** — WAL mode serialises writers on SQLite's own
  file lock (with a busy timeout) while readers proceed lock-free against
  the last committed snapshot.

Rows are stored as their exact JSON serialisation (``payload`` column), so
:meth:`load_rows` returns dicts that re-``json.dumps`` byte-identically to
what the ``dir:`` backend would have written — tables render the same no
matter which backend served them.

Every operation opens a short-lived connection: connections are cheap at
this call rate, never cross threads (the service's HTTP and worker threads
all hit the same backend object), and never leak file handles into forked
sweep workers.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Any, Iterable, Optional

from ..spec import SweepError, SweepSpec
from .base import StoreBackend, manifest_payload

__all__ = ["SqliteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS manifests (
    spec_hash  TEXT PRIMARY KEY,
    slug       TEXT NOT NULL,
    payload    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS rows (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    spec_hash  TEXT NOT NULL,
    point_key  TEXT NOT NULL,
    payload    TEXT NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS rows_identity
    ON rows (spec_hash, point_key);
"""


class SqliteBackend(StoreBackend):
    """Single-file SQLite store (WAL journal, busy-wait on writer lock)."""

    scheme = "sqlite"

    #: Seconds SQLite retries a locked database before surfacing the error
    #: (the analogue of the dir backend's LOCK_TIMEOUT).
    BUSY_TIMEOUT = 30.0

    def _connect(self) -> sqlite3.Connection:
        self.root.parent.mkdir(parents=True, exist_ok=True)
        try:
            connection = sqlite3.connect(self.root,
                                         timeout=self.BUSY_TIMEOUT)
        except sqlite3.Error as error:
            raise SweepError(
                f"cannot open sqlite store {self.root}: {error}") from error
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.executescript(_SCHEMA)
        return connection

    # ------------------------------------------------------------ writes
    def _ensure_manifest(self, connection: sqlite3.Connection,
                         spec: SweepSpec) -> None:
        # NOT sort_keys: axis declaration order in the recorded spec is
        # semantic (point-index -> seed assignment).
        connection.execute(
            "INSERT OR IGNORE INTO manifests (spec_hash, slug, payload) "
            "VALUES (?, ?, ?)",
            (spec.content_hash(), spec.slug(),
             json.dumps(manifest_payload(spec))))

    def commit(self, spec: SweepSpec, rows: Iterable[dict[str, Any]]) -> int:
        rows = list(rows)
        if not rows:
            return 0
        spec_hash = spec.content_hash()
        records = [(spec_hash, row["point_key"], json.dumps(row))
                   for row in rows if row.get("point_key") is not None]
        connection = self._connect()
        try:
            with connection:  # one transaction: the atomic shard commit
                self._ensure_manifest(connection, spec)
                connection.executemany(
                    "INSERT OR IGNORE INTO rows (spec_hash, point_key, "
                    "payload) VALUES (?, ?, ?)", records)
        finally:
            connection.close()
        return len(rows)

    def reset(self, spec: SweepSpec) -> None:
        connection = self._connect()
        try:
            with connection:
                connection.execute("DELETE FROM rows WHERE spec_hash = ?",
                                   (spec.content_hash(),))
        finally:
            connection.close()

    def record_telemetry(self, spec: SweepSpec,
                         payload: dict[str, Any]) -> None:
        connection = self._connect()
        try:
            with connection:
                self._ensure_manifest(connection, spec)
                row = connection.execute(
                    "SELECT payload FROM manifests WHERE spec_hash = ?",
                    (spec.content_hash(),)).fetchone()
                manifest = json.loads(row[0])
                manifest["telemetry"] = dict(payload,
                                             recorded_at=time.time())
                connection.execute(
                    "UPDATE manifests SET payload = ? WHERE spec_hash = ?",
                    (json.dumps(manifest), spec.content_hash()))
        finally:
            connection.close()

    # ------------------------------------------------------------- reads
    def manifest(self, spec: SweepSpec) -> Optional[dict]:
        if not self.root.exists():
            return None
        connection = self._connect()
        try:
            row = connection.execute(
                "SELECT payload FROM manifests WHERE spec_hash = ?",
                (spec.content_hash(),)).fetchone()
        finally:
            connection.close()
        return json.loads(row[0]) if row is not None else None

    def load_rows(self, spec: SweepSpec) -> list[dict[str, Any]]:
        if not self.root.exists():
            return []
        connection = self._connect()
        try:
            cursor = connection.execute(
                "SELECT payload FROM rows WHERE spec_hash = ? ORDER BY seq",
                (spec.content_hash(),))
            return [json.loads(payload) for (payload,) in cursor]
        finally:
            connection.close()

    def completed_keys(self, spec: SweepSpec) -> set[str]:
        if not self.root.exists():
            return set()
        connection = self._connect()
        try:
            cursor = connection.execute(
                "SELECT point_key FROM rows WHERE spec_hash = ?",
                (spec.content_hash(),))
            return {key for (key,) in cursor}
        finally:
            connection.close()

    def rows_version(self, spec: SweepSpec) -> Optional[tuple[int, Any]]:
        # seq is AUTOINCREMENT, so it is never reused: a commit raises
        # MAX(seq), a reset drops COUNT(*), and one snapshot reads both.
        if not self.root.exists():
            return None
        connection = self._connect()
        try:
            return connection.execute(
                "SELECT COUNT(*), MAX(seq) FROM rows WHERE spec_hash = ?",
                (spec.content_hash(),)).fetchone()
        finally:
            connection.close()

    def runs(self) -> list[dict]:
        if not self.root.exists():
            return []
        connection = self._connect()
        try:
            cursor = connection.execute(
                "SELECT payload FROM manifests ORDER BY slug")
            return [json.loads(payload) for (payload,) in cursor]
        finally:
            connection.close()

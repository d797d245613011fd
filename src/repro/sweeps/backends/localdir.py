"""The ``dir:`` backend — one directory per spec, JSONL rows + manifest.

This is the historical :class:`~repro.sweeps.store.SweepStore` layout,
extracted behind the :class:`~repro.sweeps.backends.base.StoreBackend`
interface byte-for-byte unchanged::

    <root>/
      eps-delta-3f2a9c01d4b8e6f7/     # spec.slug(): name + content hash
        manifest.json                 # the spec, its hash, code version
        rows.jsonl                    # one completed point per line
        .lock                         # advisory DirectoryLock

Crash safety comes from single-write + ``fsync`` shard commits (a torn
trailing line fails to parse and is skipped on load); writer mutual
exclusion from the directory's advisory
:class:`~repro.sweeps.store.DirectoryLock` (``fcntl.flock`` where
available, a hostname-qualified PID lockfile otherwise).  Readers take no
lock.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Optional

from ..spec import SweepSpec
from .base import StoreBackend, manifest_payload

__all__ = ["LocalDirBackend"]


class LocalDirBackend(StoreBackend):
    """Directory-per-spec JSONL + manifest store (the default backend)."""

    scheme = "dir"

    MANIFEST = "manifest.json"
    ROWS = "rows.jsonl"

    #: Seconds a writer waits for a directory's advisory lock before
    #: giving up with :class:`~repro.sweeps.store.StoreLockTimeout`.
    LOCK_TIMEOUT = 30.0

    # ------------------------------------------------------------- paths
    def directory(self, spec: SweepSpec) -> Path:
        """The store directory of ``spec`` (not necessarily existing yet)."""
        return self.root / spec.slug()

    def manifest_path(self, spec: SweepSpec) -> Path:
        """Path of the spec's manifest file."""
        return self.directory(spec) / self.MANIFEST

    def rows_path(self, spec: SweepSpec) -> Path:
        """Path of the spec's JSONL row file."""
        return self.directory(spec) / self.ROWS

    def lock(self, spec: SweepSpec, *, timeout: Optional[float] = None):
        """The advisory lock of ``spec``'s directory (a context manager).

        Imported lazily from :mod:`repro.sweeps.store` so that module
        remains the single home of the lock implementation (tests
        monkeypatch ``repro.sweeps.store.fcntl`` to exercise the
        PID-lockfile fallback).
        """
        from ..store import DirectoryLock

        return DirectoryLock(self.directory(spec),
                             timeout=self.LOCK_TIMEOUT if timeout is None
                             else timeout)

    # ------------------------------------------------------------- reads
    def manifest(self, spec: SweepSpec) -> Optional[dict]:
        path = self.manifest_path(spec)
        if not path.exists():
            return None
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def load_rows(self, spec: SweepSpec) -> list[dict[str, Any]]:
        path = self.rows_path(spec)
        if not path.exists():
            return []
        rows: list[dict[str, Any]] = []
        seen: set[str] = set()
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write of an interrupted commit
                key = row.get("point_key")
                if key is None or key in seen:
                    continue
                seen.add(key)
                rows.append(row)
        return rows

    def rows_version(self, spec: SweepSpec) -> Optional[tuple[int, int, int]]:
        # rows.jsonl only grows (every commit appends), and a reset unlinks
        # it: the size moves with every commit even inside one tick of a
        # coarse mtime clock.  Only a reset plus re-commits inside one tick
        # that reuse the inode and reach the same size would go unseen.
        try:
            stat = os.stat(self.rows_path(spec))
        except FileNotFoundError:
            return None
        return stat.st_ino, stat.st_size, stat.st_mtime_ns

    def runs(self) -> list[dict]:
        if not self.root.exists():
            return []
        manifests = []
        for directory in sorted(self.root.iterdir()):
            path = directory / self.MANIFEST
            if path.is_file():
                with path.open("r", encoding="utf-8") as handle:
                    manifests.append(json.load(handle))
        return manifests

    # ------------------------------------------------------------ writes
    def _ensure_manifest(self, spec: SweepSpec) -> None:
        path = self.manifest_path(spec)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            # NOT sort_keys: the axis declaration order inside the recorded
            # spec is semantic (point-index -> seed assignment); sorting it
            # here would make SweepSpec.from_dict(manifest["spec"]) hash to
            # a different slug than the directory it sits in.
            json.dump(manifest_payload(spec), handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)

    def commit(self, spec: SweepSpec, rows: Iterable[dict[str, Any]]) -> int:
        rows = list(rows)
        if not rows:
            return 0
        # Key order is preserved (no sort_keys) so a cache-hit run yields
        # rows — and therefore rendered tables — identical to a fresh run.
        blob = "".join(json.dumps(row) + "\n" for row in rows)
        with self.lock(spec):
            self._ensure_manifest(spec)
            with self.rows_path(spec).open("ab+") as handle:
                # A crash mid-write leaves a torn last line with no newline;
                # start on a fresh line so the first new row is not glued
                # onto the fragment (and skipped with it by load_rows).
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        blob = "\n" + blob
                handle.write(blob.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
        return len(rows)

    def reset(self, spec: SweepSpec) -> None:
        path = self.rows_path(spec)
        if path.exists():
            with self.lock(spec):
                if path.exists():
                    path.unlink()

    def record_telemetry(self, spec: SweepSpec, payload: dict[str, Any]) -> None:
        with self.lock(spec):
            self._ensure_manifest(spec)
            path = self.manifest_path(spec)
            with path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            manifest["telemetry"] = dict(payload, recorded_at=time.time())
            tmp = path.with_suffix(".json.tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2)  # NOT sort_keys (above)
                handle.write("\n")
            os.replace(tmp, path)

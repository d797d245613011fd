"""The ``object:`` backend — S3-style content-addressed objects under a
filesystem prefix.

Layout (every path component is a content address, so names never
collide and objects are immutable once written)::

    <root>/
      sweeps/
        <spec_hash>/                # SweepSpec.content_hash()
          manifest.json             # immutable: written once per spec
          telemetry.json            # mutable side channel, atomic replace
          points/
            <point_key>.json        # one immutable object per point row

The design mirrors how this layout would sit in an actual object store
(S3, GCS): ``PUT``-if-absent objects keyed by content hashes, no locks, no
append operations.  Implemented over the local filesystem so it is fully
testable offline — pointing ``root`` at a mounted bucket (s3fs, NFS) is
the deployment story.

Concurrency needs no advisory lock at all: each point row lands via
*write-to-temp + hard-link* — ``os.link`` fails atomically with ``EEXIST``
when the object already exists, which implements first-commit-wins without
a read-check-write race.  A crash mid-shard leaves whole point objects
behind (never torn ones: the temp file is fully written and fsynced before
it is linked), so interrupted sweeps resume per point.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Iterable, Optional

from ..spec import SweepSpec
from .base import StoreBackend, manifest_payload

__all__ = ["ObjectStoreBackend"]


class ObjectStoreBackend(StoreBackend):
    """Content-addressed per-point objects keyed by the spec hash."""

    scheme = "object"

    MANIFEST = "manifest.json"
    TELEMETRY = "telemetry.json"
    POINTS = "points"

    # ------------------------------------------------------------- paths
    def sweep_prefix(self, spec_or_hash: SweepSpec | str) -> Path:
        spec_hash = (spec_or_hash if isinstance(spec_or_hash, str)
                     else spec_or_hash.content_hash())
        return self.root / "sweeps" / spec_hash

    def point_path(self, spec: SweepSpec, point_key: str) -> Path:
        return self.sweep_prefix(spec) / self.POINTS / f"{point_key}.json"

    # ---------------------------------------------------------- plumbing
    def _put_if_absent(self, path: Path, data: bytes) -> bool:
        """Atomically create ``path`` with ``data`` unless it exists.

        Returns ``True`` when this call created the object — the object-
        store PUT-if-absent primitive (hard-link onto the final name fails
        with ``EEXIST`` if another writer got there first).
        """
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{uuid.uuid4().hex}"
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False  # first committer won; ours was identical anyway
        finally:
            tmp.unlink()

    def _put_replace(self, path: Path, data: bytes) -> None:
        """Atomically create-or-replace ``path`` (mutable side channel)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{uuid.uuid4().hex}"
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _ensure_manifest(self, spec: SweepSpec) -> None:
        # NOT sort_keys: axis declaration order in the recorded spec is
        # semantic (point-index -> seed assignment).
        blob = (json.dumps(manifest_payload(spec), indent=2) + "\n")
        self._put_if_absent(self.sweep_prefix(spec) / self.MANIFEST,
                            blob.encode("utf-8"))

    # ------------------------------------------------------------ writes
    def commit(self, spec: SweepSpec, rows: Iterable[dict[str, Any]]) -> int:
        rows = list(rows)
        if not rows:
            return 0
        self._ensure_manifest(spec)
        for row in rows:
            key = row.get("point_key")
            if key is None:
                continue
            # Key order preserved (no sort_keys): byte-stable row objects.
            blob = (json.dumps(row) + "\n").encode("utf-8")
            self._put_if_absent(self.point_path(spec, key), blob)
        return len(rows)

    def reset(self, spec: SweepSpec) -> None:
        points = self.sweep_prefix(spec) / self.POINTS
        if not points.is_dir():
            return
        for path in points.glob("*.json"):
            try:
                path.unlink()
            except FileNotFoundError:  # concurrent reset; already gone
                pass

    def record_telemetry(self, spec: SweepSpec,
                         payload: dict[str, Any]) -> None:
        import time

        self._ensure_manifest(spec)
        blob = json.dumps(dict(payload, recorded_at=time.time()),
                          indent=2) + "\n"
        self._put_replace(self.sweep_prefix(spec) / self.TELEMETRY,
                          blob.encode("utf-8"))

    # ------------------------------------------------------------- reads
    def _read_manifest(self, prefix: Path) -> Optional[dict]:
        path = prefix / self.MANIFEST
        if not path.is_file():
            return None
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        telemetry = prefix / self.TELEMETRY
        if telemetry.is_file():
            with telemetry.open("r", encoding="utf-8") as handle:
                manifest["telemetry"] = json.load(handle)
        return manifest

    def manifest(self, spec: SweepSpec) -> Optional[dict]:
        return self._read_manifest(self.sweep_prefix(spec))

    def load_rows(self, spec: SweepSpec) -> list[dict[str, Any]]:
        points = self.sweep_prefix(spec) / self.POINTS
        if not points.is_dir():
            return []
        rows: list[dict[str, Any]] = []
        for path in points.glob("*.json"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    rows.append(json.load(handle))
            except (OSError, json.JSONDecodeError):  # pragma: no cover
                continue  # object vanished under a concurrent reset
        # Objects are unordered on disk (directory order is arbitrary);
        # point_index gives the deterministic expansion order back.
        rows.sort(key=lambda row: row.get("point_index", 0))
        return rows

    def completed_keys(self, spec: SweepSpec) -> set[str]:
        points = self.sweep_prefix(spec) / self.POINTS
        if not points.is_dir():
            return set()
        return {path.stem for path in points.glob("*.json")}

    def rows_version(self, spec: SweepSpec) -> Optional[frozenset[str]]:
        # Point objects are immutable and named by their point_key, so the
        # set of names fixes the rows; in-flight ``.tmp-*`` files are not
        # rows and are left out, as load_rows leaves them out.
        try:
            names = os.listdir(self.sweep_prefix(spec) / self.POINTS)
        except FileNotFoundError:
            return None
        return frozenset(name for name in names if name.endswith(".json"))

    def runs(self) -> list[dict]:
        sweeps = self.root / "sweeps"
        if not sweeps.is_dir():
            return []
        manifests = []
        for prefix in sorted(sweeps.iterdir()):
            manifest = self._read_manifest(prefix)
            if manifest is not None:
                manifests.append(manifest)
        return manifests

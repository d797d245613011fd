"""The sweep-result store: a facade over pluggable persistence backends.

:class:`SweepStore` is what every caller holds — the scheduler, the
service, the CLI and the tests.  Since the backend refactor it no longer
implements persistence itself: it parses a URL-style location string and
delegates to one of the :mod:`~repro.sweeps.backends`::

    SweepStore(".sweeps")                 # bare path: the dir backend
    SweepStore("dir:.sweeps")             # the same, spelled explicitly
    SweepStore("sqlite:results.db")       # single-file WAL SQLite
    SweepStore("object:/mnt/bucket")      # content-addressed objects

The directory backend keeps the historical layout byte-for-byte (JSONL
rows + JSON manifest per spec directory), so every store written before
the refactor opens unchanged.  The invariants all backends share — atomic
shard commits, first-commit-wins per ``point_key``, byte-stable rows,
lock-free reads — are documented in :mod:`~repro.sweeps.backends.base`.

Concurrency — the relaxed single-writer contract
------------------------------------------------
Any number of writers (a sweep-service worker, a concurrent CLI ``sweep``,
a remote shard completion) may commit to the same store.  The dir backend
serialises them on the advisory :class:`DirectoryLock` below
(``fcntl.flock`` where available, a hostname-qualified PID lockfile
otherwise); the sqlite backend uses transactions; the object backend needs
no lock at all (objects are immutable and created atomically).  If two
writers commit the same point, the *first committed* row wins everywhere —
and since rows are deterministic functions of ``(spec, point.index)``, the
duplicates are identical anyway.  Readers never lock.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from pathlib import Path
from typing import Any, Hashable, Iterable, Optional

from ..telemetry.logs import StructuredLogger
from .backends import LocalDirBackend, StoreBackend, open_backend
from .spec import SweepError, SweepSpec

try:  # POSIX; on platforms without fcntl the PID-lockfile fallback is used
    import fcntl
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    fcntl = None  # type: ignore[assignment]

__all__ = ["DirectoryLock", "StoreLockTimeout", "SweepStore"]

#: Structured warnings for advisory-lock anomalies (stale-lock takeovers).
#: One line of JSON on stderr — quiet in the happy path, greppable when a
#: crashed writer's lock had to be broken.
_LOCK_EVENTS = StructuredLogger(sys.stderr, component="sweeps.store.lock")


def _hostname() -> str:
    """This machine's name, whitespace-free (it lands in the lockfile)."""
    return "-".join(socket.gethostname().split()) or "unknown-host"


class StoreLockTimeout(SweepError):
    """Raised when a store directory's advisory lock cannot be acquired."""


class DirectoryLock:
    """Advisory inter-process lock on one store directory.

    Two implementations behind one context-manager interface:

    * with :mod:`fcntl` (POSIX): ``flock(LOCK_EX)`` on ``<dir>/.lock``.
      Kernel locks die with their holder, so a crashed writer can never
      leave the directory locked — no staleness handling needed.
    * without :mod:`fcntl`: ``O_CREAT | O_EXCL`` creation of the same file,
      which persists if the holder crashes.  The file records ``pid
      hostname timestamp``; a lock is broken and re-acquired when it is
      provably stale — its PID is dead *on this host*, or its timestamp is
      older than ``stale_after`` seconds.  The hostname qualifier matters
      on shared filesystems (NFS): a PID is only meaningful on the machine
      that created it, so a lock written by another host is **never**
      treated as dead by PID probe — a recycled PID number on this machine
      must not impersonate a live remote holder.  Cross-host staleness
      falls back to the timestamp alone.

    Every stale-lock takeover emits a structured ``stale_lock_takeover``
    warning (JSON on stderr, via :mod:`repro.telemetry.logs`) naming the
    displaced holder, so silent lock-breaking never hides a crash.

    The lock is *advisory*: readers never take it, and nothing stops a
    process that bypasses :class:`SweepStore` from writing anyway.
    """

    FILENAME = ".lock"

    def __init__(self, directory: str | os.PathLike, *, timeout: float = 30.0,
                 poll: float = 0.05, stale_after: float = 600.0):
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self.timeout = timeout
        self.poll = poll
        self.stale_after = stale_after
        self._handle = None      # fcntl path: the open, flocked file object
        self._owns_file = False  # fallback path: we created the lockfile

    # ------------------------------------------------------------------
    def acquire(self) -> "DirectoryLock":
        self.directory.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                return self
            if time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"could not lock store directory {self.directory} within "
                    f"{self.timeout:.1f}s (held by {self._holder()!r}); "
                    "another writer is committing to this sweep"
                )
            time.sleep(self.poll)

    def release(self) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        elif self._owns_file:
            try:
                self.path.unlink()
            except FileNotFoundError:  # pragma: no cover - broken externally
                pass
            self._owns_file = False

    def __enter__(self) -> "DirectoryLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _stamp_line(self) -> str:
        return f"{os.getpid()} {_hostname()} {time.time()}\n"

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            handle = self.path.open("a+", encoding="utf-8")
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
            handle.seek(0)
            handle.truncate()
            handle.write(self._stamp_line())
            handle.flush()
            self._handle = handle
            return True
        try:
            descriptor = os.open(self.path,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            self._break_if_stale()
            return False
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(self._stamp_line())
        self._owns_file = True
        return True

    def _holder(self) -> str:
        try:
            return self.path.read_text(encoding="utf-8").strip()
        except OSError:
            return "unknown"

    #: Unparseable fallback lockfiles younger than this are left alone: a
    #: just-created lock is briefly empty (O_EXCL create, then write), and
    #: breaking it would steal a live holder's lock.
    GARBAGE_GRACE = 5.0

    @staticmethod
    def _parse_holder(content: str) -> tuple[int, Optional[str], float]:
        """Parse a lockfile body: ``pid [hostname] timestamp``.

        The middle hostname field was added for NFS-shared stores; the
        two-field form written by older code still parses (hostname
        ``None`` — treated as this host, the only possibility back then).
        """
        tokens = content.split()
        if len(tokens) == 2:
            return int(tokens[0]), None, float(tokens[1])
        if len(tokens) == 3:
            return int(tokens[0]), tokens[1], float(tokens[2])
        raise ValueError(f"unrecognised lockfile contents: {content!r}")

    def _break_if_stale(self) -> None:
        """Remove a fallback lockfile whose holder is provably gone."""
        try:
            observed = self.path.stat()
            content = self.path.read_text(encoding="utf-8").strip()
        except OSError:
            return  # vanished (or unreadable): just retry the acquire
        pid: Optional[int] = None
        host: Optional[str] = None
        reason = ""
        try:
            pid, host, stamp = self._parse_holder(content)
        except ValueError:
            # Torn/empty contents: stale only once old enough that it
            # cannot be a holder mid-creation.
            stale = time.time() - observed.st_mtime \
                > min(self.stale_after, self.GARBAGE_GRACE)
            reason = "unparseable-contents"
        else:
            if time.time() - stamp > self.stale_after:
                stale = True
                reason = "timestamp-expired"
            elif host is not None and host != _hostname():
                # A foreign host's PID namespace is invisible here: a live
                # PID probe would be meaningless (and a dead one could be a
                # recycled number).  Within stale_after, believe the holder.
                stale = False
            else:
                try:
                    os.kill(pid, 0)
                    stale = False
                except ProcessLookupError:
                    stale = True
                    reason = "holder-pid-dead"
                except OSError:  # pragma: no cover - other user's pid: alive
                    stale = False
        if not stale:
            return
        # Re-check the inode before unlinking: if another contender already
        # broke this lock and a new holder created a fresh file under the
        # same name, deleting it would admit two writers.  (A stat/unlink
        # window remains — the fallback is advisory best-effort; platforms
        # with fcntl never get here.)
        try:
            current = self.path.stat()
        except OSError:
            return
        if (current.st_ino, current.st_mtime_ns) \
                != (observed.st_ino, observed.st_mtime_ns):
            return
        _LOCK_EVENTS.log(
            "stale_lock_takeover", level="warning", path=str(self.path),
            reason=reason, holder_pid=pid, holder_host=host,
            age_seconds=round(time.time() - observed.st_mtime, 3))
        self._unlink_quietly()

    def _unlink_quietly(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


class SweepStore:
    """Resumable sweep-result store — a facade over one pluggable backend.

    Parameters
    ----------
    location:
        A backend instance, or a location string/path: bare paths select
        the ``dir`` backend (the historical layout), ``<scheme>:<path>``
        selects by scheme (``dir:``, ``sqlite:``, ``object:`` — see
        :mod:`repro.sweeps.backends`).

    Writes (:meth:`commit`, :meth:`reset`) are safe under concurrent
    writers on every backend (see the module docstring); reads are
    lock-free.  The dir-specific helpers (:meth:`directory`,
    :meth:`manifest_path`, :meth:`rows_path`, :meth:`lock`) raise
    :class:`~repro.sweeps.spec.SweepError` on other backends — they name
    files that only the directory layout has.
    """

    MANIFEST = LocalDirBackend.MANIFEST
    ROWS = LocalDirBackend.ROWS

    #: Seconds a writer waits for a directory's advisory lock before
    #: giving up with :class:`StoreLockTimeout` (dir backend only).
    LOCK_TIMEOUT = LocalDirBackend.LOCK_TIMEOUT

    def __init__(self, location: StoreBackend | str | os.PathLike):
        if isinstance(location, StoreBackend):
            self.backend = location
        else:
            self.backend = open_backend(os.fspath(location))
        self.scheme = self.backend.scheme
        self.root = self.backend.root

    @property
    def url(self) -> str:
        """The ``<scheme>:<path>`` string that reopens this store."""
        return self.backend.url

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepStore {self.url}>"

    # ----------------------------------------------------- dir-only layer
    def _localdir(self) -> LocalDirBackend:
        if not isinstance(self.backend, LocalDirBackend):
            raise SweepError(
                f"the {self.scheme!r} store backend has no per-spec "
                "directories; directory/manifest_path/rows_path/lock apply "
                "to the 'dir' backend only")
        return self.backend

    def directory(self, spec: SweepSpec) -> Path:
        """The store directory of ``spec`` (dir backend only)."""
        return self._localdir().directory(spec)

    def manifest_path(self, spec: SweepSpec) -> Path:
        """Path of the spec's manifest file (dir backend only)."""
        return self._localdir().manifest_path(spec)

    def rows_path(self, spec: SweepSpec) -> Path:
        """Path of the spec's JSONL row file (dir backend only)."""
        return self._localdir().rows_path(spec)

    def lock(self, spec: SweepSpec, *,
             timeout: Optional[float] = None) -> DirectoryLock:
        """The advisory lock of ``spec``'s directory (dir backend only)."""
        return DirectoryLock(self._localdir().directory(spec),
                             timeout=self.LOCK_TIMEOUT if timeout is None
                             else timeout)

    # ------------------------------------------------------- delegation
    def manifest(self, spec: SweepSpec) -> Optional[dict]:
        """The stored manifest of ``spec``, or ``None`` if never committed."""
        return self.backend.manifest(spec)

    def record_telemetry(self, spec: SweepSpec, payload: dict[str, Any]) -> None:
        """Attach the last run's telemetry to the spec's manifest.

        Telemetry is advisory metadata: it is overwritten by each run and
        never affects the rows or the spec hash.
        """
        self.backend.record_telemetry(spec, payload)

    def commit(self, spec: SweepSpec, rows: Iterable[dict[str, Any]]) -> int:
        """Append one shard's completed rows (an atomic shard commit).

        Returns the number of rows handed in.  First commit wins per
        ``point_key``; a crash mid-commit never leaves a torn row visible
        to :meth:`load_rows`.
        """
        return self.backend.commit(spec, rows)

    def load_rows(self, spec: SweepSpec) -> list[dict[str, Any]]:
        """All committed rows of ``spec``, de-duplicated by ``point_key``."""
        return self.backend.load_rows(spec)

    def completed_keys(self, spec: SweepSpec) -> set[str]:
        """The ``point_key`` set of all committed points of ``spec``."""
        return self.backend.completed_keys(spec)

    def rows_version(self, spec: SweepSpec) -> Hashable:
        """A cheap token that changes whenever ``spec``'s rows change."""
        return self.backend.rows_version(spec)

    def reset(self, spec: SweepSpec) -> None:
        """Drop the committed rows of ``spec`` (the manifest is kept)."""
        self.backend.reset(spec)

    def runs(self) -> list[dict]:
        """Manifests of every sweep ever committed to this store."""
        return self.backend.runs()

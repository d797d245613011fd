"""Sweep-as-a-service: a daemon + client serving the sweep store.

Until this package existed, every consumer of sweep results paid full
compute cost per ``python -m repro`` invocation, and the on-disk
:class:`~repro.sweeps.store.SweepStore` allowed one writer at a time.  The
service turns the sweep layer into a *serving* layer — equilibrium and
hitting-time queries become cheap repeated reads against a shared store,
multiplexed through one long-running process:

* :mod:`~repro.service.jobs` — priority job queue + registry with
  in-flight dedup by spec content hash and per-spec-directory
  serialization (:class:`JobQueue`, :class:`Job`, :class:`JobState`),
  plus the shard lease board for remote execution (:class:`ShardBoard`);
* :mod:`~repro.service.workers` — background execution of queued sweeps
  through :func:`~repro.sweeps.scheduler.run_sweep`
  (:class:`WorkerPool`);
* :mod:`~repro.service.remote` — the leased shard-pulling worker agent
  (:class:`RemoteWorker`, the ``repro worker`` verb);
* :mod:`~repro.service.server` — the stdlib-only threaded HTTP daemon and
  the transport-independent :class:`SweepService` application object;
* :mod:`~repro.service.client` — the typed :class:`ServiceClient`
  (``http.client`` keep-alive, one connection per client thread);
* :mod:`~repro.service.api` — payload resolution and
  :class:`ServiceError`.

CLI verbs: ``python -m repro serve | worker | submit | status | fetch``.
The full API reference (curl examples, cache/dedup semantics, lease
protocol, deployment notes) lives in ``docs/SERVICE.md``.
"""

from .api import ServiceError, resolve_mode, resolve_spec
from .client import ServiceClient
from .jobs import Job, JobQueue, JobState, Shard, ShardBoard, ShardState
from .remote import RemoteWorker, run_worker
from .server import SweepService, make_server, run_service
from .workers import WorkerPool

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "RemoteWorker",
    "ServiceClient",
    "ServiceError",
    "Shard",
    "ShardBoard",
    "ShardState",
    "SweepService",
    "WorkerPool",
    "make_server",
    "resolve_mode",
    "resolve_spec",
    "run_service",
    "run_worker",
]

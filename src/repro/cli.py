"""Command-line interface.

Examples
--------
List the registered experiments::

    python -m repro list

Run one experiment at the quick scale and print its table::

    python -m repro run E2 --quick

Run the full suite and write a markdown report::

    python -m repro run-all --output report.md

Simulate a protocol on a generated instance::

    python -m repro simulate --game linear-singleton --players 200 --rounds 500

Simulate 64 replicas at once through the batched ensemble engine::

    python -m repro simulate --replicas 64 --rounds 500

Shard a 25-point parameter grid over 4 worker processes with a resumable
on-disk result store::

    python -m repro sweep --preset eps-delta --workers 4 --store .sweeps

Serve sweep results over HTTP (see docs/SERVICE.md) and query them::

    python -m repro serve --port 8080 --store .sweep-service
    python -m repro submit --preset logn --quick
    python -m repro fetch <spec-hash> --group-by n
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .core import (
    EnsembleCollector,
    ExplorationProtocol,
    ImitationProtocol,
    MetricsCollector,
    make_hybrid_protocol,
    simulate,
    simulate_ensemble,
)
from .engines import ENGINES
from .errors import ReproError
from .games.generators import (
    random_linear_singleton,
    random_monomial_singleton,
    two_link_overshoot_game,
)
from .presets import get_sweep_preset, list_sweep_presets

# The experiments, the sweep layer (multiprocessing, sqlite3) and the
# network games are imported by the commands that use them, so `--help`,
# `simulate` or `worker` do not load them.
if TYPE_CHECKING:
    from .sweeps import SweepSpec

__all__ = ["main", "build_parser"]

_GAME_CHOICES = ("linear-singleton", "quadratic-singleton", "braess", "grid",
                 "layered", "two-link")
_PROTOCOL_CHOICES = ("imitation", "exploration", "hybrid")
_ENGINE_CHOICES = ENGINES

#: Topology knobs of the `simulate` command and the games they apply to.
_GAME_KNOBS = {
    "rows": ("grid",),
    "cols": ("grid",),
    "layers": ("layered",),
    "k_paths": ("grid", "layered"),
}

_EPILOG = ("Parameter sweeps (the `sweep` command) are documented in "
           "docs/SWEEPS.md: spec format, store layout, resume semantics and "
           "the determinism guarantees of sharded execution.  Presets: "
           "logn/eps-delta (E2/E3 hitting-time grids), overshoot (E5 "
           "one-round overshoot ratios), protocol-work (E11 concurrent-vs-"
           "sequential work), virtual-agents (E13 innovativeness recovery), "
           "error-terms (F1 Lemma 1/2 error-term ratios), network-scaling "
           "(E14 layered-DAG routing with sampled path strategy sets).  "
           "The sweep service (`serve`/`worker`/`submit`/`status`/`fetch` — "
           "a long-running daemon with a job queue, a content-hash result "
           "cache and a shard-lease board for remote workers over the same "
           "store) is documented in docs/SERVICE.md.  Stores are pluggable: "
           "--store accepts dir:PATH, sqlite:FILE and object:PREFIX URLs as "
           "well as bare directory paths.  "
           "Telemetry — engine round tracing (`simulate --trace`), sweep "
           "metrics (`sweep --metrics-out`), the service's /v1/metrics "
           "Prometheus endpoint, distributed span tracing (`serve/worker "
           "--spans-out`, analysed by `repro trace`) — is "
           "documented in docs/OBSERVABILITY.md.  The `lint` command runs "
           "the repo's static invariant checks (determinism, lock "
           "discipline, hash-input stability — docs/LINT.md).")

_DEFAULT_SERVICE_URL = "http://127.0.0.1:8080"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="imitation-dynamics",
        description="Concurrent imitation dynamics in congestion games (PODC 2009) reproduction",
        epilog=_EPILOG,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment identifier, e.g. E2")
    run_parser.add_argument("--quick", action="store_true", help="scaled-down configuration")
    run_parser.add_argument("--seed", type=int, default=2009)
    run_parser.add_argument("--markdown", action="store_true", help="emit a markdown table")
    run_parser.add_argument("--engine", choices=_ENGINE_CHOICES, default="batch",
                            help="round engine: batched ensemble (default), "
                                 "per-trial loop, or the fused native kernel")
    run_parser.add_argument("--trials", type=int, default=None,
                            help="Monte-Carlo trials per configuration (experiments "
                                 "that take a trial count only)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for grid-backed experiments "
                                 "(same pool as `sweep --workers`)")

    all_parser = subparsers.add_parser("run-all", help="run the full experiment suite")
    all_parser.add_argument("--quick", action="store_true", help="scaled-down configuration")
    all_parser.add_argument("--seed", type=int, default=2009)
    all_parser.add_argument("--only", nargs="*", default=None,
                            help="restrict to the given experiment identifiers")
    all_parser.add_argument("--markdown", action="store_true", help="emit markdown")
    all_parser.add_argument("--output", default=None, help="write the report to a file")
    all_parser.add_argument("--engine", choices=_ENGINE_CHOICES, default="batch",
                            help="round engine: batched ensemble (default), "
                                 "per-trial loop, or the fused native kernel")
    all_parser.add_argument("--jobs", type=int, default=1,
                            help="run independent experiments over this many "
                                 "worker processes (same pool as `sweep --workers`)")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a sharded parameter sweep (see docs/SWEEPS.md)",
        epilog=_EPILOG,
    )
    source = sweep_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=list_sweep_presets(),
                        help="a named grid (the grid experiments' SweepSpecs)")
    source.add_argument("--spec", default=None, metavar="FILE",
                        help="path to a SweepSpec as JSON")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = in-process)")
    sweep_parser.add_argument("--store", default=None, metavar="URL",
                              help="result store for resume/caching: a "
                                   "directory path, or a backend URL — "
                                   "dir:PATH, sqlite:FILE, object:PREFIX "
                                   "(see docs/SWEEPS.md)")
    sweep_parser.add_argument("--resume", dest="resume", action="store_true",
                              default=True,
                              help="skip points already in the store (default)")
    sweep_parser.add_argument("--no-resume", dest="resume", action="store_false",
                              help="drop stored rows and recompute every point")
    sweep_parser.add_argument("--quick", action="store_true",
                              help="scaled-down preset grid")
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help="override the spec's master seed")
    sweep_parser.add_argument("--engine", choices=_ENGINE_CHOICES, default=None,
                              help="override the spec's engine (folded into "
                                   "the spec, so it changes the store key)")
    sweep_parser.add_argument("--group-by", default=None, metavar="COL[,COL]",
                              help="also print an aggregate table grouped by "
                                   "these row columns")
    sweep_parser.add_argument("--value", default="rounds_mean",
                              help="row column aggregated by --group-by")
    sweep_parser.add_argument("--markdown", action="store_true",
                              help="emit markdown tables")
    sweep_parser.add_argument("--metrics-out", default=None, metavar="FILE",
                              dest="metrics_out",
                              help="write the run's metrics snapshot (point/"
                                   "shard timings, cache counters, worker "
                                   "utilization) as JSON; '-' for stdout")

    sim_parser = subparsers.add_parser("simulate", help="simulate a protocol on a generated game")
    sim_parser.add_argument("--game", choices=_GAME_CHOICES, default="linear-singleton")
    sim_parser.add_argument("--protocol", choices=_PROTOCOL_CHOICES, default="imitation")
    sim_parser.add_argument("--players", type=int, default=200)
    sim_parser.add_argument("--links", type=int, default=8)
    sim_parser.add_argument("--rounds", type=int, default=500)
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument("--every", type=int, default=10,
                            help="record metrics every N rounds")
    sim_parser.add_argument("--replicas", type=int, default=1,
                            help="number of independent replicas to simulate")
    sim_parser.add_argument("--engine", choices=_ENGINE_CHOICES, default=None,
                            help="round engine; defaults to batch for --replicas > 1 "
                                 "and to the loop engine for a single trajectory")
    sim_parser.add_argument("--dtype", choices=("float64", "float32"),
                            default="float64",
                            help="latency arithmetic precision; float32 is a "
                                 "native-engine feature (see docs/ENGINE.md)")
    sim_parser.add_argument("--rows", type=int, default=None,
                            help="grid rows (--game grid; default 2)")
    sim_parser.add_argument("--cols", type=int, default=None,
                            help="grid columns (--game grid; default 3)")
    sim_parser.add_argument("--layers", type=int, default=None,
                            help="internal layers (--game layered; default 3)")
    sim_parser.add_argument("--k-paths", type=int, default=None, dest="k_paths",
                            help="bound the strategy set to this many sampled "
                                 "s-t paths instead of enumerating them "
                                 "(--game grid/layered)")
    sim_parser.add_argument("--trace", default=None, metavar="FILE",
                            help="write a per-round JSONL trace (migrations, "
                                 "potential/social-cost deltas, wall time) to "
                                 "FILE; never changes the simulated "
                                 "trajectory (docs/OBSERVABILITY.md)")

    info_parser = subparsers.add_parser(
        "info", help="print versions, registered experiments/presets and "
                     "optional-dependency availability")
    info_parser.add_argument("--json", action="store_true",
                             help="machine-readable JSON instead of prose "
                                  "(for CI and monitoring scrapes)")

    serve_parser = subparsers.add_parser(
        "serve", help="run the sweep-service daemon (see docs/SERVICE.md)",
        epilog=_EPILOG,
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="listen port (0 picks a free one)")
    serve_parser.add_argument("--store", default=".sweep-service", metavar="URL",
                              help="result store served by the daemon: a "
                                   "directory path or a backend URL — "
                                   "dir:PATH, sqlite:FILE, object:PREFIX")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="concurrent jobs (service-level parallelism)")
    serve_parser.add_argument("--sweep-workers", type=int, default=1,
                              dest="sweep_workers",
                              help="worker processes per job's sweep "
                                   "(same pool as `sweep --workers`)")
    serve_parser.add_argument("--lease-ttl", type=float, default=30.0,
                              dest="lease_ttl", metavar="SEC",
                              help="shard lease lifetime for remote workers; "
                                   "a worker that stops heartbeating for "
                                   "this long has its shard requeued")
    serve_parser.add_argument("--shard-points", type=int, default=None,
                              dest="shard_points", metavar="N",
                              help="points per remote shard (default: the "
                                   "scheduler's own granularity)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request to stderr "
                                   "(http.server's plain one-line format)")
    serve_parser.add_argument("--access-log", action="store_true",
                              dest="access_log",
                              help="emit one structured JSON line per "
                                   "request to stderr (method, route "
                                   "template, status, latency); off by "
                                   "default")
    serve_parser.add_argument("--spans-out", default=None, dest="spans_out",
                              metavar="FILE",
                              help="record distributed-tracing spans "
                                   "(requests, jobs, leases, sweeps) to "
                                   "this JSONL file; analyse with "
                                   "`repro trace` (docs/OBSERVABILITY.md)")

    worker_parser = subparsers.add_parser(
        "worker", help="run a remote sweep worker against a daemon "
                       "(leases shards over HTTP; see docs/SERVICE.md)")
    worker_parser.add_argument("--connect", required=True, metavar="URL",
                               help="base URL of the daemon to pull "
                                    "shards from")
    worker_parser.add_argument("--worker-id", default=None, dest="worker_id",
                               help="name reported with each lease "
                                    "(default: a random worker-<hex>)")
    worker_parser.add_argument("--poll", type=float, default=0.5,
                               help="idle sleep between lease attempts "
                                    "when no shard is pending")
    worker_parser.add_argument("--lease-ttl", type=float, default=None,
                               dest="lease_ttl", metavar="SEC",
                               help="per-lease TTL override (default: the "
                                    "daemon's --lease-ttl)")
    worker_parser.add_argument("--max-idle", type=float, default=None,
                               dest="max_idle", metavar="SEC",
                               help="exit after this long without work "
                                    "(default: run until killed)")
    worker_parser.add_argument("--max-shards", type=int, default=None,
                               dest="max_shards", metavar="N",
                               help="exit after completing N shards")
    worker_parser.add_argument("--verbose", action="store_true",
                               help="emit one structured JSON line per "
                                    "worker event to stderr")
    worker_parser.add_argument("--spans-out", default=None, dest="spans_out",
                               metavar="FILE",
                               help="record this worker's spans to a JSONL "
                                    "file; they join the daemon's trace "
                                    "via the lease traceparent (merge the "
                                    "files for `repro trace`)")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a sweep to a running service and wait for it",
        epilog=_EPILOG,
    )
    submit_source = submit_parser.add_mutually_exclusive_group(required=True)
    submit_source.add_argument("--preset", choices=list_sweep_presets(),
                               help="a named grid (the grid experiments' "
                                    "SweepSpecs)")
    submit_source.add_argument("--spec", default=None, metavar="FILE",
                               help="path to a SweepSpec as JSON")
    submit_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL,
                               help="service base URL")
    submit_parser.add_argument("--quick", action="store_true",
                               help="scaled-down preset grid")
    submit_parser.add_argument("--seed", type=int, default=None,
                               help="override the spec's master seed")
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="queue priority (higher runs first)")
    submit_parser.add_argument("--remote", action="store_true",
                               help="execute on leased `repro worker` "
                                    "agents instead of the daemon's own "
                                    "pool (see docs/SERVICE.md)")
    submit_parser.add_argument("--wait", dest="wait", action="store_true",
                               default=True,
                               help="poll the job to completion (default)")
    submit_parser.add_argument("--no-wait", dest="wait", action="store_false",
                               help="return immediately after enqueueing")
    submit_parser.add_argument("--timeout", type=float, default=None,
                               help="give up waiting after this many seconds")

    status_parser = subparsers.add_parser(
        "status", help="show service health, or one job's state")
    status_parser.add_argument("job_id", nargs="?", default=None,
                               help="a job id; omitted: daemon health + "
                                    "every job")
    status_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL,
                               help="service base URL")

    fetch_parser = subparsers.add_parser(
        "fetch", help="fetch a sweep's rows (or an aggregate) from a service")
    fetch_parser.add_argument("spec_hash",
                              help="the sweep's content hash (printed by "
                                   "`submit`, also in /v1/jobs)")
    fetch_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL,
                              help="service base URL")
    fetch_parser.add_argument("--group-by", default=None, metavar="COL[,COL]",
                              help="print an aggregate over these columns "
                                   "instead of the raw rows")
    fetch_parser.add_argument("--value", default="rounds_mean",
                              help="row column aggregated by --group-by")
    fetch_parser.add_argument("--jsonl", action="store_true",
                              help="print raw JSONL rows instead of a table")
    fetch_parser.add_argument("--markdown", action="store_true",
                              help="emit a markdown table")

    trace_parser = subparsers.add_parser(
        "trace",
        help="analyse recorded span JSONL: critical path, shard timeline, "
             "lease churn (see docs/OBSERVABILITY.md)",
        epilog="Span files come from `serve --spans-out`, `worker "
               "--spans-out` or a traced run; pass every file of one run "
               "so the tree is connected (exit 1 on orphan spans).")
    trace_parser.add_argument("spans", nargs="+", metavar="FILE",
                              help="span JSONL file(s) to merge and analyse")
    trace_parser.add_argument("--top", type=int, default=5, metavar="N",
                              help="slowest points / orphans listed per "
                                   "trace (default 5)")
    trace_parser.add_argument("--width", type=int, default=48, metavar="COLS",
                              help="timeline bar width in characters")
    trace_parser.add_argument("--all", action="store_true", dest="all_traces",
                              help="expand short traces too (idle lease "
                                   "polls, health checks); folded by "
                                   "default")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the static invariant checks over the repro package",
        epilog="Rule catalogue, suppression syntax and the baseline "
               "workflow are documented in docs/LINT.md.")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files/directories to lint (default: the "
                                  "installed repro package)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text", dest="output_format",
                             help="report format (json is what CI archives)")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE",
                             help="accepted-findings file; findings in it "
                                  "are reported but do not fail the run")
    lint_parser.add_argument("--write-baseline", default=None, metavar="FILE",
                             help="snapshot the current findings as the new "
                                  "baseline and exit 0")
    lint_parser.add_argument("--rules", default=None, metavar="ID[,ID]",
                             help="run only these rule ids (e.g. "
                                  "DET003,LOCK001)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    return parser


def _build_game(name: str, players: int, links: int, seed: int, *,
                rows: Optional[int] = None, cols: Optional[int] = None,
                layers: Optional[int] = None, k_paths: Optional[int] = None):
    sampler = ({"strategy_mode": "dag-sample", "num_paths": k_paths}
               if k_paths is not None else {})
    if name == "linear-singleton":
        return random_linear_singleton(players, links, rng=seed)
    if name == "quadratic-singleton":
        return random_monomial_singleton(players, links, 2.0, rng=seed)
    if name == "braess":
        from .games.network import braess_network_game

        return braess_network_game(players)
    if name == "grid":
        from .games.network import grid_network_game

        return grid_network_game(players,
                                 rows=rows if rows is not None else 2,
                                 cols=cols if cols is not None else 3,
                                 rng=seed, **sampler)
    if name == "layered":
        from .games.network import layered_random_network_game

        return layered_random_network_game(
            players, layers=layers if layers is not None else 3,
            rng=seed, **sampler)
    if name == "two-link":
        return two_link_overshoot_game(players, 2.0)
    raise ValueError(f"unknown game {name!r}")


def _build_protocol(name: str):
    if name == "imitation":
        return ImitationProtocol()
    if name == "exploration":
        return ExplorationProtocol()
    if name == "hybrid":
        return make_hybrid_protocol()
    raise ValueError(f"unknown protocol {name!r}")


def _require_positive(name: str, value: Optional[int], *, minimum: int = 1) -> None:
    """Reject non-sensical integer options with a one-line CLI error.

    Raises :class:`~repro.errors.ReproError`, which ``main`` turns into exit
    status 1 — instead of letting e.g. ``--replicas 0`` die with a numpy
    traceback deep inside the engine.
    """
    if value is not None and value < minimum:
        raise ReproError(f"{name} must be at least {minimum}, got {value}")


def _command_list() -> int:
    from .experiments import list_experiments

    for spec in list_experiments():
        print(f"{spec.experiment_id:>4}  {spec.title}")
        print(f"      {spec.claim}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from .experiments import run_experiment
    from .experiments.registry import experiment_accepts

    _require_positive("--trials", args.trials)
    _require_positive("--workers", args.workers)
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
        if not experiment_accepts(args.experiment, "trials"):
            print(f"note: experiment {args.experiment} takes no --trials; "
                  "the option is ignored", file=sys.stderr)
    if args.workers != 1 and not experiment_accepts(args.experiment, "workers"):
        print(f"note: experiment {args.experiment} takes no --workers; "
              "the option is ignored", file=sys.stderr)
    result = run_experiment(args.experiment, quick=args.quick, seed=args.seed,
                            engine=args.engine, workers=args.workers, **kwargs)
    print(result.render_markdown() if args.markdown else result.render())
    return 0


def _command_run_all(args: argparse.Namespace) -> int:
    from .experiments import render_markdown_report, render_report, run_all

    _require_positive("--jobs", args.jobs)
    results = run_all(quick=args.quick, seed=args.seed, only=args.only, verbose=False,
                      engine=args.engine, jobs=args.jobs)
    report = render_markdown_report(results) if args.markdown else render_report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote report for {len(results)} experiments to {args.output}")
    else:
        print(report)
    return 0


def _load_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    from .sweeps import SweepError, SweepSpec

    if args.preset is not None:
        return get_sweep_preset(args.preset, quick=args.quick, seed=args.seed)
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise SweepError(f"cannot read sweep spec {args.spec!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise SweepError(f"sweep spec {args.spec!r} is not valid JSON: {error}") from error
    spec = SweepSpec.from_dict(payload)
    if args.seed is not None:
        spec = SweepSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    return spec


def _apply_engine_override(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    """Fold a ``--engine`` override into the spec (and thus its store key)."""
    from .sweeps import SweepSpec

    engine = getattr(args, "engine", None)
    if engine is not None and engine != spec.engine:
        spec = SweepSpec.from_dict({**spec.to_dict(), "engine": engine})
    return spec


def _command_sweep(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_markdown_table, render_table
    from .sweeps import SweepStore, aggregate_rows, run_sweep, table_rows

    _require_positive("--workers", args.workers)
    spec = _apply_engine_override(_load_sweep_spec(args), args)
    store = SweepStore(args.store) if args.store else None
    result = run_sweep(spec, workers=args.workers, store=store, resume=args.resume)
    print(f"sweep {spec.name} [{spec.content_hash()}]: {len(result.rows)} points "
          f"({result.computed} computed, {result.cached} cached) "
          f"in {result.elapsed_seconds:.2f}s [workers={result.workers}]")
    render = render_markdown_table if args.markdown else render_table
    print(render(table_rows(result.rows)))
    if args.group_by:
        by = [column.strip() for column in args.group_by.split(",") if column.strip()]
        aggregated = aggregate_rows(result.rows, by=by, value=args.value)
        print()
        print(render(aggregated))
    if args.metrics_out:
        payload = result.metrics.to_json() + "\n"
        if args.metrics_out == "-":
            sys.stdout.write(payload)
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    from .info import render_info, runtime_info

    if args.json:
        print(json.dumps(runtime_info(), indent=2, sort_keys=True))
        return 0
    print(render_info())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service import run_service

    _require_positive("--workers", args.workers)
    _require_positive("--sweep-workers", args.sweep_workers)
    _require_positive("--port", args.port, minimum=0)
    return run_service(args.store, host=args.host, port=args.port,
                       workers=args.workers, sweep_workers=args.sweep_workers,
                       lease_ttl=args.lease_ttl,
                       shard_points=args.shard_points,
                       quiet=not args.verbose, access_log=args.access_log,
                       spans_out=args.spans_out)


def _command_worker(args: argparse.Namespace) -> int:
    from .service import run_worker

    _require_positive("--max-shards", args.max_shards)
    log = None
    if args.verbose:
        from .telemetry import StructuredLogger

        log = StructuredLogger(sys.stderr, component="worker")
    stats = run_worker(args.connect, worker_id=args.worker_id,
                       poll=args.poll, lease_ttl=args.lease_ttl,
                       max_idle=args.max_idle, max_shards=args.max_shards,
                       log=log, spans_out=args.spans_out)
    print(f"worker {stats['worker_id']} done: "
          f"{stats['shards_completed']} shards, "
          f"{stats['points_computed']} points computed, "
          f"{stats['stale_results']} stale results discarded")
    return 0


def _submit_summary(response: dict) -> str:
    """One line per submit outcome; the CI smoke job greps these."""
    prefix = f"spec {response['spec_name']} [{response['spec_hash']}]"
    if response["cached"]:
        return (f"{prefix}: cache hit — {response['points']} points served "
                "from store, no job enqueued")
    job = response["job"]
    if job["state"] == "done":
        summary = job["summary"]
        return (f"{prefix}: job {job['job_id']} done — "
                f"{summary['points']} points "
                f"({summary['computed']} computed, {summary['cached']} cached) "
                f"in {summary['elapsed_seconds']:.2f}s")
    joined = "" if response["created"] else " (joined in-flight job)"
    return f"{prefix}: job {job['job_id']} {job['state']}{joined}"


def _command_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.spec is not None:
        kwargs = {"spec": _load_sweep_spec(args)}
    else:
        kwargs = {"preset": args.preset, "quick": args.quick,
                  "seed": args.seed}
    kwargs["priority"] = args.priority
    if args.remote:
        kwargs["mode"] = "remote"
    if args.wait:
        response = client.submit_and_wait(timeout=args.timeout, **kwargs)
    else:
        response = client.submit(**kwargs)
    print(_submit_summary(response))
    return 0


def _format_job_line(job: dict) -> str:
    tail = ""
    if job["state"] == "done" and job["summary"]:
        summary = job["summary"]
        tail = (f" — {summary['points']} points "
                f"({summary['computed']} computed, "
                f"{summary['cached']} cached)")
    elif job["state"] == "failed":
        tail = f" — {job['error']}"
    return (f"{job['job_id']}  {job['state']:>9}  "
            f"{job['spec_name']} [{job['spec_hash']}]{tail}")


def _command_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id is not None:
        print(_format_job_line(client.job(args.job_id)))
        return 0
    health = client.healthz()
    tally = ", ".join(f"{state}={count}"
                      for state, count in sorted(health["jobs"].items())
                      if count)
    print(f"service {health['status']} at {args.url} "
          f"(code version {health['code_version']}, "
          f"store {health['store_root']}, "
          f"uptime {health['uptime_seconds']:.0f}s)")
    print(f"jobs: {tally or 'none yet'}")
    for job in client.jobs():
        print(_format_job_line(job))
    return 0


def _command_fetch(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_markdown_table, render_table
    from .service import ServiceClient
    from .sweeps import table_rows

    client = ServiceClient(args.url)
    if args.jsonl:
        if args.group_by:
            raise ReproError("--jsonl streams raw rows; it cannot be "
                             "combined with --group-by")
        for line in client.iter_row_lines(args.spec_hash):
            print(line)
        return 0
    render = render_markdown_table if args.markdown else render_table
    if args.group_by:
        by = [column.strip() for column in args.group_by.split(",")
              if column.strip()]
        print(render(client.aggregate(args.spec_hash, by=by,
                                      value=args.value)))
        return 0
    print(render(table_rows(client.rows(args.spec_hash))))
    return 0


def _warn_inapplicable_game_knobs(args: argparse.Namespace) -> None:
    """Warn (like `run` does for --trials) when a topology knob was given
    for a game family that has no such parameter."""
    for knob, games in _GAME_KNOBS.items():
        if getattr(args, knob) is not None and args.game not in games:
            flag = "--" + knob.replace("_", "-")
            print(f"note: {flag} does not apply to --game {args.game}; "
                  "the option is ignored", file=sys.stderr)


def _command_simulate(args: argparse.Namespace) -> int:
    _require_positive("--replicas", args.replicas)
    _require_positive("--players", args.players)
    _require_positive("--links", args.links)
    _require_positive("--rounds", args.rounds)
    _require_positive("--every", args.every)
    _require_positive("--rows", args.rows)
    _require_positive("--cols", args.cols)
    _require_positive("--layers", args.layers)
    _require_positive("--k-paths", args.k_paths)
    _warn_inapplicable_game_knobs(args)
    engine = args.engine or ("batch" if args.replicas > 1 else "loop")
    if engine == "loop" and args.replicas > 1:
        raise ReproError("--engine loop simulates a single trajectory; "
                         "use --engine batch for --replicas > 1")
    if args.dtype != "float64" and engine != "native":
        raise ReproError("--dtype float32 is a native-engine feature; "
                         "add --engine native")
    game = _build_game(args.game, args.players, args.links, args.seed,
                       rows=args.rows, cols=args.cols, layers=args.layers,
                       k_paths=args.k_paths)
    protocol = _build_protocol(args.protocol)
    trace = _build_tracer(args, engine)
    try:
        if engine in ("batch", "native"):
            return _simulate_ensemble(args, game, protocol, engine,
                                      trace=trace)
        collector = MetricsCollector(game, every=args.every)
        result = simulate(game, protocol, rounds=args.rounds, rng=args.seed,
                          collector=collector, trace=trace)
    finally:
        if trace is not None:
            trace.close()
            print(f"wrote round trace to {args.trace}", file=sys.stderr)
    print(f"game: {game.describe()}")
    print(f"protocol: {protocol.describe()}")
    print(f"rounds executed: {result.rounds} (stop reason: {result.stop_reason.value})")
    print(f"total migrations: {result.total_migrations}")
    print(f"{'round':>8} {'potential':>14} {'avg latency':>12} {'unsatisfied':>12} {'support':>8}")
    for record in result.records:
        print(f"{record.round_index:>8} {record.potential:>14.4f} "
              f"{record.average_latency:>12.4f} {record.unsatisfied_fraction:>12.3f} "
              f"{record.support_size:>8}")
    return 0


def _build_tracer(args: argparse.Namespace, engine: str):
    """The ``--trace`` tracer: a JSONL sink keyed by the simulate params."""
    if args.trace is None:
        return None
    from .telemetry import JsonlTraceSink, RoundTracer, make_run_id

    run_id = make_run_id({
        "game": args.game, "protocol": args.protocol, "players": args.players,
        "links": args.links, "rounds": args.rounds, "seed": args.seed,
        "replicas": args.replicas, "engine": engine, "dtype": args.dtype,
    })
    return RoundTracer(JsonlTraceSink(args.trace), run_id=run_id)


def _simulate_ensemble(args: argparse.Namespace, game, protocol,
                       engine: str = "batch", trace=None) -> int:
    collector = EnsembleCollector(game, every=args.every)
    result = simulate_ensemble(
        game, protocol, replicas=args.replicas, rounds=args.rounds,
        rng=args.seed, collector=collector, backend=engine, dtype=args.dtype,
        trace=trace,
    )
    print(f"game: {game.describe()}")
    print(f"protocol: {protocol.describe()}")
    replica_word = "replica" if result.num_replicas == 1 else "replicas"
    suffix = "" if args.dtype == "float64" else f", dtype={args.dtype}"
    print(f"engine: {engine} ({result.num_replicas} {replica_word}{suffix})")
    rounds = result.rounds
    print(f"rounds executed: min={int(rounds.min())} mean={float(rounds.mean()):.1f} "
          f"max={int(rounds.max())}")
    quiescent = sum(1 for reason in result.stop_reasons if reason.value == "quiescent")
    print(f"quiescent replicas: {quiescent}/{result.num_replicas}")
    print(f"total migrations: {int(result.total_migrations.sum())}")
    potential = result.metric("potential")
    latency = result.metric("average_latency")
    support = result.metric("support_size")
    print(f"{'round':>8} {'mean potential':>15} {'mean latency':>13} {'mean support':>13}")
    for row, round_index in enumerate(result.trace_rounds):
        print(f"{round_index:>8} {float(np.mean(potential[row])):>15.4f} "
              f"{float(np.mean(latency[row])):>13.4f} "
              f"{float(np.mean(support[row])):>13.2f}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from .trace_analysis import run_trace_analysis

    _require_positive("--top", args.top)
    _require_positive("--width", args.width)
    return run_trace_analysis(args.spans, top=args.top, width=args.width,
                              all_traces=args.all_traces, out=sys.stdout)


def _command_lint(args: argparse.Namespace) -> int:
    from .lint import runner as lint_runner

    if args.list_rules:
        lint_runner.list_rules_text(sys.stdout)
        return 0
    rule_ids = ([part.strip() for part in args.rules.split(",") if part.strip()]
                if args.rules else None)
    return lint_runner.run(
        args.paths or None,
        output_format=args.output_format,
        baseline_path=args.baseline,
        write_baseline_path=args.write_baseline,
        rule_ids=rule_ids,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Library failures (:class:`~repro.errors.ReproError` — e.g. an unknown
    experiment identifier or an invalid sweep spec) are printed to stderr
    and reported as exit status 1 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "run-all":
            return _command_run_all(args)
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "info":
            return _command_info(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "worker":
            return _command_worker(args)
        if args.command == "submit":
            return _command_submit(args)
        if args.command == "status":
            return _command_status(args)
        if args.command == "fetch":
            return _command_fetch(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "lint":
            return _command_lint(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

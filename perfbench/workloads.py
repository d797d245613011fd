"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition and reads the JSON report
on the last line of its stdout::

    python3 perfbench/workloads.py --workload singleton-nash --seed 1 \\
        --rep 0 --units 8 --trace 0 --spawned-at <time.time() at spawn>

Set-up runs from process start — the interpreter, ``import repro``, building
the inputs from ``--seed`` and ``--rep`` — to the first timed operation, and
``setup_s`` is measured against ``--spawned-at``.  ``--units`` fixes the
timed work: jobs (singleton-nash) or warm requests (sweep-service).  Every output is checked after it is timed, and
each failed check is counted.  With ``--trace 1`` the functions listed in
``tracer.py`` record spans and the report carries the per-layer metrics.

``--make-reference FILE`` writes what the sweep-service answers must match
instead: for each cold sweep's grid, the rows of a serial in-process
``run_sweep``, their local aggregate and their total replica-rounds.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (its import time is part of set-up)
from tracer import (NullTracer, Tracer, layer_metrics,  # noqa: E402
                    trace_compute, trace_handlers, trace_store)

#: singleton-nash: the E9 quick instance, start, stop and round budget.
SINGLETON_LINKS = (1.0, 2.0, 4.0, 8.0)
SINGLETON_PLAYERS = 40
SINGLETON_REPLICAS = 16
SINGLETON_MAX_ROUNDS = 30_000

#: sweep-service: the daemon's sweep processes, the closed-loop clients (at
#: most nproc = 2), the cold sweeps per repetition and the warm mix.
SERVICE_SWEEP_WORKERS = 2
SERVICE_CLIENTS = 2
SERVICE_COLD_SWEEPS = 2
SERVICE_POLL_S = 0.02
SERVICE_TIMEOUT_S = 120.0
ROUTES = ("rows", "aggregate", "submit")

#: Per-layer metrics only the sweep-service workload measures.
SERVICE_LAYERS = ("sweeps.compute_s", "sweeps.worker_utilization",
                  "service.queue_wait_s",
                  *(f"service.{part}_ms.{route}"
                    for part in ("handler", "transport") for route in ROUTES))


def new_report() -> dict:
    return {"jobs": [], "request_ms": [], "request_s": 0.0, "timed_s": 0.0,
            "attempted": 0, "failed": 0, "failures": []}


def check(report: dict, ok: bool, what: str) -> None:
    """Count one checked output, keeping the first few failures."""
    report["attempted"] += 1
    if not ok:
        report["failed"] += 1
        if len(report["failures"]) < 5:
            report["failures"].append(what)


# ---------------------------------------------------------------- engines --

def singleton_nash(args, tracer, ready) -> dict:
    """``--units`` jobs.  A job runs 16 replicas of the 0.5/0.5
    imitation/exploration hybrid from everyone on the slowest link until
    every replica stops at a Nash equilibrium, on the batch engine.

    E9 also runs pure ExplorationProtocol.  Its time to an exact Nash
    equilibrium is set by one rare final move: the slowest of 16 replicas
    took 3.5-5.2 s (median over six jobs) across five seeds, a spread no
    30-second run can hold within a 25% bound.  The hybrid evaluates the
    same exploration probabilities every round, next to imitation's."""
    from repro.core.ensemble import EnsembleDynamics, batch_stop_at_nash
    from repro.core.hybrid import make_hybrid_protocol
    from repro.games.nash import is_nash
    from repro.games.singleton import make_linear_singleton
    from repro.games.state import GameState, batch_broadcast

    if args.trace:
        trace_compute(tracer)
    with tracer.span("games.build"):
        game = make_linear_singleton(SINGLETON_PLAYERS, SINGLETON_LINKS)
    protocol = make_hybrid_protocol(use_nu_threshold=False)
    counts = np.zeros(len(SINGLETON_LINKS), dtype=np.int64)
    counts[int(np.argmax(SINGLETON_LINKS))] = SINGLETON_PLAYERS
    start = batch_broadcast(GameState(counts), SINGLETON_REPLICAS)
    nash = batch_stop_at_nash()
    ready()

    report = new_report()
    results = []
    for job in range(args.units):
        seed = np.random.SeedSequence([args.seed, args.rep, job])
        started = time.perf_counter()
        result = EnsembleDynamics(game, protocol, rng=seed).run(
            start, max_rounds=SINGLETON_MAX_ROUNDS, stop_condition=nash)
        wall = time.perf_counter() - started
        results.append(result)
        report["jobs"].append({"wall_s": wall,
                               "replica_rounds": int(result.rounds.sum()),
                               "points": 1})
        report["request_ms"].append(1000.0 * wall)
    report["timed_s"] = report["request_s"] = sum(
        job["wall_s"] for job in report["jobs"])
    for result in results:
        for state in result.final_states:
            check(report, is_nash(game, state),
                  "a final state is not a Nash equilibrium")
    return report


# ---------------------------------------------------------------- service --

def grid_spec(seed: int, sweep: int = 0):
    """The 32-point linear-singleton grid of the sweep benchmark guard, for
    cold sweep ``sweep`` of the run: each one has a seed of its own, so no
    cache can answer one from another."""
    from repro.sweeps import SweepSpec

    return SweepSpec(
        name="bench-sweep-32", game="linear-singleton", protocol="imitation",
        measure="approx_equilibrium_time",
        axes={"n": [1024, 1448, 2048, 2896],
              "epsilon": [0.01, 0.009, 0.008, 0.007, 0.006, 0.005, 0.004,
                          0.003]},
        base={"links": 24, "delta": 0.001}, replicas=128, max_rounds=300,
        seed=SERVICE_COLD_SWEEPS * seed + sweep)


def make_reference(args) -> None:
    from repro.sweeps import aggregate_rows, run_sweep

    references = []
    for sweep in range(SERVICE_COLD_SWEEPS):
        rows = run_sweep(grid_spec(args.seed, sweep), workers=1).rows
        references.append({
            "lines": [json.dumps(row) for row in rows],
            "aggregate": json.dumps(aggregate_rows(rows, by=["n"])),
            "replica_rounds": sum(sum(row["times"]) for row in rows),
        })
    Path(args.make_reference).write_text(json.dumps(references),
                                         encoding="utf-8")


def warm_phase(client, spec, reference, requests: int, errors):
    """``requests`` calls from closed-loop client threads, cycling through
    rows, aggregate and cached submit; returns ``(route, ms, ok)`` samples
    and the phase's wall time."""
    spec_hash = spec.content_hash()
    send = {"rows": lambda: list(client.iter_row_lines(spec_hash)),
            "aggregate": lambda: client.aggregate(spec_hash, by=["n"]),
            "submit": lambda: client.submit(spec=spec)}
    valid = {"rows": lambda answer: answer == reference["lines"],
             "aggregate": lambda answer:
                 json.dumps(answer) == reference["aggregate"],
             "submit": lambda answer: answer["cached"] is True
                 and answer["spec_hash"] == spec_hash}
    samples: list[list[tuple]] = [[] for _ in range(SERVICE_CLIENTS)]

    def closed_loop(index: int) -> None:
        for number in range(index, requests, SERVICE_CLIENTS):
            route = ROUTES[number % len(ROUTES)]
            started = time.perf_counter()
            try:
                answer = send[route]()
                elapsed = time.perf_counter() - started
                ok = valid[route](answer)
            except errors:
                elapsed, ok = time.perf_counter() - started, False
            samples[index].append((route, 1000.0 * elapsed, ok))

    threads = [threading.Thread(target=closed_loop, args=(index,))
               for index in range(SERVICE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ([sample for per_client in samples for sample in per_client],
            time.perf_counter() - started)


def sweep_service(args, tracer, ready) -> dict:
    """Cold 32-point sweeps through an in-process daemon, one after the
    other, then ``--units`` warm requests on the first; rows and aggregates
    must match the serial reference."""
    from repro.service import ServiceClient, SweepService, make_server
    from repro.service.api import ServiceError
    from repro.sweeps import run_sweep
    from repro.telemetry import MetricsSnapshot

    references = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    sweeps = [grid_spec(args.seed, sweep)
              for sweep in range(SERVICE_COLD_SWEEPS)]
    spec, reference = sweeps[0], references[0]
    store = OUT / f"store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    service = SweepService(f"dir:{store}", workers=1,
                           sweep_workers=SERVICE_SWEEP_WORKERS).start()
    server = make_server(service)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    client = ServiceClient("http://%s:%s" % server.server_address[:2],
                           timeout=SERVICE_TIMEOUT_S)
    if args.trace:
        trace_store(tracer, service)
    ready()

    errors = (ServiceError, OSError, ValueError, KeyError, TypeError,
              http.client.HTTPException)
    report = new_report()
    layers: dict[str, float] = {}
    try:
        queue_wait_s = compute_s = 0.0
        utilization = []
        for cold, expected in zip(sweeps, references):
            started = time.perf_counter()
            try:
                submitted = client.submit(spec=cold)
                job = client.wait(submitted["job"]["job_id"],
                                  timeout=SERVICE_TIMEOUT_S,
                                  poll=SERVICE_POLL_S)
            except errors:
                job = None
            wall_s = time.perf_counter() - started
            try:
                lines = list(client.iter_row_lines(cold.content_hash()))
            except errors:
                lines = None
            check(report, job is not None and lines == expected["lines"],
                  "a cold sweep's rows differ from the serial run_sweep")
            report["jobs"].append({"wall_s": wall_s,
                                   "replica_rounds": expected["replica_rounds"],
                                   "points": cold.num_points})
            if job is not None:
                snapshot = MetricsSnapshot.from_dict(
                    service.store.manifest(cold)["telemetry"]["metrics"])
                queue_wait_s += job["started_at"] - job["created_at"]
                compute_s += snapshot.value("sweep_point_seconds")["sum"]
                utilization.append(
                    snapshot.value("sweep_worker_utilization"))
        cold_s = sum(entry["wall_s"] for entry in report["jobs"])
        if utilization:
            layers.update({"service.queue_wait_s": queue_wait_s,
                           "sweeps.compute_s": compute_s,
                           "sweeps.worker_utilization":
                               statistics.median(utilization)})

        if args.trace:
            trace_handlers(tracer, service)
        samples, warm_s = warm_phase(client, spec, reference, args.units,
                                     errors)
        for route, _, ok in samples:
            check(report, ok, f"a warm {route} request failed or was wrong")
        for _ in range(args.units - len(samples)):
            check(report, False, "a warm request never completed")
        report["request_ms"] = [ms for _, ms, _ in samples]
        report["request_s"] = warm_s
        report["timed_s"] = cold_s + warm_s
        if args.trace:
            for route in ROUTES:
                handler = tracer.totals[f"service.handler.{route}"]
                handler_ms = 1000.0 * handler["s"] / max(1, handler["calls"])
                client_ms = statistics.fmean(
                    ms for name, ms, _ in samples if name == route)
                layers[f"service.handler_ms.{route}"] = handler_ms
                layers[f"service.transport_ms.{route}"] = client_ms - handler_ms
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        serving.join(timeout=10.0)
        shutil.rmtree(store, ignore_errors=True)

    if args.trace:
        # The daemon computes in pool processes the spans cannot see; the
        # games/core split of the same grid comes from a serial run here.
        trace_compute(tracer)
        rows = run_sweep(spec, workers=1).rows
        check(report, [json.dumps(row) for row in rows] == reference["lines"],
              "the traced serial rows differ from the reference")
    report["service_layers"] = layers
    return report


WORKLOADS = {"singleton-nash": singleton_nash,
             "sweep-service": sweep_service}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one repetition of one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--reference",
                        help="sweep-service reference file to check against")
    parser.add_argument("--make-reference", metavar="FILE",
                        help="write the sweep-service reference and exit")
    parser.add_argument("--spans-out",
                        help="file the traced repetition writes its spans to")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be positive")
    if args.make_reference:
        make_reference(args)
        print(json.dumps({"reference": args.make_reference}))
        return 0
    spawned_at = time.time() if args.spawned_at is None else args.spawned_at
    setup: dict[str, float] = {}

    def ready() -> None:
        setup["s"] = time.time() - spawned_at

    tracer = Tracer() if args.trace else NullTracer()
    try:
        report = WORKLOADS[args.workload](args, tracer, ready)
    finally:
        if args.trace:
            tracer.restore()

    from repro.engines import engine_runtime_info

    runtime = engine_runtime_info()
    report["setup_s"] = setup["s"]
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    report["runtime"] = {"numpy": np.__version__,
                         "numba": runtime["numba_available"],
                         "native_mode": runtime["native_mode"]}
    service_layers = report.pop("service_layers", {})
    if args.trace:
        report["layers"] = {**layer_metrics(tracer),
                            **dict.fromkeys(SERVICE_LAYERS, 0.0),
                            **service_layers}
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

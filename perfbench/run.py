#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

Run from the root of a checkout; nothing needs building::

    python3 perfbench/run.py --workload singleton-nash --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` lists the workloads and metrics; ``perfbench/METRICS.md``
defines each metric per workload and names the end-to-end metric each
per-layer metric should move.

Every repetition runs in a fresh ``perfbench/workloads.py`` process, so each
one pays, and reports, the real set-up cost, and none inherits the heap of
an earlier one (back-to-back runs in one process drift).  ``--trace 0`` runs
:data:`REPETITIONS` untraced repetitions and prints every end-to-end metric.
``--trace 1`` runs one untraced and one traced repetition on the same inputs
and prints every per-layer metric from the traced one, plus
``trace_overhead``: the traced repetition's timed work over the untraced
one's, minus one.  Its spans go to ``.perfbench-out/spans-<workload>.jsonl``.

The last two lines of stdout are JSON: the environment stanza, then the
result ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
1 when an output check failed, and 2 when there is no ``src/repro`` to
measure or a repetition could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: Untraced repetitions per run; setup_s and peak_rss_mb are their medians.
REPETITIONS = 3

#: Timed work per repetition and per second of ``--seconds``, in each
#: workload's unit: jobs or warm requests.
UNITS_PER_SECOND = {"singleton-nash": 4.0, "sweep-service": 40.0}

#: A run has 180 s; a repetition still running after this is killed.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A repetition could not run, so there is no result to print."""


def repetition(arguments: list[str], deadline: float) -> dict:
    """Run ``workloads.py`` with ``arguments`` and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # The same dict and set layouts in every repetition, and no numeric
    # library threads competing with the workload's own for the vCPUs.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "workloads.py"), *arguments,
               "--spawned-at", repr(time.time())]
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # The child leads its own process group: this also stops anything
        # it started and left behind (the sweep pool's workers).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    what = " ".join(arguments)
    if stdout is None:
        raise BenchmarkError(f"repetition {what!r} ran past the deadline")
    if child.returncode != 0:
        raise BenchmarkError(
            f"repetition {what!r} exited with code {child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between neighbouring samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """Every end-to-end metric over the untraced repetitions."""
    jobs = [job for report in reports for job in report["jobs"]]
    busy = sum(job["wall_s"] for job in jobs)
    latencies = [ms for report in reports for ms in report["request_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "time_to_eq_s": busy / len(jobs),
        "replica_rounds_per_s":
            sum(job["replica_rounds"] for job in jobs) / busy,
        "sweep_points_per_s": sum(job["points"] for job in jobs) / busy,
        "request_p50_ms": percentile(latencies, 50),
        "request_p99_ms": percentile(latencies, 99),
        "requests_per_s":
            len(latencies) / sum(r["request_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def git_sha() -> str | None:
    """HEAD's commit read from ``.git``; ``None`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    """A digest of ``src/repro``: names the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(
                encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(UNITS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/repro package to measure",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    environment = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                   "loadavg_start": os.getloadavg(), "git_sha": git_sha(),
                   "source_digest": source_digest(),
                   "python": platform.python_version()}

    units = max(1, round(args.seconds * UNITS_PER_SECOND[args.workload]
                         / REPETITIONS))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--units", str(units)]
    try:
        if args.workload == "sweep-service":
            reference = OUT / f"reference-{args.seed}.json"
            repetition([*common, "--make-reference", str(reference)],
                       deadline)
            common += ["--reference", str(reference)]
        if args.trace:
            plain = repetition([*common, "--rep", "0", "--trace", "0"],
                               deadline)
            spans = OUT / f"spans-{args.workload}.jsonl"
            traced = repetition([*common, "--rep", "0", "--trace", "1",
                                 "--spans-out", str(spans)], deadline)
            reports = [plain, traced]
            values = dict(traced["layers"], trace_overhead=(
                traced["timed_s"] / plain["timed_s"] - 1.0))
            wanted = benchmark["per_layer"]
        else:
            reports = [repetition([*common, "--rep", str(rep),
                                   "--trace", "0"], deadline)
                       for rep in range(REPETITIONS)]
            values = end_to_end(reports)
            wanted = benchmark["end_to_end"]
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    environment.update(reports[0]["runtime"], loadavg_end=os.getloadavg(),
                       units_per_repetition=units,
                       wall_s=time.monotonic() - started)
    failed = sum(report["failed"] for report in reports)
    for report in reports:
        for failure in report["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The declared minimal install: numpy alone runs the paper's dynamics.

``setup.py`` and :mod:`repro.info` call scipy and networkx optional.  A
subprocess blocks both (a ``None`` entry in ``sys.modules`` makes their
import raise :class:`ImportError`, as on an install without them) and
must still import the package and the service, run an ensemble and a
sweep with the same rows as an unblocked run, and fail only where a
network game is built, with an error that names networkx.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

if sys.argv[1] == "blocked":
    sys.modules["networkx"] = sys.modules["scipy"] = None

import repro
import repro.service
from repro.info import optional_dependencies
from repro.sweeps import SweepSpec, run_sweep

game = repro.make_linear_singleton(60, [1.0, 2.0, 3.0])
ensemble = repro.EnsembleDynamics(game, repro.ImitationProtocol(), rng=4)
result = ensemble.run(replicas=8, max_rounds=200)
spec = SweepSpec(
    name="minimal-install", game="linear-singleton", protocol="imitation",
    measure="approx_equilibrium_time", axes={"n": [64, 128]},
    base={"coeffs": [1.0, 2.0, 4.0], "delta": 0.1, "epsilon": 0.1},
    replicas=4, max_rounds=200, seed=5)
try:
    from repro.games.network import braess_network_game
    braess_network_game(10)
    network_error = None
except ImportError as error:
    network_error = str(error)
print(json.dumps({
    "dependencies": optional_dependencies(),
    "ensemble": {"rounds": result.rounds.tolist(),
                 "final_counts": result.final_states.counts.tolist()},
    "sweep_rows": run_sweep(spec, workers=1).rows,
    "network_error": network_error,
}))
"""


def run_script(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode], env=env, capture_output=True,
        text=True, timeout=120, check=False)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_numpy_only_install_runs_the_dynamics_with_the_same_rows():
    blocked = run_script("blocked")
    assert blocked["dependencies"]["scipy"] is False
    assert blocked["dependencies"]["networkx"] is False
    assert blocked["network_error"] is not None
    assert "networkx" in blocked["network_error"]

    unblocked = run_script("unblocked")
    assert blocked["ensemble"] == unblocked["ensemble"]
    assert blocked["sweep_rows"] == unblocked["sweep_rows"]
    assert len(blocked["sweep_rows"]) == 2
    # the runs did work: neither the ensemble nor the sweep started at rest
    assert max(blocked["ensemble"]["rounds"]) > 0
    assert all(row["rounds_mean"] > 0 for row in blocked["sweep_rows"])

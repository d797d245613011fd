"""Which modules each entry point loads.

Every run of the dynamics starts a fresh interpreter, so what
``import repro`` loads is paid on every run.  These tests pin the import
layout: the package loads numpy and its own lower layers, not scipy,
networkx or the sweep/service stack; the daemon loads, before it serves,
everything its warm requests need, so no request pays for an import.
Each check runs in a fresh subprocess; no timing is involved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules ``import repro`` must not load: optional dependencies (and what
#: they drag in) and the layers above ``analysis``.
NOT_LOADED_BY_IMPORT_REPRO = (
    "scipy", "networkx", "numpy.f2py", "repro.experiments", "repro.sweeps",
    "repro.service", "repro.telemetry", "sqlite3",
)

#: Modules ``import repro.cli`` must not load: the command handlers import
#: the experiments and the sweep layer (with its sqlite3 and
#: multiprocessing) when a command needs them.
NOT_LOADED_BY_IMPORT_CLI = (
    "repro.experiments", "repro.sweeps", "repro.service", "sqlite3",
    "multiprocessing",
)

WARM_REQUESTS_SCRIPT = r"""
import json
import sys
import tempfile
import threading

from repro.service import ServiceClient, SweepService, make_server
from repro.sweeps import SweepSpec

spec = SweepSpec(
    name="import-layout", game="linear-singleton", protocol="imitation",
    measure="approx_equilibrium_time", axes={"n": [16, 32]},
    base={"coeffs": [1.0, 2.0], "delta": 0.3, "epsilon": 0.4},
    replicas=2, max_rounds=100, seed=5)
with tempfile.TemporaryDirectory() as store:
    service = SweepService(f"dir:{store}", workers=1, sweep_workers=2).start()
    server = make_server(service)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    client = ServiceClient("http://%s:%s" % server.server_address[:2],
                           timeout=60.0)
    try:
        client.submit_and_wait(spec=spec, timeout=60)
        before = set(sys.modules)
        rows = client.rows(spec.content_hash())
        aggregate = client.aggregate(spec.content_hash(), by=["n"])
        cached = client.submit(spec=spec)["cached"]
        added = sorted(set(sys.modules) - before)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.stop()
        serving.join(10)
print(json.dumps({"rows": len(rows), "aggregate": len(aggregate),
                  "cached": cached, "added": added}))
"""


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=False)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def modules_after(statement: str) -> set[str]:
    return set(json.loads(run_python(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")))


def loaded(modules: set[str], package: str) -> list[str]:
    return sorted(name for name in modules
                  if name == package or name.startswith(package + "."))


def test_import_repro_loads_neither_optional_dependencies_nor_upper_layers():
    modules = modules_after("import repro")
    assert "repro.core" in modules and "repro.analysis" in modules
    for package in NOT_LOADED_BY_IMPORT_REPRO:
        assert loaded(modules, package) == [], package


def test_import_cli_loads_neither_experiments_nor_the_sweep_layer():
    modules = modules_after("import repro.cli")
    for package in NOT_LOADED_BY_IMPORT_CLI:
        assert loaded(modules, package) == [], package


def test_cli_help_and_preset_choices_load_no_experiment():
    modules = modules_after(
        "from repro.cli import build_parser\n"
        "parser = build_parser()\n"
        "args = parser.parse_args(['sweep', '--preset', 'logn'])\n"
        "assert args.preset == 'logn'")
    assert loaded(modules, "repro.experiments") == []


def test_import_service_loads_numpy_ma_but_not_scipy_or_networkx():
    modules = modules_after("import repro.service")
    assert loaded(modules, "scipy") == []
    assert loaded(modules, "networkx") == []
    # np.quantile/np.median import numpy.ma on their first call; the daemon
    # must have paid for it before its first aggregate request
    assert "numpy.ma" in modules


def test_warm_requests_import_nothing():
    """After a cold sweep, one rows, one aggregate and one cached submit
    request add no module to ``sys.modules``."""
    answer = json.loads(run_python(WARM_REQUESTS_SCRIPT))
    assert answer["rows"] == 2 and answer["aggregate"] == 2
    assert answer["cached"] is True
    assert answer["added"] == []

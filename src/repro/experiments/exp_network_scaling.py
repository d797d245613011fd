"""E14 — Selfish routing at scale and the Braess paradox (Section 1).

The paper's motivating scenario is selfish routing: players pick ``s``-``t``
paths in a network and imitate better-off players.  This experiment opens
that workload to the batched ensemble + sweep layer at sizes where the
classical construction breaks down:

* **Scaling table** — the IMITATION PROTOCOL on complete layered DAGs of
  growing depth.  A ``width``-wide, ``layers``-deep complete layered DAG has
  ``width ** layers`` simple ``s``-``t`` paths, so already moderate depths
  blow past any exhaustive-enumeration cap (the default
  ``max_paths=10_000``); the games are built through the bounded
  ``"dag-sample"`` strategy sampler instead (``k_paths`` uniform random
  paths plus the free-flow shortest path, deterministic per sweep point).
  The table reports convergence of the dynamics to an approximate
  equilibrium as the depth — and therefore the size of the *unsampled*
  strategy space — grows.
* **Braess table** — the classic four-node Braess network with and without
  its shortcut edge.  Adding the shortcut draws the whole population onto
  one route and *raises* the average latency: the Braess paradox, emerging
  from pure imitation.

Both tables are :class:`~repro.sweeps.spec.SweepSpec` grids
(:func:`network_scaling_spec`, :func:`braess_paradox_spec`; CLI
``--preset network-scaling``) driving the ``network_convergence`` kernel.
``engine="batch"`` (default) runs replicas through the ensemble engine with
per-replica ``rng_streams``; ``engine="loop"`` replays the same streams
through the scalar engine — the two tables are bit-identical (the
engine-parity tests assert this on the Braess and grid topologies).
``engine="native"`` executes the sweep through the fused round kernel
(allclose parity tier).  Every engine is folded into the spec, so each
engine's rows get their own store keys and spec hashes.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace

from ..sweeps import SweepSpec, run_sweep
from .config import DEFAULTS, pick, pick_list
from .registry import ExperimentResult, register
from .reporting import find_row

__all__ = ["run_network_scaling_experiment", "network_scaling_spec",
           "braess_paradox_spec"]

#: Width of every internal layer of the scaling DAGs: the complete layered
#: DAG then has exactly ``NETWORK_WIDTH ** layers`` simple s-t paths.
NETWORK_WIDTH = 4

#: The default exhaustive-enumeration cap the scaling grid is measured
#: against (``NetworkCongestionGame``'s default ``max_paths``).
ENUMERATION_CAP = 10_000

#: Pin the sparse-incidence evaluation in the scaling spec when scipy is
#: present (an explicit True hard-fails without it).  The flag is part of
#: the spec, so the two environments get different content hashes — a
#: shared store never mixes sparse- and dense-computed rows.
_SPARSE_AVAILABLE = importlib.util.find_spec("scipy") is not None


def network_scaling_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None, k_paths: int | None = None,
) -> SweepSpec:
    """The E14 depth-scaling grid on complete layered DAGs.

    Every point samples ``k_paths`` strategies from a ``width ** layers``
    path space; the deeper rows of the grid could not be constructed by
    exhaustive enumeration at all.
    """
    trials = trials if trials is not None else pick(quick, 3, 10)
    num_players = num_players if num_players is not None else pick(quick, 60, 200)
    layer_values = pick_list(quick, [4, 8], [4, 8, 12, 16])
    return SweepSpec(
        name="e14-network-scaling",
        game="layered-network",
        protocol="imitation",
        measure="network_convergence",
        axes={"layers": layer_values},
        base={"n": num_players, "width": NETWORK_WIDTH, "edge_probability": 1.0,
              "strategy_mode": "dag-sample",
              "sparse_incidence": _SPARSE_AVAILABLE,
              "k_paths": k_paths if k_paths is not None else pick(quick, 24, 64),
              "delta": 0.05, "epsilon": 0.05},
        replicas=trials,
        max_rounds=pick(quick, 400, 2_000),
        seed=seed,
    )


def braess_paradox_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None,
) -> SweepSpec:
    """The E14 Braess comparison: the same network with and without the
    shortcut edge, on identical per-replica streams."""
    trials = trials if trials is not None else pick(quick, 3, 10)
    num_players = num_players if num_players is not None else pick(quick, 40, 100)
    return SweepSpec(
        name="e14-braess",
        game="braess",
        protocol="imitation",
        measure="network_convergence",
        axes={"with_shortcut": [False, True]},
        base={"n": num_players, "delta": 0.02, "epsilon": 0.02},
        replicas=trials,
        max_rounds=pick(quick, 2_000, 20_000),
        seed=seed,
    )


def _table_row(topology: str, paths_total: int, row: dict) -> dict:
    return {
        "topology": topology,
        "paths_total": paths_total,
        "paths_sampled": row["num_paths"],
        "num_edges": row["num_edges"],
        "converged_fraction": row["converged_fraction"],
        "mean_rounds_converged": row["mean_rounds_converged"],
        "non_converged_trials": row["non_converged_trials"],
        "mean_final_cost": row["mean_final_cost"],
    }


def _scaling_row(row: dict) -> dict:
    layers = int(row["layers"])
    return _table_row(f"layered {layers}x{NETWORK_WIDTH}",
                      NETWORK_WIDTH ** layers, row)


def _braess_row(row: dict) -> dict:
    if row["with_shortcut"]:
        return _table_row("braess + shortcut", 3, row)
    return _table_row("braess (no shortcut)", 2, row)


@register(
    "E14",
    "Selfish routing at scale: sampled path strategy sets and the Braess paradox",
    "Section 1 motivating scenario: imitation dynamics on s-t routing networks "
    "converge on strategy spaces far beyond exhaustive path enumeration, and "
    "reproduce the Braess paradox (adding a shortcut edge raises the emergent "
    "average latency).",
)
def run_network_scaling_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None, k_paths: int | None = None,
    engine: str = "batch", workers: int = 1, store=None,
) -> ExperimentResult:
    """Run experiment E14 and return its result table."""
    scaling_spec = replace(
        network_scaling_spec(quick=quick, seed=seed, trials=trials,
                             num_players=num_players, k_paths=k_paths),
        engine=engine)
    braess_spec = replace(
        braess_paradox_spec(quick=quick, seed=seed, trials=trials,
                            num_players=num_players),
        engine=engine)
    scaling_rows = run_sweep(scaling_spec, workers=workers, store=store).rows
    braess_rows = run_sweep(braess_spec, workers=workers, store=store).rows

    rows = ([_scaling_row(row) for row in scaling_rows]
            + [_braess_row(row) for row in braess_rows])

    deepest = max(int(row["layers"]) for row in scaling_rows)
    deepest_paths = NETWORK_WIDTH ** deepest
    notes = [
        f"the deepest grid ({deepest} layers) has {deepest_paths} simple s-t "
        f"paths — {deepest_paths / ENUMERATION_CAP:.0f}x past the "
        f"max_paths={ENUMERATION_CAP} enumeration cap; its strategy set is "
        f"built by the seeded dag-sample strategy sampler instead"
    ]
    with_shortcut = find_row(rows, topology="braess + shortcut")
    without_shortcut = find_row(rows, topology="braess (no shortcut)")
    cost_with = with_shortcut["mean_final_cost"]
    cost_without = without_shortcut["mean_final_cost"]
    if cost_with is None or cost_without is None:
        notes.append(
            "Braess comparison inconclusive: some replicas did not reach the "
            "approximate equilibrium within the round budget (see "
            "non_converged_trials); raise max_rounds for a cost comparison"
        )
    else:
        notes.append(
            f"Braess paradox: adding the shortcut edge changes the emergent "
            f"average latency from {cost_without:.2f} to {cost_with:.2f} "
            f"({cost_with / cost_without:.2f}x) — extra capacity hurts "
            f"everybody"
        )
    return ExperimentResult(
        experiment_id="E14",
        title="Network routing at scale (sampled strategy sets, Braess paradox)",
        claim="Section 1 motivating scenario: selfish routing under imitation",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "trials": scaling_spec.replicas,
                    "num_players": scaling_spec.base["n"],
                    "braess_players": braess_spec.base["n"],
                    "width": NETWORK_WIDTH,
                    "layers": list(scaling_spec.axes["layers"]),
                    "k_paths": scaling_spec.base["k_paths"],
                    "engine": engine, "workers": workers,
                    "scaling_spec_hash": scaling_spec.content_hash(),
                    "braess_spec_hash": braess_spec.content_hash()},
    )

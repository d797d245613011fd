"""E11 (extension) — concurrent imitation versus the sequential baselines.

The related-work discussion of the paper contrasts the concurrent IMITATION
PROTOCOL with the classical sequential dynamics: best response (Rosenthal),
epsilon-greedy better response (Chien-Sinclair) and randomized local search
(Goldberg).  A sequential process performs one player move per step, so it
needs at least Omega(n) steps just to let every player move once, whereas the
concurrent protocol revises all players per round and Theorem 7 bounds its
*round* count logarithmically in n.

This extension experiment runs all four dynamics on the same instances and
start states for growing n and reports the work each needs (rounds for the
concurrent protocol, individual moves/probes for the sequential ones) and the
quality of the final state.  It is not a claim of the paper in itself, but it
quantifies the comparison the introduction makes.

The (n, dynamics) grid is a :class:`~repro.sweeps.spec.SweepSpec`
(:func:`protocol_comparison_spec`, CLI ``--preset protocol-work``) driving
the ``dynamics_work`` kernel.  ``engine="batch"`` (default) advances the
concurrent protocol's replicas through the ensemble engine with per-replica
random streams; ``engine="loop"`` replays the same streams through the
scalar engine — bit-identical tables.  The sequential baselines execute one
move at a time in either engine (that is what makes them the comparison).
Non-converged replicas are excluded from the work/cost means and counted in
``non_converged_trials``.
"""

from __future__ import annotations

from dataclasses import replace

from ..sweeps import SweepSpec, run_sweep
from .config import DEFAULTS, pick, pick_list
from .registry import ExperimentResult, register
from .reporting import find_row

__all__ = ["run_protocol_comparison_experiment", "protocol_comparison_spec"]

#: Sweep-axis dynamics identifiers -> experiment-table display labels.
DYNAMICS_LABELS = {
    "imitation": "imitation (rounds)",
    "best-response": "best-response (moves)",
    "epsilon-greedy": "epsilon-greedy (moves)",
    "goldberg": "goldberg (probes)",
}


def protocol_comparison_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    delta: float = 0.1, epsilon: float = 0.1,
) -> SweepSpec:
    """The E11 grid as a declarative sweep over (n, dynamics)."""
    trials = trials if trials is not None else pick(quick, 3, 10)
    player_counts = pick_list(quick, [100, 400], [100, 400, 1600])
    return SweepSpec(
        name="e11-protocol-work",
        game="linear-singleton",
        protocol="imitation",
        measure="dynamics_work",
        axes={"n": player_counts, "dynamics": list(DYNAMICS_LABELS)},
        base={"links": 8, "delta": delta, "epsilon": epsilon},
        replicas=trials,
        max_rounds=DEFAULTS.max_rounds(quick),
        seed=seed,
    )


@register(
    "E11",
    "Concurrent imitation versus sequential baselines (extension)",
    "Related-work comparison: the concurrent protocol needs a near-constant "
    "number of rounds while every sequential dynamics needs at least Omega(n) "
    "individual moves to reach a comparable state.",
)
def run_protocol_comparison_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    delta: float = 0.1, epsilon: float = 0.1, engine: str = "batch",
    workers: int = 1, store=None,
) -> ExperimentResult:
    """Run experiment E11 and return its result table."""
    spec = replace(protocol_comparison_spec(quick=quick, seed=seed, trials=trials,
                                            delta=delta, epsilon=epsilon),
                   engine=engine)
    player_counts = list(spec.axes["n"])

    sweep_rows = run_sweep(spec, workers=workers, store=store).rows

    rows = [{
        "n": row["n"],
        "dynamics": DYNAMICS_LABELS[row["dynamics"]],
        "mean_work": row["mean_work"],
        "work_per_player": row["work_per_player"],
        "mean_final_cost": row["mean_final_cost"],
        "cost_over_optimum": row["cost_over_optimum"],
        "non_converged_trials": row["non_converged_trials"],
    } for row in sweep_rows]

    notes: list[str] = []
    for num_players in player_counts:
        imitation_row = find_row(rows, n=num_players,
                                 dynamics=DYNAMICS_LABELS["imitation"])
        best_response_row = find_row(rows, n=num_players,
                                     dynamics=DYNAMICS_LABELS["best-response"])
        if imitation_row["mean_work"] is None or best_response_row["mean_work"] is None:
            notes.append(f"n={num_players}: no converged replicas for one of the "
                         "compared dynamics — work comparison unavailable")
            continue
        notes.append(
            f"n={num_players}: imitation used {imitation_row['mean_work']:.1f} rounds "
            f"({imitation_row['work_per_player']:.3f} per player) while best response used "
            f"{best_response_row['mean_work']:.1f} moves "
            f"({best_response_row['work_per_player']:.3f} per player)"
        )
    imitation_rows = [r for r in rows if r["dynamics"].startswith("imitation")
                      and r["mean_work"] is not None]
    if imitation_rows and imitation_rows[-1]["mean_work"] <= 4 * imitation_rows[0]["mean_work"]:
        notes.append("the concurrent round count is essentially flat in n, while every "
                     "sequential baseline's move count grows proportionally to n")
    truncated = sum(row["non_converged_trials"] for row in rows)
    if truncated:
        notes.append(f"{truncated} replica run(s) exhausted their budget without "
                     "converging and are excluded from the work/cost means")
    return ExperimentResult(
        experiment_id="E11",
        title="Concurrent imitation versus sequential baselines",
        claim="Related-work comparison (extension; not a numbered theorem)",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "trials": spec.replicas,
                    "delta": delta, "epsilon": epsilon,
                    "player_counts": player_counts, "num_links": 8,
                    "engine": engine, "workers": workers,
                    "sweep_spec_hash": spec.content_hash()},
    )

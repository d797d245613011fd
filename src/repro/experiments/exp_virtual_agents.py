"""E13 (extension) — virtual agents restore innovativeness (Section 6).

Section 6 lists three remedies for the non-innovativeness of imitation; the
second one adds a virtual agent to every strategy so that the sampling
probability of a strategy never drops to zero.  This extension experiment
starts from the adversarial all-on-the-slowest-link state (the same workload
as E9) and compares

* plain imitation (stuck forever),
* virtual-agent imitation (recovers the unused strategies through sampling),
* the exploration/imitation hybrid (the third remedy, for reference),

reporting whether a Nash equilibrium is reached, how many rounds it takes and
the final social cost.

The protocol axis is a :class:`~repro.sweeps.spec.SweepSpec`
(:func:`virtual_agents_spec`, CLI ``--preset virtual-agents``) driving the
``virtual_agent_nash`` kernel.  ``engine="batch"`` (default) advances all
trials through the ensemble engine with per-replica random streams;
``engine="loop"`` replays the same streams through the scalar engine —
bit-identical tables.  ``mean_rounds`` averages over *converged* trials
only; trials that exhausted the round budget are counted in
``non_converged_trials``.
"""

from __future__ import annotations

from dataclasses import replace

from ..sweeps import SweepSpec, run_sweep
from .config import DEFAULTS, pick
from .registry import ExperimentResult, register
from .reporting import find_row

__all__ = ["run_virtual_agents_experiment", "virtual_agents_spec"]

#: The fixed slowest-to-fastest link speeds of the E13 instance.
LINK_COEFFICIENTS = [1.0, 2.0, 4.0, 8.0]

#: Sweep-axis protocol identifiers -> experiment-table display labels.
PROTOCOL_LABELS = {
    "imitation": "imitation (plain)",
    "virtual-agents": "imitation + virtual agents",
    "hybrid": "hybrid (imitation/exploration)",
}


def virtual_agents_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None,
) -> SweepSpec:
    """The E13 protocol comparison as a declarative sweep."""
    trials = trials if trials is not None else pick(quick, 3, 10)
    num_players = num_players if num_players is not None else pick(quick, 40, 120)
    return SweepSpec(
        name="e13-virtual-agents",
        game="linear-singleton",
        protocol="imitation",
        measure="virtual_agent_nash",
        axes={"protocol": list(PROTOCOL_LABELS)},
        base={"n": num_players, "coeffs": LINK_COEFFICIENTS,
              "use_nu_threshold": False},
        replicas=trials,
        max_rounds=pick(quick, 50_000, 500_000),
        seed=seed,
    )


@register(
    "E13",
    "Virtual agents restore innovativeness (extension)",
    "Section 6 (second alternative): adding a virtual agent to every strategy "
    "keeps the sampling probability of unused strategies positive, so the "
    "dynamics can rediscover them and converge to a Nash equilibrium.",
)
def run_virtual_agents_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None, engine: str = "batch",
    workers: int = 1, store=None,
) -> ExperimentResult:
    """Run experiment E13 and return its result table."""
    spec = replace(virtual_agents_spec(quick=quick, seed=seed, trials=trials,
                                       num_players=num_players), engine=engine)
    sweep_rows = run_sweep(spec, workers=workers, store=store).rows

    rows = [{
        "protocol": PROTOCOL_LABELS[row["protocol"]],
        "trials": row["trials"],
        "nash_reached_fraction": row["nash_reached_fraction"],
        "mean_rounds": row["mean_rounds_converged"],
        "non_converged_trials": row["non_converged_trials"],
        "mean_final_cost": row["mean_final_cost"],
        "cost_over_optimum": row["cost_over_optimum"],
    } for row in sweep_rows]

    plain = find_row(rows, protocol=PROTOCOL_LABELS["imitation"])
    virtual = find_row(rows, protocol=PROTOCOL_LABELS["virtual-agents"])
    notes: list[str] = []
    notes.append(
        "plain imitation never escapes the all-on-one-strategy start "
        f"(Nash fraction {plain['nash_reached_fraction']:.2f})"
    )
    notes.append(
        "virtual-agent imitation reaches a Nash equilibrium in "
        f"{virtual['nash_reached_fraction']:.2f} of trials after "
        f"{virtual['mean_rounds'] or 0:.0f} rounds on average — the "
        "Section 6 claim that a single virtual agent per strategy restores innovativeness"
    )
    truncated = sum(row["non_converged_trials"] for row in rows)
    if truncated:
        notes.append(f"{truncated} trial(s) exhausted the round budget without "
                     "converging and are excluded from the mean_rounds column")
    return ExperimentResult(
        experiment_id="E13",
        title="Virtual agents restore innovativeness",
        claim="Section 6, second alternative (extension)",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "trials": spec.replicas,
                    "num_players": spec.base["n"],
                    "coefficients": LINK_COEFFICIENTS,
                    "max_rounds": spec.max_rounds,
                    "engine": engine, "workers": workers,
                    "sweep_spec_hash": spec.content_hash()},
    )

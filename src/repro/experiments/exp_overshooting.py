"""E5 — Overshooting and the role of the 1/d damping (Section 2.3).

The paper motivates the ``1/d`` factor in the migration probability with a
two-link instance: link 1 has constant latency ``c`` and link 2 has latency
``x**d``.  When link 2 currently offers a latency advantage ``b = c - x_2**d``,
an *undamped* proportional imitation rule attracts an expected inflow that
raises the latency of link 2 by ``Theta(b * d)`` — overshooting the
anticipated gain ``b`` by a factor of roughly ``d`` (for ``d > 1`` the
migrants end up *worse* than before).  The damped IMITATION PROTOCOL keeps
the expected latency increase below ``b``.

The experiment prepares, for each degree ``d``, the state in which link 2
carries the load whose latency is 70% of ``c`` (so the gap ``b = 0.3 c``), and
measures over many independent single rounds

* the realised latency increase of link 2 divided by the gap ``b`` (the
  *overshoot ratio* — approximately ``lambda * 0.7 * d`` undamped versus
  ``lambda * 0.7`` damped),
* whether the post-round latency of link 2 exceeds ``c`` (migrants worse off),
* the realised one-round potential change,
* the rate of potential increases along a longer trajectory.

The (degree, protocol) grid is a :class:`~repro.sweeps.spec.SweepSpec`
(:func:`overshoot_spec`, CLI ``--preset overshoot``) driving the
``overshoot_ratio`` kernel.  ``engine="batch"`` (default) draws all trial
rounds as one stacked multinomial and runs the drift trajectories through
the ensemble engine; ``engine="loop"`` replays the same per-replica random
streams through the scalar engine — the two tables are bit-identical (the
engine-parity tests assert this).
"""

from __future__ import annotations

from dataclasses import replace

from ..sweeps import SweepSpec, run_sweep
from .config import DEFAULTS, pick, pick_list
from .registry import ExperimentResult, register
from .reporting import find_row

__all__ = ["run_overshooting_experiment", "overshoot_spec"]

#: Fraction of the constant latency that link 2 offers in the prepared start
#: state (the latency gap is therefore 30% of c).
START_LATENCY_FRACTION = 0.7

#: Sweep-axis protocol identifiers -> experiment-table display labels.
PROTOCOL_LABELS = {
    "imitation": "imitation (1/d damped)",
    "proportional": "proportional (undamped)",
}


def overshoot_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None, drift_trials: int = 3,
) -> SweepSpec:
    """The E5 grid as a declarative sweep over (degree, protocol)."""
    trials = trials if trials is not None else pick(quick, 20, 100)
    num_players = num_players if num_players is not None else pick(quick, 1000, 4000)
    degrees = pick_list(quick, [1, 2, 4], [1, 2, 4, 6, 8])
    return SweepSpec(
        name="e5-overshoot",
        game="two-link",
        protocol="imitation",
        measure="overshoot_ratio",
        axes={"degree": degrees, "protocol": ["imitation", "proportional"]},
        base={"n": num_players, "lambda_": 1.0, "use_nu_threshold": False,
              "start_latency_fraction": START_LATENCY_FRACTION,
              "drift_rounds": pick(quick, 30, 100), "drift_trials": drift_trials},
        replicas=trials,
        max_rounds=pick(quick, 30, 100),
        seed=seed,
    )


@register(
    "E5",
    "Overshooting of undamped proportional imitation versus the 1/d-damped protocol",
    "Section 2.3: without the 1/d damping the expected latency increase on the "
    "fast link is Theta(b*d), overshooting the anticipated gain b by a factor "
    "of about d; with the damping it stays below b.",
)
def run_overshooting_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    num_players: int | None = None, drift_trials: int = 3, engine: str = "batch",
    workers: int = 1, store=None,
) -> ExperimentResult:
    """Run experiment E5 and return its result table."""
    spec = replace(overshoot_spec(quick=quick, seed=seed, trials=trials,
                                  num_players=num_players,
                                  drift_trials=drift_trials), engine=engine)
    degrees = list(spec.axes["degree"])

    sweep_rows = run_sweep(spec, workers=workers, store=store).rows

    rows = [{
        "degree_d": row["degree"],
        "protocol": PROTOCOL_LABELS[row["protocol"]],
        "latency_gap_b": row["latency_gap_b"],
        "mean_overshoot_ratio": row["mean_overshoot_ratio"],
        "migrants_worse_off_fraction": row["migrants_worse_off_fraction"],
        "mean_potential_change_1_round": row["mean_potential_change_1_round"],
        "potential_increase_rate_long_run": row["potential_increase_rate_long_run"],
    } for row in sweep_rows]

    notes: list[str] = []
    for degree in degrees:
        damped = find_row(rows, degree_d=degree,
                          protocol=PROTOCOL_LABELS["imitation"])
        undamped = find_row(rows, degree_d=degree,
                            protocol=PROTOCOL_LABELS["proportional"])
        notes.append(
            f"d={degree}: latency increase / anticipated gain = "
            f"{undamped['mean_overshoot_ratio']:.2f} (undamped) vs "
            f"{damped['mean_overshoot_ratio']:.2f} (damped)"
        )
    damped_max = max(r["mean_overshoot_ratio"] for r in rows
                     if r["protocol"].startswith("imitation"))
    notes.append(
        f"the damped protocol's latency increase never exceeds the anticipated gain "
        f"(max ratio {damped_max:.2f} <= 1) while the undamped ratio grows roughly "
        "linearly in d — the Theta(b*d) overshoot of Section 2.3"
    )
    return ExperimentResult(
        experiment_id="E5",
        title="Overshooting ablation (1/d damping)",
        claim="Section 2.3 overshooting example",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "trials": spec.replicas,
                    "num_players": spec.base["n"], "degrees": degrees,
                    "start_latency_fraction": START_LATENCY_FRACTION,
                    "engine": engine, "workers": workers,
                    "sweep_spec_hash": spec.content_hash()},
    )

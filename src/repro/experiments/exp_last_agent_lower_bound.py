"""E10 — The Omega(n) lower bound for fully satisfied populations (Section 4).

At the end of Section 4 the paper explains why the relaxation to "all but a
delta fraction" of the players is necessary: on an instance with ``n = 2m``
players and ``m`` identical linear links, loaded ``(3, 1, 2, 2, ..., 2)``,
exactly one improvement move exists (a player on the overloaded link moving
to the underloaded one) and any protocol that works by sampling a strategy or
a player finds it with probability at most ``O(1/n)`` per round — so reaching
a state in which *every* player is approximately satisfied takes Omega(n)
rounds in expectation.

The experiment builds exactly that instance for growing ``m``, runs the
IMITATION PROTOCOL (without the ``nu`` threshold, which would otherwise
freeze the gain-1 move entirely) until the unique Nash equilibrium
``(2, ..., 2)`` is reached, and checks that the measured expected hitting
time grows linearly in ``n`` — in sharp contrast to the logarithmic growth
measured for delta > 0 in experiment E2.
"""

from __future__ import annotations

import numpy as np

from ..analysis.convergence import (
    fit_linear,
    fit_power_law,
    measure_hitting_times,
    measure_hitting_times_ensemble,
)
from ..core.ensemble import batch_stop_at_nash
from ..core.imitation import ImitationProtocol
from ..core.run import run_until_nash
from ..engines import validate_engine
from ..games.generators import identical_links_game
from ..games.state import GameState, batch_broadcast
from ..rng import derive_rng
from .config import DEFAULTS, pick, pick_list
from .registry import ExperimentResult, register

__all__ = ["run_last_agent_lower_bound_experiment"]


def _section4_start(num_links: int) -> GameState:
    """The start state (3, 1, 2, 2, ..., 2) of the Section 4 example."""
    counts = np.full(num_links, 2, dtype=np.int64)
    counts[0] = 3
    counts[1] = 1
    return GameState(counts)


@register(
    "E10",
    "Omega(n) rounds to satisfy the last player (delta = 0)",
    "Section 4 (closing remark): any sampling protocol needs Omega(n) expected "
    "rounds to reach a state where *all* players are approximately satisfied.",
)
def run_last_agent_lower_bound_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, trials: int | None = None,
    engine: str = "batch",
) -> ExperimentResult:
    """Run experiment E10 and return its result table."""
    validate_engine(engine, context="E10")
    trials = trials if trials is not None else pick(quick, 10, 40)
    link_counts = pick_list(quick, [8, 16, 32, 64], [8, 16, 32, 64, 128, 256])
    protocol = ImitationProtocol(lambda_=1.0, use_nu_threshold=False)

    rows: list[dict] = []
    mean_times: list[float] = []
    ns: list[int] = []
    for num_links in link_counts:
        num_players = 2 * num_links
        game = identical_links_game(num_players, num_links)
        start = _section4_start(num_links)
        max_rounds = 200 * num_players

        if engine != "loop":
            hitting = measure_hitting_times_ensemble(
                game, protocol, batch_stop_at_nash(),
                trials=trials, max_rounds=max_rounds,
                rng=derive_rng(seed, "e10", num_links),
                initial_states=batch_broadcast(start, trials),
                backend=engine,
            )
        else:
            def run_one(generator, game=game, start=start, max_rounds=max_rounds):
                return run_until_nash(
                    game, protocol, initial_state=start, max_rounds=max_rounds, rng=generator,
                )

            hitting = measure_hitting_times(
                run_one, trials=trials, rng=derive_rng(seed, "e10", num_links),
            )
        ns.append(num_players)
        mean_times.append(hitting.summary.mean)
        rows.append({
            "links_m": num_links,
            "players_n": num_players,
            "mean_rounds_to_nash": hitting.summary.mean,
            "median_rounds": hitting.summary.median,
            "rounds_per_player": hitting.summary.mean / num_players,
            "censored_trials": hitting.censored,
        })

    notes: list[str] = []
    linear_fit = fit_linear(ns, mean_times)
    power_fit = fit_power_law(ns, [max(t, 1e-9) for t in mean_times])
    notes.append(
        f"linear fit: {linear_fit.coefficients[1]:.3f} rounds per player "
        f"(r^2={linear_fit.r_squared:.3f}); power-law exponent {power_fit.coefficients[1]:.2f} "
        "(~1 confirms the Omega(n) growth)"
    )
    notes.append(
        "rounds per player stays roughly constant across n — the hitting time is linear in n, "
        "in contrast to the logarithmic growth measured for delta > 0 in E2"
    )
    return ExperimentResult(
        experiment_id="E10",
        title="Omega(n) lower bound for delta = 0",
        claim="Section 4, closing remark",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "trials": trials,
                    "link_counts": link_counts, "engine": engine},
    )

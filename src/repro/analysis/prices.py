"""Price of Imitation and related efficiency ratios.

Section 5.1 defines the *Price of Imitation* of an instance as the ratio
between the expected social cost (average latency) of the state the
IMITATION PROTOCOL converges to — expectation over the protocol's randomness
*including* the random initialisation — and the optimum social cost.
Theorem 10 bounds it by ``3 + o(1)`` for linear singleton games without
useless links.

For context the module also computes the classical price of anarchy
(worst Nash equilibrium found over restarts of best response) and the price
of stability flavour (best Nash found), so that the experiment tables can
show where the imitation outcome sits between the optimum and the worst
equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.dynamics import StopReason
from ..core.ensemble import EnsembleDynamics, batch_stop_at_imitation_stable
from ..core.protocols import Protocol
from ..core.run import run_until_imitation_stable
from ..engines import validate_engine
from ..games.base import CongestionGame
from ..games.nash import run_best_response
from ..games.optimum import compute_social_optimum
from ..games.singleton import SingletonCongestionGame
from ..rng import RngLike, spawn_rngs
from .statistics import TrialSummary, summarize

__all__ = ["PriceOfImitationResult", "estimate_price_of_imitation", "nash_cost_range"]


@dataclass(frozen=True)
class PriceOfImitationResult:
    """Monte-Carlo estimate of the Price of Imitation of one instance."""

    optimum_cost: float
    fractional_optimum_cost: Optional[float]
    expected_cost: float
    cost_summary: TrialSummary
    price_of_imitation: float
    price_vs_fractional: Optional[float]
    unconverged_trials: int


def estimate_price_of_imitation(
    game: CongestionGame,
    protocol: Protocol,
    *,
    trials: int = 20,
    max_rounds: int = 100_000,
    rng: RngLike = 0,
    engine: str = "batch",
) -> PriceOfImitationResult:
    """Estimate ``I_Gamma / OPT`` by running the protocol to an
    imitation-stable state from independent random initialisations.

    ``engine="batch"`` (default) runs all trials as one vectorized ensemble
    (``"native"`` drives that ensemble through the fused kernel);
    ``engine="loop"`` runs them sequentially with spawned generators.
    """
    validate_engine(engine, context="estimate_price_of_imitation")
    optimum = compute_social_optimum(game)
    fractional_cost: Optional[float] = None
    if isinstance(game, SingletonCongestionGame) and game.is_linear:
        fractional_cost = game.optimal_fractional_cost()

    costs: list[float] = []
    unconverged = 0
    if engine != "loop":
        dynamics = EnsembleDynamics(game, protocol, rng=rng)
        result = dynamics.run(
            replicas=trials,
            max_rounds=max_rounds,
            stop_condition=batch_stop_at_imitation_stable(),
            backend=engine,
        )
        unconverged = sum(1 for reason in result.stop_reasons
                          if reason is StopReason.MAX_ROUNDS)
        costs = [float(c) for c in game.social_cost_batch(result.final_states)]
    else:
        generators = spawn_rngs(rng, trials)
        for generator in generators:
            result = run_until_imitation_stable(
                game, protocol, max_rounds=max_rounds, rng=generator,
            )
            if not result.converged:
                unconverged += 1
            costs.append(float(game.social_cost(result.final_state)))
    summary = summarize(costs)
    expected_cost = summary.mean
    return PriceOfImitationResult(
        optimum_cost=optimum.social_cost,
        fractional_optimum_cost=fractional_cost,
        expected_cost=expected_cost,
        cost_summary=summary,
        price_of_imitation=expected_cost / optimum.social_cost if optimum.social_cost > 0 else float("inf"),
        price_vs_fractional=(expected_cost / fractional_cost) if fractional_cost else None,
        unconverged_trials=unconverged,
    )


def nash_cost_range(
    game: CongestionGame,
    *,
    restarts: int = 10,
    max_steps: int = 200_000,
    rng: RngLike = 0,
) -> dict[str, float]:
    """Best and worst social cost among Nash equilibria found by
    best-response descent from random restarts.

    This is a sampling-based stand-in for the price of anarchy / stability
    (exact enumeration of all equilibria is exponential); it provides the
    context rows of the E8 table.
    """
    generators = spawn_rngs(rng, restarts)
    costs: list[float] = []
    for generator in generators:
        start = game.uniform_random_state(generator)
        final, _ = run_best_response(game, start, max_steps=max_steps, rng=generator)
        costs.append(float(game.social_cost(final)))
    optimum = compute_social_optimum(game)
    best = float(np.min(costs))
    worst = float(np.max(costs))
    return {
        "optimum_cost": optimum.social_cost,
        "best_nash_cost": best,
        "worst_nash_cost": worst,
        "price_of_anarchy_sampled": worst / optimum.social_cost if optimum.social_cost > 0 else float("inf"),
        "price_of_stability_sampled": best / optimum.social_cost if optimum.social_cost > 0 else float("inf"),
    }

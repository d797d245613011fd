"""Strategy-extinction tracking (Theorem 9).

The IMITATION PROTOCOL is not innovative: once the last user of a strategy
leaves it, the strategy is lost for good.  Theorem 9 shows that for singleton
games with ``l_e(0) = 0`` latencies (normalised to the population,
``l^n(x) = l(x/n)``) and random initialisation, the probability that *any*
edge is emptied within polynomially many rounds is ``2^{-Omega(n)}``.

The helpers here run trajectories while watching the support of the state
and report extinction events, minimum observed congestions and the empirical
extinction probability over trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.dynamics import ConcurrentDynamics
from ..core.ensemble import EnsembleDynamics
from ..core.protocols import Protocol
from ..engines import validate_engine
from ..games.base import CongestionGame
from ..games.state import StateLike
from ..rng import RngLike, ensure_rng, spawn_rngs
from .statistics import probability_estimate

__all__ = ["SurvivalTrace", "run_with_extinction_tracking", "estimate_extinction_probability"]


@dataclass(frozen=True)
class SurvivalTrace:
    """Support history of one trajectory.

    Attributes
    ----------
    rounds:
        Number of rounds executed.
    extinction_round:
        First round after which some initially-used resource had zero
        congestion, or ``None`` if that never happened.
    min_congestion:
        The smallest per-resource congestion observed at any recorded round
        (restricted to resources that were used initially).
    final_support:
        Number of resources with positive congestion at the end.
    """

    rounds: int
    extinction_round: Optional[int]
    min_congestion: float
    final_support: int

    @property
    def extinct(self) -> bool:
        """True if some initially-used resource was emptied."""
        return self.extinction_round is not None


def run_with_extinction_tracking(
    game: CongestionGame,
    protocol: Protocol,
    *,
    rounds: int,
    initial_state: Optional[StateLike] = None,
    rng: RngLike = None,
) -> SurvivalTrace:
    """Run ``rounds`` rounds and watch the congestion of initially-used resources."""
    gen = ensure_rng(rng)
    dynamics = ConcurrentDynamics(game, protocol, rng=gen)
    if initial_state is None:
        initial_state = game.uniform_random_state(gen)
    counts = game.validate_state(initial_state).copy()
    initial_loads = game.congestion(counts)
    watched = initial_loads > 0

    extinction_round: Optional[int] = None
    min_congestion = float(np.min(initial_loads[watched])) if np.any(watched) else 0.0

    executed = 0
    for round_index in range(rounds):
        probabilities = dynamics.protocol.switch_probabilities(game, counts)
        if probabilities.is_quiescent(counts):
            break
        from ..core.dynamics import sample_migration_matrix  # local to avoid cycle at import

        migration = sample_migration_matrix(counts, probabilities.matrix, gen)
        delta = migration.sum(axis=0) - migration.sum(axis=1)
        counts = counts + delta
        executed = round_index + 1
        loads = game.congestion(counts)
        if np.any(watched):
            min_congestion = min(min_congestion, float(np.min(loads[watched])))
            if extinction_round is None and np.any(loads[watched] <= 0):
                extinction_round = executed
    final_loads = game.congestion(counts)
    return SurvivalTrace(
        rounds=executed,
        extinction_round=extinction_round,
        min_congestion=min_congestion,
        final_support=int(np.count_nonzero(final_loads > 0)),
    )


def _estimate_extinction_probability_batch(
    game: CongestionGame,
    protocol: Protocol,
    *,
    rounds: int,
    trials: int,
    rng: RngLike = 0,
    backend: str = "batch",
) -> dict[str, float]:
    """Batched extinction estimate: all trials advance as one ensemble and a
    per-round observer watches the congestion of initially-used resources."""
    gen = ensure_rng(rng)
    dynamics = EnsembleDynamics(game, protocol, rng=gen)
    initial = game.uniform_random_batch_state(trials, gen)
    initial_loads = game.congestion_batch(initial)  # (R, m)
    watched = initial_loads > 0

    min_congestion = np.where(
        np.any(watched, axis=1),
        np.where(watched, initial_loads, np.inf).min(axis=1),
        0.0,
    )
    extinction_round = np.full(trials, -1, dtype=np.int64)

    def observer(game_: CongestionGame, counts: np.ndarray,
                 indices: np.ndarray, round_index: int) -> None:
        loads = game_.congestion_batch(counts[indices])
        masked = np.where(watched[indices], loads, np.inf)
        lows = masked.min(axis=1)
        lows = np.where(np.isfinite(lows), lows, 0.0)
        min_congestion[indices] = np.minimum(min_congestion[indices], lows)
        emptied = (lows <= 0.0) & np.any(watched[indices], axis=1)
        fresh = emptied & (extinction_round[indices] < 0)
        extinction_round[indices[fresh]] = round_index

    dynamics.run(initial, max_rounds=rounds, observer=observer, backend=backend)
    extinctions = int(np.count_nonzero(extinction_round >= 0))
    estimate, upper = probability_estimate(extinctions, trials)
    return {
        "trials": float(trials),
        "extinctions": float(extinctions),
        "probability": estimate,
        "probability_upper_bound": upper,
        "min_congestion": float(min_congestion.min()) if trials else 0.0,
    }


def estimate_extinction_probability(
    game_factory: Callable[[], CongestionGame],
    protocol: Protocol,
    *,
    rounds: int,
    trials: int,
    rng: RngLike = 0,
    engine: str = "batch",
) -> dict[str, float]:
    """Empirical probability that any initially-used resource empties within
    ``rounds`` rounds, over ``trials`` independent runs.

    Returns the point estimate, an upper confidence bound (rule of three when
    no extinction is ever observed), and the worst (smallest) congestion seen.
    With ``engine="batch"`` (default) the factory is called once and all
    trials run as a vectorized ensemble (``"native"`` drives that ensemble
    through the fused kernel); ``engine="loop"`` preserves the
    one-trajectory-per-trial behaviour.
    """
    validate_engine(engine, context="estimate_extinction_probability")
    if engine != "loop":
        return _estimate_extinction_probability_batch(
            game_factory(), protocol, rounds=rounds, trials=trials, rng=rng,
            backend=engine,
        )
    generators = spawn_rngs(rng, trials)
    extinctions = 0
    min_congestion = float("inf")
    for generator in generators:
        game = game_factory()
        trace = run_with_extinction_tracking(game, protocol, rounds=rounds, rng=generator)
        if trace.extinct:
            extinctions += 1
        min_congestion = min(min_congestion, trace.min_congestion)
    estimate, upper = probability_estimate(extinctions, trials)
    return {
        "trials": float(trials),
        "extinctions": float(extinctions),
        "probability": estimate,
        "probability_upper_bound": upper,
        "min_congestion": min_congestion,
    }

"""Hitting-time measurement and scaling fits.

Theorem 7 predicts that the expected number of rounds to the first
(delta, eps, nu)-equilibrium scales like ``d / (eps^2 delta) * log(Phi(x0)/Phi*)``
— in particular only logarithmically in the number of players once the other
parameters are fixed.  The experiments estimate hitting times over seeded
trials and then check the *shape* of the scaling by fitting logarithmic /
power-law models to the measured curve and comparing their quality
(``fit_logarithmic``, ``fit_power_law``, ``compare_scaling_models``).

Two measurement engines are available:

* ``engine="batch"`` (default) runs all trials as one vectorized ensemble
  (:class:`~repro.core.ensemble.EnsembleDynamics`) — the game factory is
  called **once** and the replicas share the instance;
* ``engine="loop"`` preserves the historical behaviour: one sequential
  :class:`~repro.core.dynamics.ConcurrentDynamics` run per trial with a
  freshly built game and an independently spawned generator.

Both engines are reproducible from their seed but consume the randomness
differently, so their sampled hitting times are *statistically* (not
sample-path-wise) equivalent.  :func:`measure_hitting_times_ensemble`
additionally accepts ``backend="native"``: with numba the ensemble runs in
the fused round kernel (:mod:`repro.core.native`) under the same
statistical contract; without numba it runs the batch round, so its times
equal ``backend="batch"``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.dynamics import StopReason, TrajectoryResult
from ..core.ensemble import (
    BatchStopCondition,
    EnsembleDynamics,
    batch_stop_at_approx_equilibrium,
    batch_stop_at_imitation_stable,
)
from ..core.protocols import Protocol
from ..core.run import run_until_approx_equilibrium, run_until_imitation_stable
from ..engines import validate_engine
from ..games.base import CongestionGame
from ..games.state import BatchStateLike
from ..rng import RngLike, spawn_rngs
from .statistics import TrialSummary, summarize

__all__ = [
    "HittingTimeResult",
    "measure_hitting_times",
    "measure_hitting_times_ensemble",
    "measure_approx_equilibrium_times",
    "measure_imitation_stable_times",
    "ScalingFit",
    "fit_logarithmic",
    "fit_power_law",
    "fit_linear",
    "compare_scaling_models",
]


@dataclass(frozen=True)
class HittingTimeResult:
    """Hitting times of a stopping condition over several trials."""

    times: list[int]
    censored: int
    summary: TrialSummary

    @property
    def all_converged(self) -> bool:
        """True if every trial reached the stopping condition in budget."""
        return self.censored == 0


def measure_hitting_times(
    run_one: Callable[[np.random.Generator], TrajectoryResult],
    *,
    trials: int,
    rng: RngLike = 0,
) -> HittingTimeResult:
    """Generic trial loop: run ``run_one`` with independent generators and
    collect the round counts.

    Runs that end with :class:`StopReason.MAX_ROUNDS` are counted as censored
    but their (budget-sized) round count still enters the summary, so the
    reported mean is a lower bound on the true expectation in that case.
    """
    generators = spawn_rngs(rng, trials)
    times: list[int] = []
    censored = 0
    for generator in generators:
        result = run_one(generator)
        times.append(int(result.rounds))
        if result.stop_reason is StopReason.MAX_ROUNDS:
            censored += 1
    return HittingTimeResult(times=times, censored=censored, summary=summarize(times))


def measure_hitting_times_ensemble(
    game: CongestionGame,
    protocol: Protocol,
    stop_condition: BatchStopCondition,
    *,
    trials: int,
    max_rounds: int = 100_000,
    rng: RngLike = 0,
    initial_states: Optional[BatchStateLike] = None,
    backend: str = "batch",
) -> HittingTimeResult:
    """Batched trial loop: all trials advance together as one ensemble.

    ``initial_states`` defaults to ``trials`` independent uniform-random
    initialisations.  Replicas that end with
    :attr:`~repro.core.dynamics.StopReason.MAX_ROUNDS` are counted as
    censored, exactly like the sequential loop.

    ``backend`` selects the ensemble execution backend (``"batch"`` or
    ``"native"``); both consume one generator derived from ``rng``.  The
    numba kernel behind ``"native"`` draws migrations through a different
    decomposition, so its sampled hitting times agree with batch's in
    distribution, not bit-for-bit; without numba ``"native"`` runs the
    batch round and returns the same times.
    """
    dynamics = EnsembleDynamics(game, protocol, rng=rng)
    result = dynamics.run(
        initial_states,
        replicas=trials,
        max_rounds=max_rounds,
        stop_condition=stop_condition,
        backend=backend,
    )
    times = [int(r) for r in result.rounds]
    censored = sum(1 for reason in result.stop_reasons
                   if reason is StopReason.MAX_ROUNDS)
    return HittingTimeResult(times=times, censored=censored, summary=summarize(times))


def measure_approx_equilibrium_times(
    game_factory: Callable[[], CongestionGame],
    protocol: Protocol,
    delta: float,
    epsilon: float,
    *,
    nu: Optional[float] = None,
    trials: int = 10,
    max_rounds: int = 100_000,
    rng: RngLike = 0,
    engine: str = "batch",
) -> HittingTimeResult:
    """Hitting times of the first (delta, eps, nu)-equilibrium.

    With ``engine="batch"`` the factory is called once and all trials run as
    one ensemble on the shared instance; with ``engine="loop"`` it is called
    once per trial so that game-level caches do not leak state between trials
    and randomised instances can resample.

    .. warning::
       If ``game_factory`` draws a *random* instance per call, the two
       engines estimate different quantities: the loop averages over
       instance randomness *and* path randomness, the batch conditions on a
       single drawn instance.  Use ``engine="loop"`` for randomised
       factories; all deterministic factories are engine-agnostic.
    """
    validate_engine(engine, context="measure_approx_equilibrium_times")
    if engine in ("batch", "native"):
        return measure_hitting_times_ensemble(
            game_factory(), protocol,
            batch_stop_at_approx_equilibrium(delta, epsilon, nu),
            trials=trials, max_rounds=max_rounds, rng=rng, backend=engine,
        )

    def run_one(generator: np.random.Generator) -> TrajectoryResult:
        game = game_factory()
        return run_until_approx_equilibrium(
            game, protocol, delta, epsilon,
            nu=nu, max_rounds=max_rounds, rng=generator,
        )

    return measure_hitting_times(run_one, trials=trials, rng=rng)


def measure_imitation_stable_times(
    game_factory: Callable[[], CongestionGame],
    protocol: Protocol,
    *,
    nu: Optional[float] = None,
    trials: int = 10,
    max_rounds: int = 100_000,
    rng: RngLike = 0,
    engine: str = "batch",
) -> HittingTimeResult:
    """Hitting times of the first imitation-stable state (Theorem 4).

    Engine semantics (including the randomised-factory caveat) are the same
    as for :func:`measure_approx_equilibrium_times`.
    """
    validate_engine(engine, context="measure_imitation_stable_times")
    if engine in ("batch", "native"):
        return measure_hitting_times_ensemble(
            game_factory(), protocol,
            batch_stop_at_imitation_stable(nu),
            trials=trials, max_rounds=max_rounds, rng=rng, backend=engine,
        )

    def run_one(generator: np.random.Generator) -> TrajectoryResult:
        game = game_factory()
        return run_until_imitation_stable(
            game, protocol, nu=nu, max_rounds=max_rounds, rng=generator,
        )

    return measure_hitting_times(run_one, trials=trials, rng=rng)


# ----------------------------------------------------------------------
# Scaling-shape fits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of a one-parameter-family scaling model."""

    model: str
    coefficients: tuple[float, ...]
    residual: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted model."""
        x = np.asarray(x, dtype=float)
        if self.model == "logarithmic":
            a, b = self.coefficients
            return a + b * np.log(x)
        if self.model == "power-law":
            a, b = self.coefficients
            return a * np.power(x, b)
        if self.model == "linear":
            a, b = self.coefficients
            return a + b * x
        raise ValueError(f"unknown model {self.model!r}")


def _r_squared(y: np.ndarray, predictions: np.ndarray) -> float:
    total = float(np.sum((y - np.mean(y)) ** 2))
    if total == 0:
        return 1.0
    residual = float(np.sum((y - predictions) ** 2))
    return 1.0 - residual / total


def fit_logarithmic(x: Sequence[float], y: Sequence[float]) -> ScalingFit:
    """Fit ``y = a + b log x`` by least squares."""
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("logarithmic fit needs positive x")
    design = np.vstack([np.ones_like(x_arr), np.log(x_arr)]).T
    coeffs, residuals, _, _ = np.linalg.lstsq(design, y_arr, rcond=None)
    predictions = design @ coeffs
    residual = float(np.sum((y_arr - predictions) ** 2))
    return ScalingFit("logarithmic", (float(coeffs[0]), float(coeffs[1])),
                      residual, _r_squared(y_arr, predictions))


def fit_linear(x: Sequence[float], y: Sequence[float]) -> ScalingFit:
    """Fit ``y = a + b x`` by least squares."""
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    design = np.vstack([np.ones_like(x_arr), x_arr]).T
    coeffs, _, _, _ = np.linalg.lstsq(design, y_arr, rcond=None)
    predictions = design @ coeffs
    residual = float(np.sum((y_arr - predictions) ** 2))
    return ScalingFit("linear", (float(coeffs[0]), float(coeffs[1])),
                      residual, _r_squared(y_arr, predictions))


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> ScalingFit:
    """Fit ``y = a * x**b`` by least squares in log-log space.

    The goodness of fit (``r_squared``, ``residual``) is reported back in the
    *original* space so that it is comparable with the other models.
    """
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    if np.any(x_arr <= 0) or np.any(y_arr <= 0):
        raise ValueError("power-law fit needs positive data")
    design = np.vstack([np.ones_like(x_arr), np.log(x_arr)]).T
    coeffs, _, _, _ = np.linalg.lstsq(design, np.log(y_arr), rcond=None)
    a = float(np.exp(coeffs[0]))
    b = float(coeffs[1])
    predictions = a * np.power(x_arr, b)
    residual = float(np.sum((y_arr - predictions) ** 2))
    return ScalingFit("power-law", (a, b), residual, _r_squared(y_arr, predictions))


def compare_scaling_models(x: Sequence[float], y: Sequence[float]) -> dict[str, ScalingFit]:
    """Fit the logarithmic, linear and power-law models and return all three.

    Experiment E2 uses this to show that the measured convergence times as a
    function of ``n`` are much better explained by the logarithmic model (or
    a power law with a tiny exponent) than by a linear one.
    """
    return {
        "logarithmic": fit_logarithmic(x, y),
        "linear": fit_linear(x, y),
        "power-law": fit_power_law(x, y),
    }

"""Random and structured instance generators.

Experiments need families of instances parameterised by the number of
players, the latency degree (elasticity), and the topology.  This module
collects the generators used throughout the experiment suite so that every
experiment builds its instances through one seeded, documented code path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import GameDefinitionError
from ..rng import RngLike, ensure_rng
from .base import CongestionGame
from .latency import (
    ConstantLatency,
    LatencyFunction,
    LinearLatency,
    MonomialLatency,
    PolynomialLatency,
)
from .singleton import SingletonCongestionGame

__all__ = [
    "random_linear_singleton",
    "random_polynomial_singleton",
    "random_monomial_singleton",
    "two_link_overshoot_game",
    "two_link_overshoot_start",
    "identical_links_game",
    "dominant_strategy_game",
    "random_symmetric_game",
]


def random_linear_singleton(
    num_players: int,
    num_links: int,
    *,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    name: str = "random-linear-singleton",
) -> SingletonCongestionGame:
    """Singleton game with linear latencies ``a_e x``, ``a_e`` uniform."""
    gen = ensure_rng(rng)
    coefficients = gen.uniform(*coefficient_range, size=num_links)
    latencies = [LinearLatency(float(a), 0.0) for a in coefficients]
    return SingletonCongestionGame(num_players, latencies, name=name)


def random_monomial_singleton(
    num_players: int,
    num_links: int,
    degree: float,
    *,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    name: str = "random-monomial-singleton",
) -> SingletonCongestionGame:
    """Singleton game with monomial latencies ``a_e x**degree``.

    The elasticity bound of the game is exactly ``degree``; experiment E4
    sweeps it.
    """
    gen = ensure_rng(rng)
    coefficients = gen.uniform(*coefficient_range, size=num_links)
    latencies = [MonomialLatency(float(a), degree) for a in coefficients]
    return SingletonCongestionGame(num_players, latencies, name=f"{name}-d{degree:g}")


def random_polynomial_singleton(
    num_players: int,
    num_links: int,
    max_degree: int,
    *,
    coefficient_range: tuple[float, float] = (0.0, 1.0),
    rng: RngLike = None,
    name: str = "random-polynomial-singleton",
) -> SingletonCongestionGame:
    """Singleton game with random positive-coefficient polynomial latencies."""
    if max_degree < 1:
        raise GameDefinitionError("max_degree must be at least 1")
    gen = ensure_rng(rng)
    latencies: list[LatencyFunction] = []
    for _ in range(num_links):
        coeffs = gen.uniform(*coefficient_range, size=max_degree + 1)
        coeffs[0] = 0.0  # keep l(0) = 0
        if not np.any(coeffs > 0):
            coeffs[-1] = 1.0
        latencies.append(PolynomialLatency(coeffs))
    return SingletonCongestionGame(num_players, latencies, name=name)


def two_link_overshoot_game(
    num_players: int,
    degree: float,
    *,
    constant: Optional[float] = None,
    name: str = "two-link-overshoot",
) -> SingletonCongestionGame:
    """The overshooting example from the paper's Section 2.3.

    Link 1 has the constant latency ``c`` and link 2 has latency ``x**d``.
    Starting with (almost) all players on link 1 there is a large latency gap
    ``b = c - x_2**d``; an undamped proportional-imitation rule overshoots the
    balanced point by a factor ``Theta(d)`` while the 1/d-damped IMITATION
    PROTOCOL does not (experiment E5 measures both).

    By default ``c`` is chosen as the latency of link 2 when half the players
    use it, so the balanced state puts roughly half the population on each
    link.
    """
    if constant is None:
        constant = float((num_players / 2.0) ** degree)
    latencies = [ConstantLatency(constant), MonomialLatency(1.0, degree)]
    return SingletonCongestionGame(num_players, latencies,
                                   resource_names=["constant-link", "power-link"],
                                   name=f"{name}-d{degree:g}")


def two_link_overshoot_start(game, degree: float, *,
                             latency_fraction: float = 0.7):
    """The prepared start state of the overshooting measurement (E5).

    Loads the power link of a :func:`two_link_overshoot_game` so that its
    latency is ``latency_fraction`` of the constant link's latency ``c``
    (the anticipated gain is therefore ``(1 - latency_fraction) * c``).
    """
    from .state import GameState  # local import, avoids cycle at module load

    constant_latency = float(game.latencies[0].value(np.asarray(0.0)))
    target_latency = latency_fraction * constant_latency
    # l_2(x) = x**degree  =>  x = target**(1/degree)
    power_load = int(round(target_latency ** (1.0 / degree)))
    power_load = min(max(power_load, 1), game.num_players - 1)
    counts = np.array([game.num_players - power_load, power_load], dtype=np.int64)
    return GameState(counts)


def identical_links_game(
    num_players: int,
    num_links: int,
    *,
    coefficient: float = 1.0,
    name: str = "identical-links",
) -> SingletonCongestionGame:
    """``num_links`` identical linear links; used by the Omega(n) lower bound
    at the end of Section 4 (n = 2m, x_1 = 3, x_2 = 1, x_i = 2)."""
    latencies = [LinearLatency(coefficient, 0.0) for _ in range(num_links)]
    return SingletonCongestionGame(num_players, latencies, name=name)


def dominant_strategy_game(
    num_players: int,
    *,
    cheap_latency: float = 1.0,
    expensive_factor: float = 10.0,
    name: str = "dominant-strategy",
) -> SingletonCongestionGame:
    """Two links where one is better at every conceivable load.

    The cheap link has constant latency ``cheap_latency``; the expensive link
    has constant latency ``expensive_factor * cheap_latency``.  The unique
    Nash equilibrium puts everybody on the cheap link, but imitation cannot
    discover it when all players start on the expensive link — the instance
    exercises the non-innovativeness caveat of the protocol.
    """
    latencies = [ConstantLatency(cheap_latency),
                 ConstantLatency(cheap_latency * expensive_factor)]
    return SingletonCongestionGame(num_players, latencies,
                                   resource_names=["cheap", "expensive"], name=name)


def random_symmetric_game(
    num_players: int,
    num_resources: int,
    num_strategies: int,
    *,
    strategy_size: int = 2,
    degree: int = 1,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    name: str = "random-symmetric",
) -> CongestionGame:
    """Random symmetric game with ``num_strategies`` random resource subsets.

    Every strategy is a uniformly random subset of ``strategy_size``
    resources (duplicates across strategies are allowed but identical
    strategies are rejected and re-drawn, so the strategy set has the
    requested cardinality whenever that is combinatorially possible).
    """
    if strategy_size > num_resources:
        raise GameDefinitionError("strategy_size cannot exceed num_resources")
    gen = ensure_rng(rng)
    latencies: list[LatencyFunction] = []
    for _ in range(num_resources):
        a = float(gen.uniform(*coefficient_range))
        latencies.append(LinearLatency(a, 0.0) if degree == 1 else MonomialLatency(a, float(degree)))

    strategies: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(strategies) < num_strategies:
        candidate = tuple(sorted(gen.choice(num_resources, size=strategy_size, replace=False).tolist()))
        attempts += 1
        if candidate in seen:
            if attempts > 100 * num_strategies:
                raise GameDefinitionError(
                    "could not draw enough distinct strategies; "
                    "reduce num_strategies or increase num_resources"
                )
            continue
        seen.add(candidate)
        strategies.append(candidate)
    return CongestionGame(num_players, latencies, strategies, name=name)


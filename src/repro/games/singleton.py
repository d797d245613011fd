"""Singleton (parallel-links) congestion games.

In a singleton game every strategy is a single resource: ``n`` players choose
among ``m`` parallel links between the common source and sink.  Sections 5
and 5.1 of the paper study this class: Theorem 9 (no strategy extinction with
high probability, for latencies with ``l_e(0) = 0``) and Theorem 10 (Price of
Imitation at most ``3 + o(1)`` for linear latencies ``l_e(x) = a_e x`` without
useless links).

Besides the game itself, this module implements the quantities used in that
analysis: ``A_Gamma = sum_e 1/a_e``, the fractional optimum
``x~_e = n / (A_Gamma a_e)``, useless-link detection, and the exact integral
optimum via greedy marginal-cost assignment (exact for non-decreasing
marginal costs, i.e. convex total-latency links such as linear ones).
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import GameDefinitionError
from .base import CongestionGame
from .evaluation import BatchEvaluation
from .latency import LatencyFunction, LinearLatency, scale_to_population
from .state import BatchStateLike

__all__ = ["SingletonCongestionGame", "make_linear_singleton", "make_scaled_singleton"]


class SingletonCongestionGame(CongestionGame):
    """Parallel-links congestion game: strategy ``e`` = {resource ``e``}."""

    def __init__(
        self,
        num_players: int,
        latencies: Sequence[LatencyFunction],
        *,
        resource_names: Optional[Sequence[str]] = None,
        name: str = "singleton-game",
        validate: bool = True,
    ):
        strategies = [[idx] for idx in range(len(latencies))]
        super().__init__(
            num_players,
            latencies,
            strategies,
            resource_names=resource_names,
            strategy_names=list(resource_names) if resource_names is not None else None,
            name=name,
            validate=validate,
        )

    # ------------------------------------------------------------------
    # Batched evaluation: strategy P is resource P, so the incidence
    # products of the base class are identities and are skipped.  Each
    # product has one non-zero term per entry, so the base class computes
    # the same floats.
    # ------------------------------------------------------------------
    def congestion_batch(self, batch: Union[BatchStateLike, BatchEvaluation]
                         ) -> np.ndarray:
        return self._evaluation(batch).counts.astype(float)

    def strategy_latencies_batch(self, batch: Union[BatchStateLike, BatchEvaluation]
                                 ) -> np.ndarray:
        return self._evaluation(batch).latency_now.copy()

    def strategy_latencies_after_join_batch(
            self, batch: Union[BatchStateLike, BatchEvaluation]) -> np.ndarray:
        return self._evaluation(batch).latency_plus.copy()

    def post_migration_latency_matrix_batch(
            self, batch: Union[BatchStateLike, BatchEvaluation]) -> np.ndarray:
        """``M[r, P, Q] = l_Q(x_r + 1)`` off the diagonal and
        ``l⁺ - (l⁺ - l)`` on it, the overlap correction of the base class."""
        evaluation = self._evaluation(batch)
        latency_plus = evaluation.latency_plus
        replicas, links = latency_plus.shape
        matrix = np.empty((replicas, links, links))
        matrix[...] = latency_plus[:, np.newaxis, :]
        diagonal = np.einsum("...ii->...i", matrix)  # a writable view
        diagonal -= latency_plus - evaluation.latency_now
        return matrix

    # ------------------------------------------------------------------
    # Linear-latency analytics (paper Section 5.1)
    # ------------------------------------------------------------------
    @property
    def is_linear(self) -> bool:
        """True if every latency is of the pure linear form ``a_e x``."""
        return all(isinstance(lat, LinearLatency) and lat.b == 0.0 for lat in self.latencies)

    def linear_coefficients(self) -> np.ndarray:
        """The vector ``a_e`` of linear coefficients (requires :attr:`is_linear`)."""
        if not self.is_linear:
            raise GameDefinitionError("linear coefficients only exist for linear games")
        return np.array([lat.a for lat in self.latencies], dtype=float)  # type: ignore[attr-defined]

    def a_gamma(self) -> float:
        """``A_Gamma = sum_e 1/a_e`` (paper, Section 5.1)."""
        coeffs = self.linear_coefficients()
        return float(np.sum(1.0 / coeffs))

    def fractional_optimum(self) -> np.ndarray:
        """Fractional optimum ``x~_e = n / (A_Gamma a_e)``.

        In this assignment every link has the same latency ``n / A_Gamma``,
        which is simultaneously the optimal fractional average latency and
        the Wardrop equilibrium of the linear game.
        """
        coeffs = self.linear_coefficients()
        return self.num_players / (self.a_gamma() * coeffs)

    def optimal_fractional_cost(self) -> float:
        """Average latency of the fractional optimum, ``n / A_Gamma``."""
        return self.num_players / self.a_gamma()

    def useless_resources(self) -> np.ndarray:
        """Indices of useless links: ``x~_e < 1`` (paper, Section 5.1).

        A useless link is so slow that even the fractional optimum assigns it
        less than one player; the Price-of-Imitation bound assumes none exist.
        """
        return np.nonzero(self.fractional_optimum() < 1.0)[0]

    def has_useless_resources(self) -> bool:
        """True if at least one link is useless."""
        return bool(self.useless_resources().size > 0)

    # ------------------------------------------------------------------
    # Exact integral optimum (greedy marginal-cost assignment)
    # ------------------------------------------------------------------
    def optimum_total_latency_assignment(self) -> np.ndarray:
        """Integral assignment minimising the *total* latency
        ``sum_e x_e l_e(x_e)``.

        Uses the classical greedy that repeatedly places the next player on
        the link with the smallest marginal increase of total latency.  The
        greedy is exact whenever the per-link total latency ``x l_e(x)`` is
        convex in ``x`` (true for all non-decreasing latencies with
        non-decreasing increments, in particular linear and monomial ones).
        """
        marginals: list[tuple[float, int, int]] = []
        loads = np.zeros(self.num_resources, dtype=np.int64)

        def marginal(resource: int, current_load: int) -> float:
            lat = self.latencies[resource]
            before = current_load * float(lat.value(np.asarray(float(current_load))))
            after = (current_load + 1) * float(lat.value(np.asarray(float(current_load + 1))))
            return after - before

        for resource in range(self.num_resources):
            heapq.heappush(marginals, (marginal(resource, 0), resource, 0))
        for _ in range(self.num_players):
            cost, resource, load = heapq.heappop(marginals)
            loads[resource] = load + 1
            heapq.heappush(marginals, (marginal(resource, load + 1), resource, load + 1))
        return loads

    def optimum_social_cost(self) -> float:
        """Minimum average latency over integral assignments (via the greedy)."""
        loads = self.optimum_total_latency_assignment()
        return float(self.social_cost(loads))

    # ------------------------------------------------------------------
    def drop_resources(self, resources: Sequence[int]) -> "SingletonCongestionGame":
        """Return the game ``Gamma \\ M`` with the given links removed
        (used by the recursive Price-of-Imitation argument, Lemma 13)."""
        drop = set(int(r) for r in resources)
        keep = [idx for idx in range(self.num_resources) if idx not in drop]
        if not keep:
            raise GameDefinitionError("cannot drop all resources")
        return SingletonCongestionGame(
            self.num_players,
            [self.latencies[idx] for idx in keep],
            resource_names=[self.resource_names[idx] for idx in keep],
            name=f"{self.name}-minus-{sorted(drop)}",
            validate=False,
        )


def make_linear_singleton(
    num_players: int,
    coefficients: Sequence[float],
    *,
    name: str = "linear-singleton",
) -> SingletonCongestionGame:
    """Build a linear singleton game ``l_e(x) = a_e x`` from coefficients."""
    latencies = [LinearLatency(float(a), 0.0) for a in coefficients]
    return SingletonCongestionGame(num_players, latencies, name=name)


def make_scaled_singleton(
    num_players: int,
    base_latencies: Sequence[LatencyFunction],
    *,
    name: str = "scaled-singleton",
) -> SingletonCongestionGame:
    """Build the Theorem 9 family member with ``n`` players: every base
    latency ``l_e`` on ``[0, 1]`` is replaced by ``l_e^n(x) = l_e(x / n)``."""
    latencies = [scale_to_population(lat, num_players) for lat in base_latencies]
    return SingletonCongestionGame(num_players, latencies, name=f"{name}-n{num_players}",
                                   validate=False)

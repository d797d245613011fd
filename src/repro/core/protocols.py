"""Revision-protocol interface.

A *protocol* describes how a single player revises its strategy in one round,
given only the information the paper allows (its own latency, the latency it
would experience on a sampled alternative, and coarse structural constants of
the game such as the elasticity bound).  The concurrent round dynamics
(:mod:`repro.core.dynamics`) only need one quantity from a protocol: the
matrix of *switch probabilities*

``R[P, Q]`` = probability that one specific player currently on strategy
``P`` ends the round on strategy ``Q != P``,

which already folds together the sampling step (who/what is sampled) and the
migration step (the coin flip with probability ``mu_PQ``).  Because players
are exchangeable and revise independently, the number of players moving from
``P`` to each ``Q`` is then multinomial with these probabilities.

The batched ensemble engine (:mod:`repro.core.ensemble`) asks the same
question for ``R`` replicas at once: :meth:`Protocol.switch_probabilities_batch`
maps an ``(R, S)`` counts matrix to an ``(R, S, S)`` stack of switch
matrices.  The base class provides a correct (row-by-row) fallback so every
protocol works with the ensemble engine out of the box; the paper's
protocols override it with fully vectorised implementations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..games.base import CongestionGame
from ..games.evaluation import relative_gains
from ..games.state import BatchStateLike, StateLike

__all__ = ["KernelComponents", "Protocol", "SwitchProbabilities",
           "gain_matrices", "quiescent_mask"]


@dataclass(frozen=True)
class KernelComponents:
    """Flat parameter struct lowering a protocol for the native round kernel.

    Every protocol of the paper computes its switch probabilities as a
    weighted sum of components of one common shape:

    ``R[P, Q] = sum_c weights[c] * clip(factors[c] * relgain[P, Q], 0, 1)
                * 1[gain[P, Q] > thresholds[c]] * sampling_c[Q]``

    where ``relgain`` is the relative latency gain, the indicator applies
    the strict gain threshold, and the sampling distribution is either
    player-proportional (``sampling_kinds[c] = 0``:
    ``(x_Q + v_c) / (n + v_c * S)`` with ``v_c = sampling_virtual[c]``,
    covering plain/undamped/proportional imitation at ``v_c = 0`` and
    virtual-agent imitation at ``v_c > 0``) or uniform over strategies
    (``sampling_kinds[c] = 1``: ``1 / S``, the exploration protocol).
    Mixtures concatenate their components with scaled weights.  All arrays
    have one entry per component and plain numeric dtypes so nopython code
    can consume them directly.
    """

    weights: np.ndarray
    factors: np.ndarray
    thresholds: np.ndarray
    sampling_kinds: np.ndarray
    sampling_virtual: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "factors", np.asarray(self.factors, dtype=float))
        object.__setattr__(self, "thresholds",
                           np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "sampling_kinds",
                           np.asarray(self.sampling_kinds, dtype=np.int64))
        object.__setattr__(self, "sampling_virtual",
                           np.asarray(self.sampling_virtual, dtype=float))
        sizes = {arr.size for arr in (self.weights, self.factors,
                                      self.thresholds, self.sampling_kinds,
                                      self.sampling_virtual)}
        if len(sizes) != 1 or 0 in sizes:
            raise ProtocolError("kernel components need matching, non-empty arrays")

    @property
    def num_components(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class SwitchProbabilities:
    """Per-origin switch probabilities for one round.

    Attributes
    ----------
    matrix:
        ``(S, S)`` array; ``matrix[P, Q]`` is the probability that a player on
        ``P`` moves to ``Q`` this round.  The diagonal is zero, rows sum to at
        most 1 and the complement of the row sum is the probability of
        staying.
    gains:
        ``(S, S)`` array of anticipated latency gains
        ``l_P(x) - l_Q(x + 1_Q - 1_P)`` used to build the matrix (kept for
        diagnostics and the potential bookkeeping).
    """

    matrix: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ProtocolError("switch probability matrix must be square")
        if np.any(matrix < -1e-12):
            raise ProtocolError("switch probabilities must be non-negative")
        if np.any(np.diagonal(matrix) > 1e-12):
            raise ProtocolError("the diagonal of the switch matrix must be zero")
        row_sums = matrix.sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-9):
            raise ProtocolError("switch probabilities of an origin must sum to at most 1")
        object.__setattr__(self, "matrix", matrix)

    @property
    def stay_probabilities(self) -> np.ndarray:
        """Probability of staying on each origin strategy."""
        return np.clip(1.0 - self.matrix.sum(axis=1), 0.0, 1.0)

    def is_quiescent(self, counts: np.ndarray) -> bool:
        """True if no occupied strategy has any positive switch probability,
        i.e. the dynamics have stopped with probability 1."""
        occupied = np.asarray(counts) > 0
        if not np.any(occupied):
            return True
        return float(np.max(self.matrix[occupied])) <= 0.0


class Protocol(ABC):
    """Abstract revision protocol.

    Concrete protocols implement :meth:`switch_probabilities`; everything
    else (round sampling, trajectory bookkeeping) is protocol-agnostic.
    """

    #: Short name used in reports.
    name: str = "protocol"

    @abstractmethod
    def switch_probabilities(self, game: CongestionGame, state: StateLike) -> SwitchProbabilities:
        """Compute the per-origin switch probabilities in ``state``."""

    def switch_probabilities_batch(self, game: CongestionGame,
                                   batch: BatchStateLike) -> np.ndarray:
        """Switch matrices for a whole batch of states, shape ``(R, S, S)``.

        ``result[r]`` must equal ``switch_probabilities(game, batch[r]).matrix``
        for every replica ``r``.  The default implementation guarantees that
        by calling the scalar method row by row; protocols with vectorised
        formulas override it for speed (one broadcasted evaluation instead of
        ``R`` Python calls).

        ``batch`` is an ``(R, S)`` batch of states or the round's
        :class:`~repro.games.evaluation.BatchEvaluation` (what the ensemble
        engine passes); ``game.batch_evaluation(batch)`` accepts both.
        """
        counts = game.batch_evaluation(batch).counts
        return np.stack([
            self.switch_probabilities(game, row).matrix for row in counts
        ])

    def expected_migration(self, game: CongestionGame, state: StateLike) -> np.ndarray:
        """Expected migration matrix ``E[Delta x_{PQ}] = x_P * R[P, Q]``."""
        counts = game.validate_state(state)
        probabilities = self.switch_probabilities(game, state)
        return counts[:, np.newaxis] * probabilities.matrix

    def supports_game(self, game: CongestionGame) -> bool:
        """Hook for protocols that only apply to particular game classes."""
        return True

    def kernel_components(self, game: CongestionGame) -> Optional[KernelComponents]:
        """Lowered parameter struct for the native round kernel, or ``None``.

        Protocols whose switch probabilities fit the
        :class:`KernelComponents` form return it here (with all
        game-dependent constants — damping denominators, thresholds —
        already resolved against ``game``); protocols with bespoke math
        return ``None`` and the native backend refuses them with an
        actionable error instead of silently computing something else.
        """
        return None

    def describe(self) -> str:
        """Human-readable one-line description for experiment tables."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def relative_gain_matrix(latencies: np.ndarray, post_migration: np.ndarray) -> np.ndarray:
    """Relative gains ``(l_P - l_Q(x + 1_Q - 1_P)) / l_P`` with a safe zero
    where the current latency vanishes: ``(S,)`` latencies and ``(S, S)``
    post-migration latencies, or ``(R, S)`` and ``(R, S, S)``."""
    return relative_gains(latencies,
                          latencies[..., :, np.newaxis] - post_migration)


def gain_matrices(game: CongestionGame, counts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(gains, relative gains)`` of one validated state, each ``(S, S)``,
    from one strategy-latency and one post-migration evaluation (the scalar
    counterpart of the ``gains`` and ``relative_gains`` of a
    :class:`~repro.games.evaluation.BatchEvaluation`)."""
    latencies = game.strategy_latencies(counts)
    gains = latencies[:, np.newaxis] - game.post_migration_latency_matrix(counts)
    return gains, relative_gains(latencies, gains)


def zero_diagonal(matrices: np.ndarray) -> np.ndarray:
    """Zero the diagonal of every matrix in an ``(R, S, S)`` stack, in place."""
    np.einsum("...ii->...i", matrices)[...] = 0.0
    return matrices


def quiescent_mask(matrices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-replica quiescence: True where no occupied strategy of replica
    ``r`` has a positive switch probability (the batched analogue of
    :meth:`SwitchProbabilities.is_quiescent`)."""
    occupied = np.asarray(counts) > 0  # (R, S)
    row_max = np.max(matrices, axis=2)  # (R, S): best switch prob per origin
    return ~np.any(occupied & (row_max > 0.0), axis=1)

"""The IMITATION PROTOCOL (Protocol 1 of the paper).

In every round each player independently

1. samples another player uniformly at random (so strategy ``Q`` is sampled
   with probability ``x_Q / n``),
2. computes the anticipated latency gain
   ``l_P(x) - l_Q(x + 1_Q - 1_P)`` of adopting the sampled strategy, and
3. if the gain exceeds the slope threshold ``nu``, migrates with probability

   ``mu_PQ = (lambda / d) * (l_P(x) - l_Q(x + 1_Q - 1_P)) / l_P(x)``,

where ``d`` is an upper bound on the elasticity of the latency functions and
``lambda`` is a small constant.  The ``1/d`` damping is what prevents
overshooting (the paper's central design point); the ``nu`` threshold guards
against probabilistic fluctuations on almost-empty resources and can be
dropped for large singleton games (Theorem 9 and the remark after it).

This module also provides :class:`UndampedImitationProtocol`, the strawman
without the ``1/d`` factor that the paper argues overshoots — used by the
overshooting ablation (experiment E5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..games.base import CongestionGame
from ..games.state import BatchStateLike, StateLike
from .protocols import (
    KernelComponents,
    Protocol,
    SwitchProbabilities,
    gain_matrices,
    zero_diagonal,
)

__all__ = ["ImitationProtocol", "UndampedImitationProtocol", "DEFAULT_LAMBDA"]

#: Default damping constant.  The paper's proofs require a very small
#: constant (lambda < 1/512 and smaller in some cases); empirically the
#: dynamics remain monotone for much larger values, and the experiments use
#: this moderate default unless stated otherwise.
DEFAULT_LAMBDA = 0.25


class ImitationProtocol(Protocol):
    """Protocol 1 of the paper.

    Parameters
    ----------
    lambda_:
        Migration-probability constant ``lambda`` (must lie in ``(0, 1]``).
    use_nu_threshold:
        When True (default), a player only migrates if the anticipated gain
        strictly exceeds ``nu`` (the game's slope bound).  Theorem 9 shows
        the threshold can be dropped for large singleton games; setting this
        to False reproduces that variant.
    nu_override:
        Explicit value of ``nu`` to use instead of the game's
        :attr:`~repro.games.base.CongestionGame.nu_bound`.
    elasticity_override:
        Explicit value of ``d`` to use instead of the game's elasticity
        bound (clamped below at 1).
    """

    name = "imitation"

    def __init__(
        self,
        lambda_: float = DEFAULT_LAMBDA,
        *,
        use_nu_threshold: bool = True,
        nu_override: Optional[float] = None,
        elasticity_override: Optional[float] = None,
    ):
        if not 0.0 < lambda_ <= 1.0:
            raise ProtocolError("lambda must lie in (0, 1]")
        if nu_override is not None and nu_override < 0:
            raise ProtocolError("nu_override must be non-negative")
        if elasticity_override is not None and elasticity_override <= 0:
            raise ProtocolError("elasticity_override must be positive")
        self.lambda_ = float(lambda_)
        self.use_nu_threshold = bool(use_nu_threshold)
        self.nu_override = None if nu_override is None else float(nu_override)
        self.elasticity_override = (
            None if elasticity_override is None else float(elasticity_override)
        )

    # ------------------------------------------------------------------
    def effective_nu(self, game: CongestionGame) -> float:
        """The gain threshold actually applied to ``game``."""
        if not self.use_nu_threshold:
            return 0.0
        if self.nu_override is not None:
            return self.nu_override
        return game.nu_bound

    def effective_elasticity(self, game: CongestionGame) -> float:
        """The damping denominator ``d`` actually applied to ``game``."""
        if self.elasticity_override is not None:
            return max(1.0, self.elasticity_override)
        return game.elasticity_bound

    def _damped(self, game: CongestionGame, gains: np.ndarray,
                relative: np.ndarray) -> np.ndarray:
        """``mu_PQ`` from gain matrices of shape ``(..., S, S)``: the damped
        relative gain where the gain beats ``nu``, zero elsewhere and on the
        diagonal."""
        nu = self.effective_nu(game)
        d = self.effective_elasticity(game)
        mu = zero_diagonal(np.where(gains > nu, (self.lambda_ / d) * relative, 0.0))
        return np.clip(mu, 0.0, 1.0)

    def sampling_distribution(self, game: CongestionGame,
                              counts: np.ndarray) -> np.ndarray:
        """Probability of sampling each strategy, shape ``(S,)`` for one
        state or ``(R, S)`` for a batch."""
        return counts.astype(float) / game.num_players

    def migration_probabilities(self, game: CongestionGame, state: StateLike
                                ) -> np.ndarray:
        """The matrix ``mu_PQ`` (conditional on sampling ``Q``), zero where
        the gain threshold is not met."""
        return self._damped(game, *gain_matrices(game, game.validate_state(state)))

    def switch_probabilities(self, game: CongestionGame, state: StateLike
                             ) -> SwitchProbabilities:
        counts = game.validate_state(state)
        gains, relative = gain_matrices(game, counts)
        sampling = self.sampling_distribution(game, counts)
        matrix = self._damped(game, gains, relative) * sampling[np.newaxis, :]
        return SwitchProbabilities(matrix=matrix, gains=gains)

    # ------------------------------------------------------------------
    # Batched evaluation (ensemble engine)
    # ------------------------------------------------------------------
    def switch_probabilities_batch(self, game: CongestionGame,
                                   batch: BatchStateLike) -> np.ndarray:
        evaluation = game.batch_evaluation(batch)
        mu = self._damped(game, evaluation.gains, evaluation.relative_gains)
        sampling = self.sampling_distribution(game, evaluation.counts)
        return mu * sampling[:, np.newaxis, :]  # mu's zero diagonal stays zero

    def kernel_components(self, game: CongestionGame) -> KernelComponents:
        """One player-sampling component with the ``lambda/d`` damping and
        the effective ``nu`` threshold resolved against ``game``.

        :class:`UndampedImitationProtocol` (and the proportional-sampling
        baseline built on it) and
        :class:`~repro.core.virtual_agents.VirtualAgentImitationProtocol`
        inherit this lowering — they only change
        :meth:`effective_elasticity` respectively the virtual-agent count.
        """
        virtual = float(getattr(self, "virtual_agents_per_strategy", 0))
        return KernelComponents(
            weights=np.array([1.0]),
            factors=np.array([self.lambda_ / self.effective_elasticity(game)]),
            thresholds=np.array([self.effective_nu(game)]),
            sampling_kinds=np.array([0], dtype=np.int64),
            sampling_virtual=np.array([virtual]),
        )

    def describe(self) -> str:
        threshold = "nu-threshold" if self.use_nu_threshold else "no-threshold"
        return f"imitation(lambda={self.lambda_:g}, {threshold})"


class UndampedImitationProtocol(ImitationProtocol):
    """Imitation without the ``1/d`` damping factor.

    The migration probability is ``lambda * (l_P - l_Q(x+1_Q-1_P)) / l_P``
    regardless of the elasticity.  Section 2.3 of the paper shows this rule
    overshoots the balanced state by a factor ``Theta(d)`` on the two-link
    constant-versus-``x^d`` instance; experiment E5 reproduces that effect.
    """

    name = "imitation-undamped"

    def effective_elasticity(self, game: CongestionGame) -> float:
        return 1.0

    def describe(self) -> str:
        return f"imitation-undamped(lambda={self.lambda_:g})"

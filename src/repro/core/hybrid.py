"""Mixtures of revision protocols.

Section 6 of the paper suggests combining the IMITATION PROTOCOL with the
EXPLORATION PROTOCOL: with probability one half a player imitates, otherwise
it explores.  The combination inherits the fast approximate convergence of
imitation (up to a constant factor) while the exploration component
guarantees convergence to a Nash equilibrium in the long run because no
strategy can be permanently lost.

The mixture is expressed at the level of switch probabilities: if in every
round a player follows protocol ``k`` with probability ``w_k`` (independent
of the state and of the other players), the resulting switch-probability
matrix is simply the ``w``-weighted average of the component matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ProtocolError
from ..games.base import CongestionGame
from ..games.state import BatchStateLike, StateLike
from .exploration import ExplorationProtocol
from .imitation import DEFAULT_LAMBDA, ImitationProtocol
from .protocols import KernelComponents, Protocol, SwitchProbabilities

__all__ = ["MixtureProtocol", "make_hybrid_protocol"]


class MixtureProtocol(Protocol):
    """A convex combination of revision protocols.

    Parameters
    ----------
    components:
        The protocols being mixed.
    weights:
        Probability with which a player follows each component in a round;
        must be non-negative and sum to 1.
    """

    name = "mixture"

    def __init__(self, components: Sequence[Protocol], weights: Sequence[float]):
        if len(components) != len(weights) or not components:
            raise ProtocolError("need matching, non-empty components and weights")
        weight_array = np.asarray(list(weights), dtype=float)
        if not np.all(np.isfinite(weight_array)):
            raise ProtocolError(f"mixture weights must be finite, got {list(weights)}")
        if np.any(weight_array < 0):
            raise ProtocolError(f"mixture weights must be non-negative, got {list(weights)}")
        total = float(weight_array.sum())
        if abs(total - 1.0) > 1e-9:
            raise ProtocolError(f"mixture weights must sum to 1, got sum {total!r}")
        self.components = list(components)
        self.weights = weight_array

    def switch_probabilities(self, game: CongestionGame, state: StateLike
                             ) -> SwitchProbabilities:
        counts = game.validate_state(state)
        matrix = np.zeros((game.num_strategies, game.num_strategies))
        gains = None
        for weight, component in zip(self.weights, self.components):
            if weight == 0.0:
                continue
            probabilities = component.switch_probabilities(game, counts)
            matrix += weight * probabilities.matrix
            if gains is None:
                gains = probabilities.gains
        assert gains is not None
        return SwitchProbabilities(matrix=matrix, gains=gains)

    def switch_probabilities_batch(self, game: CongestionGame,
                                   batch: BatchStateLike) -> np.ndarray:
        """The mixture of batched switch matrices is the weighted sum of the
        components' batched matrices (same argument as the scalar case),
        accumulated into the first weighted matrix."""
        evaluation = game.batch_evaluation(batch)
        first, *rest = [weight * component.switch_probabilities_batch(game, evaluation)
                        for weight, component in zip(self.weights, self.components)
                        if weight != 0.0]
        for weighted in rest:
            first += weighted
        return first

    def kernel_components(self, game: CongestionGame):
        """Concatenation of the components' lowered structs with the mixture
        weights folded in; ``None`` if any (positive-weight) component has
        no kernel form — a mixture must lower completely or not at all."""
        parts = []
        for weight, component in zip(self.weights, self.components):
            if weight == 0.0:
                continue
            lowered = component.kernel_components(game)
            if lowered is None:
                return None
            parts.append((weight, lowered))
        return KernelComponents(
            weights=np.concatenate([w * k.weights for w, k in parts]),
            factors=np.concatenate([k.factors for _, k in parts]),
            thresholds=np.concatenate([k.thresholds for _, k in parts]),
            sampling_kinds=np.concatenate([k.sampling_kinds for _, k in parts]),
            sampling_virtual=np.concatenate([k.sampling_virtual for _, k in parts]),
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{weight:g}*{component.describe()}"
            for weight, component in zip(self.weights, self.components)
        )
        return f"mixture({parts})"


def make_hybrid_protocol(
    lambda_: float = DEFAULT_LAMBDA,
    *,
    imitation_weight: float = 0.5,
    use_nu_threshold: bool = True,
) -> MixtureProtocol:
    """The Section 6 half-and-half combination of imitation and exploration."""
    if not 0.0 <= imitation_weight <= 1.0:
        raise ProtocolError("imitation_weight must lie in [0, 1]")
    imitation = ImitationProtocol(lambda_, use_nu_threshold=use_nu_threshold)
    exploration = ExplorationProtocol(lambda_)
    return MixtureProtocol(
        [imitation, exploration],
        [imitation_weight, 1.0 - imitation_weight],
    )

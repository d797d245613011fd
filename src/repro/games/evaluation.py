"""One evaluation of a game at a batch of states, shared by its readers.

An ensemble round asks the same questions about the game several times: the
stop condition wants the strategy latencies and (for the Nash and
imitation-stability tests) the post-migration matrix, and the protocol wants
the same matrices again — once per component of a mixture.
:class:`BatchEvaluation` answers each question once.  Its attributes are
computed on first access through the game's public batch methods and cached:

* ``counts`` ``(R, S)`` — the states;
* ``loads`` ``(R, m)`` — resource congestion;
* ``latency_now`` / ``latency_plus`` ``(R, m)`` — resource latencies at
  ``x_e`` and ``x_e + 1``;
* ``strategy_latencies`` / ``strategy_latencies_plus`` ``(R, S)`` —
  ``l_P(x)`` and ``l_P(x + 1_P)``;
* ``post_migration`` ``(R, S, S)`` — ``l_Q(x + 1_Q - 1_P)``;
* ``gains`` / ``relative_gains`` ``(R, S, S)`` — ``l_P - M[P, Q]`` and that
  gain over ``l_P``.

The cached arrays are read-only: every reader sees the same ones.
:meth:`select` keeps a subset of the replicas (the engine's survivors of the
stop check) without evaluating anything again.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchEvaluation", "relative_gains"]


def relative_gains(latencies: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """``gains[..., P, Q] / latencies[..., P]``, zero where ``l_P`` vanishes."""
    origin = latencies[..., :, np.newaxis]
    return np.divide(gains, origin, out=np.zeros(gains.shape), where=origin > 0)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _cached:
    """A read-only array attribute computed on first access and then stored
    in the instance, which shadows this non-data descriptor.  Unlike
    :func:`functools.cached_property` on Python 3.11 it takes no lock: an
    evaluation belongs to one round of one engine."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = _frozen(self.compute(instance))
        return value


class BatchEvaluation:
    """The game evaluated once at an ``(R, S)`` batch of states.

    Build one with :meth:`~repro.games.base.CongestionGame.batch_evaluation`,
    which validates the states; the constructor trusts ``counts``.
    """

    def __init__(self, game, counts: np.ndarray):
        self.game = game
        self.counts = counts

    @property
    def num_replicas(self) -> int:
        return self.counts.shape[0]

    @_cached
    def loads(self) -> np.ndarray:
        return self.game.congestion_batch(self)

    @_cached
    def latency_now(self) -> np.ndarray:
        return self.game.resource_latencies_batch(self.loads)

    @_cached
    def latency_plus(self) -> np.ndarray:
        return self.game.resource_latencies_batch(self.loads + 1.0)

    @_cached
    def strategy_latencies(self) -> np.ndarray:
        return self.game.strategy_latencies_batch(self)

    @_cached
    def strategy_latencies_plus(self) -> np.ndarray:
        return self.game.strategy_latencies_after_join_batch(self)

    @_cached
    def post_migration(self) -> np.ndarray:
        return self.game.post_migration_latency_matrix_batch(self)

    @_cached
    def gains(self) -> np.ndarray:
        return self.strategy_latencies[:, :, np.newaxis] - self.post_migration

    @_cached
    def relative_gains(self) -> np.ndarray:
        return relative_gains(self.strategy_latencies, self.gains)

    def select(self, rows: np.ndarray) -> "BatchEvaluation":
        """The evaluation of the replicas ``rows`` (a mask or indices),
        keeping whatever has been computed so far."""
        selected = BatchEvaluation(self.game, self.counts[rows])
        for name, value in vars(self).items():
            if name not in ("game", "counts"):
                vars(selected)[name] = _frozen(value[rows])
        return selected

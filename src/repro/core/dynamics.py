"""The concurrent round engine.

One round of the concurrent dynamics works as follows (paper, Section 2.3):
every player simultaneously and independently applies the revision protocol,
which yields for a player on strategy ``P`` a probability ``R[P, Q]`` of
ending the round on strategy ``Q``.  Because players are exchangeable and
revise independently, the vector of players leaving ``P`` towards the
different destinations is exactly multinomially distributed with these
probabilities (plus the stay probability) — so the engine draws one
multinomial per occupied origin strategy instead of iterating over players.
This is an *exact* finite-population simulation of the protocol, not a
mean-field approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ConvergenceError, MetricError
from ..games.base import CongestionGame
from ..games.state import GameState, StateLike
from ..rng import RngLike, ensure_rng
from .metrics import MetricsCollector, RoundRecord
from .protocols import Protocol

#: A stopping condition receives ``(game, counts, round_index)`` and returns
#: True when the dynamics should stop *before* executing that round.
StopCondition = Callable[[CongestionGame, np.ndarray, int], bool]

__all__ = [
    "StopReason",
    "StepOutcome",
    "TrajectoryResult",
    "sample_migration_matrix",
    "sample_migration_matrices",
    "sample_migration_matrices_from_streams",
    "step",
    "ConcurrentDynamics",
]


class StopReason(str, Enum):
    """Why a dynamics run ended."""

    STOP_CONDITION = "stop-condition"
    QUIESCENT = "quiescent"
    MAX_ROUNDS = "max-rounds"


@dataclass(frozen=True)
class StepOutcome:
    """Result of a single concurrent round."""

    state: GameState
    migration_matrix: np.ndarray
    migrations: int


@dataclass
class TrajectoryResult:
    """Outcome of a full dynamics run.

    Attributes
    ----------
    final_state:
        State after the last executed round.
    rounds:
        Number of rounds executed (0 if the initial state already satisfied
        the stop condition).
    stop_reason:
        Why the run ended.
    records:
        Metric snapshots (at least the initial and final states when a
        collector was attached).
    total_migrations:
        Total number of player moves over the whole run.
    states:
        Full state history when requested (round 0 first).
    """

    final_state: GameState
    rounds: int
    stop_reason: StopReason
    records: list[RoundRecord] = field(default_factory=list)
    total_migrations: int = 0
    states: Optional[list[GameState]] = None

    def metric(self, name: str) -> np.ndarray:
        """One recorded metric as an array over recorded rounds.

        Raises :class:`~repro.errors.MetricError` (listing the valid names)
        when ``name`` is not a :class:`~repro.core.metrics.RoundRecord`
        field.
        """
        from .metrics import RoundRecord  # local import, avoids cycle

        valid = RoundRecord.__dataclass_fields__
        if name not in valid:
            raise MetricError(
                f"unknown metric {name!r}; valid metric names: {sorted(valid)}"
            )
        return np.array([getattr(record, name) for record in self.records], dtype=float)

    @property
    def converged(self) -> bool:
        """True unless the run ended by exhausting its round budget."""
        return self.stop_reason is not StopReason.MAX_ROUNDS


def _migration_rows(counts: np.ndarray, switch_matrices: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multinomial rows of one round: ``(rows_r, rows_p, probabilities)``
    for every occupied (replica, origin) row with positive leave
    probability, replica-major and origin-minor, each row
    ``(switch_matrices[r, P, :], stay)`` normalised on its own."""
    num_strategies = counts.shape[1]
    leave = switch_matrices.sum(axis=2)  # (R, S) total leave probability
    rows_r, rows_p = np.nonzero((counts > 0) & (leave > 0.0))
    probabilities = np.empty((rows_r.size, num_strategies + 1))
    probabilities[:, :num_strategies] = switch_matrices[rows_r, rows_p]
    probabilities[:, num_strategies] = np.maximum(0.0, 1.0 - leave[rows_r, rows_p])
    # Guard against tiny negative values / rounding drift.
    np.clip(probabilities, 0.0, None, out=probabilities)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    return rows_r, rows_p, probabilities


def _scatter_draws(shape: tuple[int, int], rows_r: np.ndarray, rows_p: np.ndarray,
                   draws: np.ndarray) -> np.ndarray:
    """Migration matrices ``(R, S, S)`` from the multinomial draws of
    :func:`_migration_rows`' rows."""
    replicas, num_strategies = shape
    migration = np.zeros((replicas, num_strategies, num_strategies), dtype=np.int64)
    draws[np.arange(rows_r.size), rows_p] = 0  # a player "moving" P -> P stays
    migration[rows_r, rows_p, :] = draws[:, :num_strategies]
    return migration


def _as_batch(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("batched sampling expects an (R, S) counts matrix")
    return counts


def sample_migration_matrices(
    counts: np.ndarray,
    switch_matrices: np.ndarray,
    rng: RngLike = None,
) -> np.ndarray:
    """Draw the random migration matrices of one round for a batch of states.

    ``counts`` has shape ``(R, S)`` and ``switch_matrices`` shape
    ``(R, S, S)``; the result ``M`` has shape ``(R, S, S)`` with
    ``M[r, P, Q]`` the number of players of replica ``r`` moving from ``P``
    to ``Q``.  For every occupied (replica, origin) row with positive leave
    probability the row ``(switch_matrices[r, P, :], stay)`` defines a
    multinomial over destinations; all such rows are drawn through **one**
    stacked :meth:`numpy.random.Generator.multinomial` call.  NumPy fills the
    stacked draw row by row (replica-major, origin-minor) from the same bit
    stream per-row calls would consume, so the draws are bit-for-bit
    identical to a per-origin loop for any fixed generator state — the
    invariant behind the loop/ensemble ``R = 1`` equivalence.
    """
    gen = ensure_rng(rng)
    counts = _as_batch(counts)
    rows_r, rows_p, probabilities = _migration_rows(counts, switch_matrices)
    if rows_r.size == 0:
        return np.zeros((*counts.shape, counts.shape[1]), dtype=np.int64)
    draws = gen.multinomial(counts[rows_r, rows_p], probabilities)
    return _scatter_draws(counts.shape, rows_r, rows_p, draws)


def sample_migration_matrices_from_streams(
    counts: np.ndarray,
    switch_matrices: np.ndarray,
    streams: Sequence[np.random.Generator],
) -> np.ndarray:
    """:func:`sample_migration_matrices` where replica ``r`` draws its rows
    from its own generator ``streams[r]``.

    Replica ``r``'s matrix is bit-identical to
    ``sample_migration_matrix(counts[r], switch_matrices[r], streams[r])``
    (same rows, same order, same stream); only the row preparation is
    shared across the batch.
    """
    counts = _as_batch(counts)
    rows_r, rows_p, probabilities = _migration_rows(counts, switch_matrices)
    totals = counts[rows_r, rows_p]
    bounds = np.searchsorted(rows_r, np.arange(counts.shape[0] + 1))
    draws = np.empty((rows_r.size, counts.shape[1] + 1), dtype=np.int64)
    for replica, stream in enumerate(streams):
        lo, hi = bounds[replica], bounds[replica + 1]
        if hi > lo:
            draws[lo:hi] = stream.multinomial(totals[lo:hi], probabilities[lo:hi])
    return _scatter_draws(counts.shape, rows_r, rows_p, draws)


def sample_migration_matrix(
    counts: np.ndarray,
    switch_matrix: np.ndarray,
    rng: RngLike = None,
) -> np.ndarray:
    """Draw the random migration matrix for one round (single state).

    The single-state view of :func:`sample_migration_matrices` — one shared
    implementation keeps the two engines' random streams identical by
    construction.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return sample_migration_matrices(
        counts[np.newaxis, :], np.asarray(switch_matrix)[np.newaxis, :, :], rng,
    )[0]


def step(
    game: CongestionGame,
    protocol: Protocol,
    state: StateLike,
    rng: RngLike = None,
) -> StepOutcome:
    """Execute one concurrent round of ``protocol`` on ``game``."""
    counts = game.validate_state(state)
    probabilities = protocol.switch_probabilities(game, counts)
    migration = sample_migration_matrix(counts, probabilities.matrix, rng)
    delta = migration.sum(axis=0) - migration.sum(axis=1)
    new_counts = counts + delta
    return StepOutcome(
        state=GameState(new_counts),
        migration_matrix=migration,
        migrations=int(migration.sum()),
    )


class ConcurrentDynamics:
    """Round-based concurrent dynamics of a revision protocol on a game.

    Parameters
    ----------
    game, protocol:
        The congestion game and the revision protocol every player applies.
    rng:
        Seed or generator for all randomness of the run.
    """

    def __init__(self, game: CongestionGame, protocol: Protocol, *, rng: RngLike = None):
        if not protocol.supports_game(game):
            raise ConvergenceError(
                f"protocol {protocol.describe()} does not support game {game.name}"
            )
        self.game = game
        self.protocol = protocol
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def run(
        self,
        initial_state: StateLike,
        *,
        max_rounds: int = 10_000,
        stop_condition: Optional[StopCondition] = None,
        stop_when_quiescent: bool = True,
        collector: Optional[MetricsCollector] = None,
        record_states: bool = False,
        strict: bool = False,
        trace=None,
    ) -> TrajectoryResult:
        """Run the dynamics from ``initial_state``.

        Parameters
        ----------
        max_rounds:
            Hard budget on the number of rounds.
        stop_condition:
            Optional predicate ``(game, counts, round) -> bool`` evaluated
            before each round (and before round 0, so a satisfying initial
            state stops immediately with ``rounds = 0``).
        stop_when_quiescent:
            Stop when no occupied strategy has a positive switch probability
            (the protocol can never move again — an imitation-stable state
            for the IMITATION PROTOCOL).
        collector:
            Optional :class:`MetricsCollector`; the initial and final states
            are always recorded, intermediate rounds according to the
            collector's ``every`` setting.
        record_states:
            Keep the full state history (memory-heavy for long runs).
        strict:
            Raise :class:`ConvergenceError` when the round budget runs out
            before the stop condition is met.
        trace:
            Optional :class:`repro.telemetry.RoundTracer` emitting one JSONL
            event per round.  Consumes no randomness — traced runs are
            bit-identical to untraced ones (docs/OBSERVABILITY.md).
        """
        counts = self.game.validate_state(initial_state).copy()
        states: Optional[list[GameState]] = [GameState(counts)] if record_states else None
        if collector is not None:
            collector.record(0, counts, migrations=0)
        if trace is not None:
            trace.run_started(self.game, engine="loop", replicas=1,
                              max_rounds=max_rounds)

        total_migrations = 0
        rounds = 0
        reason = StopReason.MAX_ROUNDS
        for round_index in range(max_rounds):
            if stop_condition is not None and stop_condition(self.game, counts, round_index):
                reason = StopReason.STOP_CONDITION
                break
            probabilities = self.protocol.switch_probabilities(self.game, counts)
            if stop_when_quiescent and probabilities.is_quiescent(counts):
                reason = StopReason.QUIESCENT
                break
            migration = sample_migration_matrix(counts, probabilities.matrix, self.rng)
            delta = migration.sum(axis=0) - migration.sum(axis=1)
            counts = counts + delta
            moves = int(migration.sum())
            total_migrations += moves
            rounds = round_index + 1
            if trace is not None:
                trace.round_completed(self.game, counts, None, rounds, moves)
            if collector is not None and collector.should_record(rounds):
                collector.record(rounds, counts, migrations=moves)
            if record_states and states is not None:
                states.append(GameState(counts))
        else:
            # Budget exhausted without hitting the stop condition.
            if stop_condition is not None and stop_condition(self.game, counts, max_rounds):
                reason = StopReason.STOP_CONDITION
            elif strict:
                raise ConvergenceError(
                    f"dynamics did not stop within {max_rounds} rounds"
                )

        if collector is not None and (not collector.records
                                      or collector.records[-1].round_index != rounds):
            collector.record(rounds, counts, migrations=0)
        if trace is not None:
            trace.run_finished(self.game, counts, None, rounds=rounds,
                               total_migrations=total_migrations,
                               converged=reason is not StopReason.MAX_ROUNDS)

        return TrajectoryResult(
            final_state=GameState(counts),
            rounds=rounds,
            stop_reason=reason,
            records=collector.records if collector is not None else [],
            total_migrations=total_migrations,
            states=states,
        )

"""Tests of the batched ensemble engine and the batch state layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_imitation_stable_times
from repro.core.dynamics import (
    ConcurrentDynamics,
    StopReason,
    sample_migration_matrices_from_streams,
    sample_migration_matrix,
)
from repro.core.ensemble import (
    EnsembleCollector,
    EnsembleDynamics,
    batch_stop_at_approx_equilibrium,
    batch_stop_at_imitation_stable,
    batch_stop_at_nash,
    batch_stop_from_scalar,
    sample_migration_matrices,
    simulate_ensemble,
)
from repro.core.exploration import ExplorationProtocol
from repro.core.hybrid import make_hybrid_protocol
from repro.core.imitation import ImitationProtocol
from repro.core.protocols import quiescent_mask
from repro.core.stability import is_approx_equilibrium, is_imitation_stable
from repro.errors import ConvergenceError, MetricError, StateError
from repro.games.evaluation import BatchEvaluation
from repro.games.generators import random_linear_singleton, random_monomial_singleton
from repro.games.nash import is_nash
from repro.games.network import braess_network_game
from repro.games.singleton import make_linear_singleton
from repro.games.state import (
    BatchGameState,
    GameState,
    as_batch_counts,
    batch_broadcast,
    batch_from_states,
    batch_uniform_random_counts,
)
from repro.rng import spawn_rngs


class TestBatchGameState:
    def test_basic_properties(self):
        batch = BatchGameState([[3, 1, 0], [0, 2, 2]])
        assert batch.num_replicas == 2
        assert batch.num_strategies == 3
        assert batch.players_per_replica.tolist() == [4, 4]
        assert batch.support_sizes.tolist() == [2, 2]
        assert batch.replica(0) == GameState([3, 1, 0])
        assert [state.counts.tolist() for state in batch] == [[3, 1, 0], [0, 2, 2]]

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(StateError):
            BatchGameState([1, 2, 3])
        with pytest.raises(StateError):
            BatchGameState([[1, -2]])
        with pytest.raises(StateError):
            BatchGameState(np.zeros((0, 3), dtype=np.int64))

    def test_counts_are_read_only(self):
        batch = BatchGameState([[1, 2]])
        with pytest.raises(ValueError):
            batch.counts[0, 0] = 5

    def test_equality_and_hash(self):
        a = BatchGameState([[1, 2], [2, 1]])
        b = BatchGameState(np.array([[1, 2], [2, 1]]))
        assert a == b and hash(a) == hash(b)
        assert a != BatchGameState([[2, 1], [1, 2]])


class TestBatchCoercion:
    def test_as_batch_counts_accepts_all_layouts(self):
        assert as_batch_counts(GameState([1, 2])).shape == (1, 2)
        assert as_batch_counts(np.array([1, 2])).shape == (1, 2)
        assert as_batch_counts([[1, 2], [0, 3]]).shape == (2, 2)
        assert as_batch_counts([GameState([1, 2]), [3, 0]]).shape == (2, 2)

    def test_as_batch_counts_rejects_mixed_lengths(self):
        with pytest.raises(StateError):
            as_batch_counts([GameState([1, 2]), [1, 2, 3]])
        with pytest.raises(StateError):
            as_batch_counts([])

    def test_batch_from_states_and_broadcast(self):
        batch = batch_from_states([GameState([2, 0]), GameState([1, 1])])
        assert batch.counts.tolist() == [[2, 0], [1, 1]]
        tiled = batch_broadcast([4, 1], 3)
        assert tiled.counts.tolist() == [[4, 1]] * 3

    def test_validate_batch_state_checks_every_row(self, linear_singleton):
        good = linear_singleton.uniform_random_batch_state(4, rng=0)
        assert linear_singleton.validate_batch_state(good).shape == (4, 3)
        bad = good.to_array()
        bad[2, 0] += 1
        with pytest.raises(StateError, match="replica 2"):
            linear_singleton.validate_batch_state(bad)

    def test_batch_uniform_random_matches_sequential_draws(self):
        batch = batch_uniform_random_counts(50, 4, 5, rng=7)
        gen = np.random.default_rng(7)
        rows = [gen.multinomial(50, np.full(4, 0.25)) for _ in range(5)]
        assert np.array_equal(batch, np.stack(rows))


class TestBatchedSampling:
    @pytest.mark.parametrize("seed", range(5))
    def test_conserves_players_per_replica(self, seed):
        game = random_monomial_singleton(120, 6, 2.0, rng=seed)
        protocol = ImitationProtocol(use_nu_threshold=False)
        batch = game.uniform_random_batch_state(8, rng=seed)
        counts = batch.to_array()
        matrices = protocol.switch_probabilities_batch(game, counts)
        migration = sample_migration_matrices(counts, matrices, np.random.default_rng(seed))
        delta = migration.sum(axis=1) - migration.sum(axis=2)
        new_counts = counts + delta
        assert np.all(new_counts >= 0)
        assert np.all(new_counts.sum(axis=1) == game.num_players)
        assert np.all(migration.sum(axis=2) <= counts)

    def test_single_replica_matches_scalar_sampler(self):
        game = random_linear_singleton(300, 10, rng=3)
        protocol = ImitationProtocol(use_nu_threshold=False)
        state = game.uniform_random_state(1)
        matrix = protocol.switch_probabilities(game, state).matrix
        batched = sample_migration_matrices(
            state.counts[np.newaxis, :], matrix[np.newaxis, :, :],
            np.random.default_rng(11),
        )
        scalar = sample_migration_matrix(state.counts, matrix, np.random.default_rng(11))
        assert np.array_equal(batched[0], scalar)


class TestEnsembleDynamics:
    def test_r1_matches_loop_engine_over_50_seeds(self):
        game = random_linear_singleton(150, 5, rng=0)
        for seed in range(50):
            start = game.uniform_random_state(np.random.default_rng(seed))
            loop = ConcurrentDynamics(game, ImitationProtocol(), rng=seed).run(
                start, max_rounds=3_000)
            batched = EnsembleDynamics(game, ImitationProtocol(), rng=seed).run_single(
                start, max_rounds=3_000)
            assert batched.stop_reason == loop.stop_reason
            assert batched.rounds == loop.rounds
            assert np.array_equal(batched.final_state.counts, loop.final_state.counts)
            assert batched.total_migrations == loop.total_migrations

    def test_batch_and_loop_hitting_times_statistically_equivalent(self):
        """Acceptance check: the two engines sample the same hitting-time
        distribution (means within a few combined standard errors)."""
        def factory():
            return random_linear_singleton(200, 6, rng=42)

        protocol = ImitationProtocol()
        batch = measure_imitation_stable_times(
            factory, protocol, trials=48, max_rounds=10_000, rng=5, engine="batch")
        loop = measure_imitation_stable_times(
            factory, protocol, trials=48, max_rounds=10_000, rng=5, engine="loop")
        assert batch.censored == 0 and loop.censored == 0
        stderr = np.hypot(batch.summary.std / np.sqrt(48), loop.summary.std / np.sqrt(48))
        assert abs(batch.summary.mean - loop.summary.mean) <= 4.0 * max(stderr, 1e-9)

    def test_every_replica_conserves_players(self):
        game = random_monomial_singleton(90, 5, 3.0, rng=2)
        result = simulate_ensemble(
            game, ImitationProtocol(use_nu_threshold=False), replicas=12, rounds=200, rng=8)
        assert np.all(result.final_states.players_per_replica == game.num_players)
        assert result.rounds.shape == (12,)
        assert len(result.stop_reasons) == 12

    def test_stop_condition_retires_replicas_independently(self):
        game = random_linear_singleton(100, 4, rng=9)
        result = EnsembleDynamics(game, ImitationProtocol(), rng=9).run(
            replicas=16, max_rounds=10_000,
            stop_condition=batch_stop_at_approx_equilibrium(0.25, 0.25),
        )
        stopped = [reason is StopReason.STOP_CONDITION for reason in result.stop_reasons]
        assert any(stopped)
        for index, was_stopped in enumerate(stopped):
            if was_stopped:
                assert is_approx_equilibrium(
                    game, result.final_states.replica(index), 0.25, 0.25)

    def test_batch_stops_agree_with_scalar_predicates(self):
        game = random_linear_singleton(80, 5, rng=12)
        counts = game.uniform_random_batch_state(20, rng=13).counts
        approx = batch_stop_at_approx_equilibrium(0.2, 0.2)(game, counts, 0)
        stable = batch_stop_at_imitation_stable()(game, counts, 0)
        nash = batch_stop_at_nash()(game, counts, 0)
        scalar = batch_stop_from_scalar(
            lambda g, row, i: is_imitation_stable(g, row))(game, counts, 0)
        for row in range(20):
            assert approx[row] == is_approx_equilibrium(game, counts[row], 0.2, 0.2)
            assert stable[row] == is_imitation_stable(game, counts[row])
            assert nash[row] == is_nash(game, counts[row])
            assert scalar[row] == stable[row]

    def test_quiescent_all_on_one_start(self, linear_singleton):
        start = batch_broadcast(linear_singleton.all_on_one_state(0), 4)
        result = EnsembleDynamics(linear_singleton, ImitationProtocol(), rng=0).run(
            start, max_rounds=100)
        assert all(reason is StopReason.QUIESCENT for reason in result.stop_reasons)
        assert np.all(result.rounds == 0)

    def test_strict_raises_on_budget_exhaustion(self):
        game = random_linear_singleton(60, 4, rng=14)
        dynamics = EnsembleDynamics(game, ExplorationProtocol(), rng=14)
        with pytest.raises(ConvergenceError):
            dynamics.run(replicas=4, max_rounds=1,
                         stop_condition=batch_stop_at_nash(), strict=True)

    def test_replica_count_validation(self, linear_singleton):
        dynamics = EnsembleDynamics(linear_singleton, ImitationProtocol(), rng=0)
        with pytest.raises(ValueError):
            dynamics.run(replicas=0, max_rounds=5)
        start = linear_singleton.uniform_random_batch_state(3, rng=0)
        with pytest.raises(ValueError):
            dynamics.run(start, replicas=5, max_rounds=5)

    def test_observer_sees_every_executed_round(self):
        game = random_linear_singleton(120, 5, rng=15)
        seen: list[int] = []

        def observer(game_, counts, indices, round_index):
            seen.append(round_index)
            assert counts.shape == (6, game.num_strategies)
            assert indices.size >= 1

        result = EnsembleDynamics(game, ImitationProtocol(), rng=15).run(
            replicas=6, max_rounds=50, observer=observer)
        assert len(seen) == int(result.rounds.max())
        assert seen == sorted(seen)


class TestEnsembleCollectorAndResult:
    def test_traces_have_batch_shape(self):
        game = random_linear_singleton(100, 4, rng=16)
        collector = EnsembleCollector(game, metrics=("potential", "makespan"), every=2)
        result = simulate_ensemble(
            game, ImitationProtocol(), replicas=5, rounds=40, rng=16, collector=collector)
        trace = result.metric("potential")
        assert trace.shape == (len(result.trace_rounds), 5)
        assert result.metric("makespan").shape == trace.shape
        assert result.metric("migrations").shape == trace.shape
        # the potential trace starts at round 0 for every replica
        assert result.trace_rounds[0] == 0

    def test_unknown_metric_raises_metric_error(self):
        game = random_linear_singleton(50, 3, rng=17)
        with pytest.raises(MetricError, match="valid"):
            EnsembleCollector(game, metrics=("potental",))
        result = simulate_ensemble(game, ImitationProtocol(), replicas=2, rounds=5, rng=17)
        with pytest.raises(MetricError):
            result.metric("potential")  # no collector attached -> not recorded

    def test_replica_bridge_returns_trajectory_result(self):
        game = random_linear_singleton(70, 4, rng=18)
        result = simulate_ensemble(game, ImitationProtocol(), replicas=3, rounds=100, rng=18)
        single = result.replica(1)
        assert single.rounds == int(result.rounds[1])
        assert single.stop_reason is result.stop_reasons[1]
        assert single.final_state == result.final_states.replica(1)


class TestPerReplicaStreams:
    """rng_streams mode: every replica's trajectory is bit-identical to a
    ConcurrentDynamics run on the same generator."""

    def test_streams_reproduce_loop_trajectories(self):
        from repro.core.run import stop_at_approx_equilibrium
        from repro.rng import spawn_rngs

        game = random_linear_singleton(80, 5, rng=4)
        protocol = ImitationProtocol(use_nu_threshold=False)
        starts = game.uniform_random_batch_state(6, rng=8).to_array()
        stop = stop_at_approx_equilibrium(0.2, 0.2)

        batch_streams = spawn_rngs(17, 6)
        dynamics = EnsembleDynamics(game, protocol, rng=0)
        ensemble = dynamics.run(
            starts, max_rounds=300,
            stop_condition=batch_stop_from_scalar(stop),
            rng_streams=batch_streams,
        )
        loop_streams = spawn_rngs(17, 6)
        for replica, generator in enumerate(loop_streams):
            loop = ConcurrentDynamics(game, protocol, rng=generator).run(
                starts[replica], max_rounds=300, stop_condition=stop,
            )
            assert loop.rounds == int(ensemble.rounds[replica])
            assert np.array_equal(loop.final_state.counts,
                                  ensemble.final_states.to_array()[replica])
            assert (loop.stop_reason is StopReason.MAX_ROUNDS) != ensemble.converged[replica]

    def test_streams_require_initial_states(self):
        from repro.rng import spawn_rngs

        game = random_linear_singleton(20, 3, rng=1)
        dynamics = EnsembleDynamics(game, ImitationProtocol(), rng=0)
        with pytest.raises(ValueError, match="initial_states"):
            dynamics.run(replicas=2, rng_streams=spawn_rngs(0, 2))

    def test_streams_length_must_match_replicas(self):
        from repro.rng import spawn_rngs

        game = random_linear_singleton(20, 3, rng=1)
        starts = game.uniform_random_batch_state(3, rng=2).to_array()
        dynamics = EnsembleDynamics(game, ImitationProtocol(), rng=0)
        with pytest.raises(ValueError, match="rng_streams"):
            dynamics.run(starts, rng_streams=spawn_rngs(0, 2))
        # the sampler itself: a replica without a stream would otherwise
        # get uninitialised memory as its migration counts
        matrices = ImitationProtocol().switch_probabilities_batch(game, starts)
        with pytest.raises(ValueError, match="2 streams for 3 replicas"):
            sample_migration_matrices_from_streams(starts, matrices, spawn_rngs(0, 2))


def reference_run(game, protocol, start, *, rng=None, rng_streams=None,
                  max_rounds=10_000, stop_condition=None,
                  stop_when_quiescent=True, observer=None, collector=None):
    """The batch engine's round loop written from public pieces: a full
    ``(R, S)`` counts matrix with an active mask, one
    :class:`BatchEvaluation` per round, :func:`quiescent_mask` for
    quiescence and the public samplers for the draw."""
    counts = game.validate_batch_state(start).copy()
    num_replicas = counts.shape[0]
    rounds = np.zeros(num_replicas, dtype=np.int64)
    total_migrations = np.zeros(num_replicas, dtype=np.int64)
    reasons = [StopReason.MAX_ROUNDS] * num_replicas
    active = np.ones(num_replicas, dtype=bool)

    def stop_check(evaluation, round_index):
        reads = getattr(stop_condition, "reads_evaluation", False)
        return np.asarray(stop_condition(
            game, evaluation if reads else evaluation.counts, round_index))

    if collector is not None:
        collector.record(0, counts)
    last_recorded = 0
    for round_index in range(max_rounds):
        if not active.any():
            break
        indices = np.nonzero(active)[0]
        evaluation = BatchEvaluation(game, counts[indices])
        if stop_condition is not None:
            stopped = stop_check(evaluation, round_index)
            for replica in indices[stopped]:
                reasons[replica] = StopReason.STOP_CONDITION
            active[indices[stopped]] = False
            indices = indices[~stopped]
            if indices.size == 0:
                continue
            evaluation = evaluation.select(~stopped)
        matrices = protocol.switch_probabilities_batch(game, evaluation)
        if stop_when_quiescent:
            quiet = quiescent_mask(matrices, counts[indices])
            for replica in indices[quiet]:
                reasons[replica] = StopReason.QUIESCENT
            active[indices[quiet]] = False
            indices = indices[~quiet]
            matrices = matrices[~quiet]
            if indices.size == 0:
                continue
        if rng_streams is None:
            migration = sample_migration_matrices(counts[indices], matrices, rng)
        else:
            migration = sample_migration_matrices_from_streams(
                counts[indices], matrices, [rng_streams[r] for r in indices])
        counts[indices] += migration.sum(axis=1) - migration.sum(axis=2)
        rounds[indices] = round_index + 1
        moves = migration.sum(axis=(1, 2))
        total_migrations[indices] += moves
        if observer is not None:
            observer(game, counts, indices, round_index + 1)
        if collector is not None and collector.should_record(round_index + 1):
            all_moves = np.zeros(num_replicas, dtype=np.int64)
            all_moves[indices] = moves
            collector.record(round_index + 1, counts, migrations=all_moves)
            last_recorded = round_index + 1
    else:
        indices = np.nonzero(active)[0]
        if indices.size and stop_condition is not None:
            evaluation = BatchEvaluation(game, counts[indices])
            for replica in indices[stop_check(evaluation, max_rounds)]:
                reasons[replica] = StopReason.STOP_CONDITION
    if collector is not None and last_recorded != rounds.max():
        collector.record(int(rounds.max()), counts)
    return counts, rounds, reasons, total_migrations


class TestEngineEqualsReferenceRound:
    """``EnsembleDynamics.run`` equals :func:`reference_run` bit for bit in
    final states, rounds, stop reasons and migration totals.  Both sides run
    in this process on generators with the same seed, so the check holds
    whatever numpy's streams are."""

    @staticmethod
    def assert_same(game, protocol, start, seed, *, streams=0, **kwargs):
        """Run both sides on generators seeded with ``seed``: the shared
        one, or with ``streams > 0`` one per replica."""
        def randomness():
            if streams:
                return {"rng_streams": spawn_rngs(seed, streams)}
            return {"rng": np.random.default_rng(seed)}

        engine_randomness = randomness()
        engine = EnsembleDynamics(
            game, protocol, rng=engine_randomness.pop("rng", None)).run(
            start, **engine_randomness, **kwargs)
        counts, rounds, reasons, moves = reference_run(
            game, protocol, start, **randomness(), **kwargs)
        np.testing.assert_array_equal(engine.final_states.counts, counts)
        np.testing.assert_array_equal(engine.rounds, rounds)
        assert engine.stop_reasons == reasons
        np.testing.assert_array_equal(engine.total_migrations, moves)
        return engine

    def test_singleton_nash_hybrid(self):
        game = make_linear_singleton(40, (1.0, 2.0, 4.0, 8.0))
        start = batch_broadcast(GameState(np.array([0, 0, 0, 40])), 16)
        for seed in range(3):
            result = self.assert_same(
                game, make_hybrid_protocol(use_nu_threshold=False), start, seed,
                max_rounds=30_000, stop_condition=batch_stop_at_nash())
            assert set(result.stop_reasons) == {StopReason.STOP_CONDITION}

    def test_quiescent_and_stopped_replicas_retire_in_the_same_round(self):
        game = random_linear_singleton(60, 5, rng=2)
        stacked = np.concatenate([
            batch_broadcast(GameState(np.array([60, 0, 0, 0, 0])), 2).counts,
            batch_broadcast(GameState(np.array([0, 60, 0, 0, 0])), 2).counts,
            game.uniform_random_batch_state(12, rng=9).counts,
        ])

        def everyone_on_link_0(game, counts, round_index):
            return counts[:, 0] == game.num_players

        result = self.assert_same(game, ImitationProtocol(), stacked, 5,
                                  max_rounds=2_000,
                                  stop_condition=everyone_on_link_0)
        assert result.stop_reasons[:4] == [StopReason.STOP_CONDITION] * 2 \
            + [StopReason.QUIESCENT] * 2
        assert result.rounds[:4].tolist() == [0, 0, 0, 0]
        assert result.rounds[4:].max() > 0

    def test_braess_network_game(self):
        game = braess_network_game(30)
        start = game.uniform_random_batch_state(8, rng=3)
        for stop in (batch_stop_at_imitation_stable(), None):
            self.assert_same(game, make_hybrid_protocol(), start, 4,
                             max_rounds=200, stop_condition=stop)

    def test_rng_streams(self):
        game = random_linear_singleton(80, 4, rng=1)
        start = game.uniform_random_batch_state(6, rng=2)
        self.assert_same(game, ImitationProtocol(), start, 7, streams=6,
                         max_rounds=500,
                         stop_condition=batch_stop_at_approx_equilibrium(0.05, 0.05))

    def test_observer_and_collector_see_the_full_matrix(self):
        game = random_linear_singleton(50, 4, rng=6)
        start = game.uniform_random_batch_state(10, rng=8)
        stop = batch_stop_at_approx_equilibrium(0.1, 0.1)
        sides = {}
        for side in ("engine", "reference"):
            seen = []

            def observer(game, counts, indices, round_index, seen=seen):
                assert counts.shape == (10, 4)
                seen.append((counts.copy(), indices.copy(), round_index))

            collector = EnsembleCollector(game, every=3)
            kwargs = dict(max_rounds=400, stop_condition=stop,
                          observer=observer, collector=collector)
            if side == "engine":
                result = EnsembleDynamics(game, ExplorationProtocol(),
                                          rng=np.random.default_rng(12)).run(
                    start, **kwargs)
                final = result.final_states.counts
            else:
                final = reference_run(game, ExplorationProtocol(), start,
                                      rng=np.random.default_rng(12), **kwargs)[0]
            sides[side] = (seen, collector, final)
        (seen, collector, final), (ref_seen, ref_collector, ref_final) = \
            sides["engine"], sides["reference"]
        np.testing.assert_array_equal(final, ref_final)
        assert len(seen) == len(ref_seen) > 1
        for (counts, indices, round_index), (ref_counts, ref_indices, ref_round) \
                in zip(seen, ref_seen):
            np.testing.assert_array_equal(counts, ref_counts)
            np.testing.assert_array_equal(indices, ref_indices)
            assert round_index == ref_round
            # a replica missing from the round's indices has retired: its
            # row is already its final state
            retired = np.setdiff1d(np.arange(10), indices)
            np.testing.assert_array_equal(counts[retired], final[retired])
        assert collector.rounds == ref_collector.rounds
        for name, trace in collector.traces().items():
            np.testing.assert_array_equal(trace, ref_collector.trace(name))

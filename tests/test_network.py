"""Unit tests for network congestion games and topology generators."""

from __future__ import annotations

import math
import sys

import networkx as nx
import numpy as np
import pytest

from repro.errors import GameDefinitionError
from repro.games.latency import ConstantLatency, LinearLatency, ZeroLatency
from repro.games.network import (
    NetworkCongestionGame,
    braess_network_game,
    grid_network_game,
    layered_random_network_game,
    parallel_links_network_game,
    series_parallel_network_game,
)
from repro.games.singleton import SingletonCongestionGame


def diamond_graph() -> tuple[nx.DiGraph, dict]:
    """s -> a -> t and s -> b -> t."""
    graph = nx.DiGraph()
    latencies = {
        ("s", "a"): LinearLatency(1.0, 0.0),
        ("a", "t"): LinearLatency(1.0, 0.0),
        ("s", "b"): ConstantLatency(3.0),
        ("b", "t"): ConstantLatency(3.0),
    }
    graph.add_edges_from(latencies.keys())
    return graph, latencies


class TestNetworkCongestionGame:
    def test_path_enumeration(self):
        graph, latencies = diamond_graph()
        game = NetworkCongestionGame(graph, "s", "t", 4, edge_latencies=latencies)
        assert game.num_strategies == 2
        assert sorted(game.paths) == [("s", "a", "t"), ("s", "b", "t")]

    def test_strategy_latency_sums_edges(self):
        graph, latencies = diamond_graph()
        game = NetworkCongestionGame(graph, "s", "t", 4, edge_latencies=latencies)
        upper = game.strategy_names.index("s->a->t")
        # 3 players on the upper path: latency 3 + 3 = 6
        counts = np.zeros(2, dtype=int)
        counts[upper] = 3
        counts[1 - upper] = 1
        assert game.strategy_latencies(counts)[upper] == pytest.approx(6.0)

    def test_edge_congestion_mapping(self):
        graph, latencies = diamond_graph()
        game = NetworkCongestionGame(graph, "s", "t", 4, edge_latencies=latencies)
        upper = game.strategy_names.index("s->a->t")
        counts = np.zeros(2, dtype=int)
        counts[upper] = 4
        congestion = game.edge_congestion(counts)
        assert congestion[("s", "a")] == 4.0
        assert congestion[("s", "b")] == 0.0

    def test_missing_latency_rejected(self):
        graph, latencies = diamond_graph()
        latencies.pop(("s", "a"))
        with pytest.raises(GameDefinitionError):
            NetworkCongestionGame(graph, "s", "t", 4, edge_latencies=latencies)

    def test_unreachable_sink_rejected(self):
        graph = nx.DiGraph()
        graph.add_edge("s", "a", latency=LinearLatency(1.0, 0.0))
        graph.add_node("t")
        with pytest.raises(GameDefinitionError):
            NetworkCongestionGame(graph, "s", "t", 2)

    def test_source_equals_sink_rejected(self):
        graph, latencies = diamond_graph()
        with pytest.raises(GameDefinitionError):
            NetworkCongestionGame(graph, "s", "s", 2, edge_latencies=latencies)

    def test_max_paths_cap_enforced(self):
        graph, latencies = diamond_graph()
        with pytest.raises(GameDefinitionError):
            NetworkCongestionGame(graph, "s", "t", 2, edge_latencies=latencies, max_paths=1)

    def test_latency_attribute_on_edges(self):
        graph = nx.DiGraph()
        graph.add_edge("s", "t", latency=LinearLatency(1.0, 0.0))
        game = NetworkCongestionGame(graph, "s", "t", 3)
        assert game.num_strategies == 1


class TestGenerators:
    def test_parallel_links_matches_singleton_structure(self):
        game = parallel_links_network_game(10, [LinearLatency(1.0, 0.0), LinearLatency(2.0, 0.0)])
        assert game.num_strategies == 2
        # every strategy has one real link plus one zero-latency connector
        latencies = game.strategy_latencies([5, 5])
        assert latencies[0] == pytest.approx(5.0)
        assert latencies[1] == pytest.approx(10.0)

    def test_braess_with_shortcut_has_three_paths(self):
        game = braess_network_game(10, with_shortcut=True)
        assert game.num_strategies == 3

    def test_braess_without_shortcut_has_two_paths(self):
        game = braess_network_game(10, with_shortcut=False)
        assert game.num_strategies == 2

    def test_grid_path_count(self):
        game = grid_network_game(5, rows=2, cols=3, rng=0)
        assert game.num_strategies == math.comb(2 + 3 - 2, 1)

    def test_grid_strategy_lengths(self):
        game = grid_network_game(5, rows=2, cols=3, rng=0)
        # every monotone path in a 2x3 grid uses rows+cols-2 = 3 edges
        assert all(len(s) == 3 for s in game.strategies)

    def test_layered_random_network_connected(self):
        game = layered_random_network_game(8, layers=2, width=3, rng=7)
        assert game.num_strategies >= 1
        assert game.num_players == 8

    def test_layered_random_network_reproducible(self):
        game_a = layered_random_network_game(8, layers=2, width=3, rng=11)
        game_b = layered_random_network_game(8, layers=2, width=3, rng=11)
        assert game_a.num_strategies == game_b.num_strategies
        assert game_a.num_resources == game_b.num_resources

    def test_series_parallel_strategy_count(self):
        game = series_parallel_network_game(6, blocks=2, links_per_block=3, rng=0)
        assert game.num_strategies == 9
        assert all(len(strategy) == 4 for strategy in game.strategies)

    def test_generators_reject_bad_parameters(self):
        with pytest.raises(GameDefinitionError):
            grid_network_game(5, rows=0, cols=3)
        with pytest.raises(GameDefinitionError):
            layered_random_network_game(5, layers=0)
        with pytest.raises(GameDefinitionError):
            series_parallel_network_game(5, blocks=0)


class TestParallelLinksSingletonEquivalence:
    """The helper-edge connectors must contribute *exactly* zero: the
    expanded network game is strategically identical to the singleton game
    on the same latencies (the regression behind the old leak of the
    connector latency into l_min)."""

    def games(self):
        latencies = [LinearLatency(1.0, 0.0), LinearLatency(2.0, 0.0),
                     ConstantLatency(7.0)]
        return (parallel_links_network_game(12, latencies),
                SingletonCongestionGame(12, latencies))

    def test_structural_parameters_match(self):
        network, singleton = self.games()
        assert network.min_resource_latency == singleton.min_resource_latency
        assert network.max_strategy_latency == singleton.max_strategy_latency
        assert network.elasticity_bound == singleton.elasticity_bound
        assert network.nu_bound == singleton.nu_bound
        assert network.max_slope == singleton.max_slope

    def test_latency_tables_match_exactly(self):
        network, singleton = self.games()
        state = [5, 4, 3]
        assert np.array_equal(network.strategy_latencies(state),
                              singleton.strategy_latencies(state))
        assert np.array_equal(network.strategy_latencies_after_join(state),
                              singleton.strategy_latencies_after_join(state))
        assert np.array_equal(network.post_migration_latency_matrix(state),
                              singleton.post_migration_latency_matrix(state))

    def test_social_cost_and_potential_match_exactly(self):
        network, singleton = self.games()
        state = [5, 4, 3]
        assert network.social_cost(state) == singleton.social_cost(state)
        assert network.potential(state) == singleton.potential(state)
        assert network.makespan(state) == singleton.makespan(state)

    def test_connectors_are_validation_exempt(self):
        # parallel_links_network_game constructs with validate=True: the
        # ZeroLatency connectors pass, the real links still get checked.
        game = parallel_links_network_game(6, [LinearLatency(1.0, 0.0)])
        assert any(lat.is_structural_zero for lat in game.latencies)

    def test_series_parallel_excludes_connectors_from_l_min(self):
        game = series_parallel_network_game(6, blocks=2, links_per_block=3,
                                            rng=0)
        real = [lat for lat in game.latencies if not lat.is_structural_zero]
        expected = min(float(lat.value(np.asarray(1.0))) for lat in real)
        assert game.min_resource_latency == pytest.approx(expected)
        assert game.min_resource_latency > 0.0

    def test_zero_latency_flag(self):
        assert ZeroLatency().is_structural_zero
        assert not LinearLatency(1.0, 0.0).is_structural_zero


class TestStrategySamplers:
    def test_unknown_mode_rejected(self):
        graph, latencies = diamond_graph()
        with pytest.raises(GameDefinitionError, match="strategy_mode"):
            NetworkCongestionGame(graph, "s", "t", 4, edge_latencies=latencies,
                                  strategy_mode="magic")

    def test_bounded_modes_require_num_paths(self):
        graph, latencies = diamond_graph()
        for mode in ("k-shortest", "dag-sample"):
            with pytest.raises(GameDefinitionError, match="num_paths"):
                NetworkCongestionGame(graph, "s", "t", 4,
                                      edge_latencies=latencies,
                                      strategy_mode=mode)

    def test_cap_error_suggests_bounded_modes(self):
        with pytest.raises(GameDefinitionError, match="dag-sample"):
            grid_network_game(5, rows=12, cols=12, rng=0)

    def test_k_shortest_orders_paths_by_free_flow_latency(self):
        game = grid_network_game(10, rows=4, cols=4, rng=3,
                                 strategy_mode="k-shortest", num_paths=5)
        assert game.num_strategies == 5
        assert game.strategy_mode == "k-shortest"
        free_flow = [sum(float(game.latencies[r].value(np.asarray(1.0)))
                         for r in strategy)
                     for strategy in game.strategies]
        assert free_flow == sorted(free_flow)

    def test_k_shortest_is_deterministic(self):
        first = grid_network_game(10, rows=4, cols=4, rng=3,
                                  strategy_mode="k-shortest", num_paths=6)
        second = grid_network_game(10, rows=4, cols=4, rng=3,
                                   strategy_mode="k-shortest", num_paths=6)
        assert first.paths == second.paths

    def test_dag_sample_deterministic_per_seed(self):
        kwargs = dict(rows=6, cols=6, rng=5, strategy_mode="dag-sample",
                      num_paths=12)
        first = grid_network_game(10, **kwargs, path_rng=11)
        second = grid_network_game(10, **kwargs, path_rng=11)
        other = grid_network_game(10, **kwargs, path_rng=12)
        assert first.paths == second.paths
        assert first.paths != other.paths

    def test_dag_sample_paths_are_distinct_and_bounded(self):
        game = grid_network_game(10, rows=6, cols=6, rng=5,
                                 strategy_mode="dag-sample", num_paths=16,
                                 path_rng=1)
        assert game.num_strategies == 16
        assert len(set(game.paths)) == 16

    def test_dag_sample_includes_free_flow_shortest_path(self):
        game = grid_network_game(10, rows=6, cols=6, rng=5,
                                 strategy_mode="dag-sample", num_paths=8,
                                 path_rng=1)
        free_flow = {path: sum(float(game.latencies[r].value(np.asarray(1.0)))
                               for r in strategy)
                     for path, strategy in zip(game.paths, game.strategies)}
        assert free_flow[game.paths[0]] == pytest.approx(min(free_flow.values()))

    def test_dag_sample_enumerates_small_path_sets(self):
        # a 2x3 grid has only 3 monotone paths; asking for more enumerates
        game = grid_network_game(5, rows=2, cols=3, rng=0,
                                 strategy_mode="dag-sample", num_paths=50,
                                 path_rng=0)
        assert game.num_strategies == math.comb(2 + 3 - 2, 1)

    def test_dag_sample_rejects_cyclic_graph(self):
        graph = nx.DiGraph()
        for edge in [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")]:
            graph.add_edge(*edge, latency=LinearLatency(1.0, 0.0))
        with pytest.raises(GameDefinitionError, match="acyclic"):
            NetworkCongestionGame(graph, "s", "t", 3,
                                  strategy_mode="dag-sample", num_paths=2)

    def test_dag_sample_scales_past_the_enumeration_cap(self):
        # 4**12 ≈ 16.7M simple paths: enumeration is impossible, the DP
        # sampler builds a bounded strategy set directly.
        game = layered_random_network_game(
            30, layers=12, width=4, edge_probability=1.0, rng=3,
            strategy_mode="dag-sample", num_paths=32)
        assert game.num_strategies == 32
        state = game.uniform_random_state(0)
        assert np.isfinite(game.social_cost(state))


class TestSparseIncidence:
    def make_pair(self):
        kwargs = dict(layers=6, width=4, edge_probability=1.0, rng=3,
                      strategy_mode="dag-sample", num_paths=24, path_rng=7)
        dense = layered_random_network_game(40, sparse_incidence=False, **kwargs)
        sparse = layered_random_network_game(40, sparse_incidence=True, **kwargs)
        assert dense.paths == sparse.paths
        assert not dense.uses_sparse_incidence
        assert sparse.uses_sparse_incidence
        return dense, sparse

    def test_sparse_matches_dense_on_all_primitives(self):
        dense, sparse = self.make_pair()
        state = dense.uniform_random_state(1).counts
        batch = dense.uniform_random_batch_state(5, 2).to_array()
        checks = [
            (dense.congestion(state), sparse.congestion(state)),
            (dense.strategy_latencies(state), sparse.strategy_latencies(state)),
            (dense.strategy_latencies_after_join(state),
             sparse.strategy_latencies_after_join(state)),
            (dense.post_migration_latency_matrix(state),
             sparse.post_migration_latency_matrix(state)),
            (dense.congestion_batch(batch), sparse.congestion_batch(batch)),
            (dense.strategy_latencies_batch(batch),
             sparse.strategy_latencies_batch(batch)),
            (dense.post_migration_latency_matrix_batch(batch),
             sparse.post_migration_latency_matrix_batch(batch)),
            (dense.potential_batch(batch), sparse.potential_batch(batch)),
            (np.asarray(dense.potential(state)),
             np.asarray(sparse.potential(state))),
        ]
        for dense_value, sparse_value in checks:
            np.testing.assert_allclose(sparse_value, dense_value,
                                       rtol=1e-12, atol=1e-12)

    def test_sparse_scalar_is_bit_identical_to_batch_row(self):
        # the loop engine evaluates the scalar methods, the ensemble engine
        # the batch ones: in sparse mode both go through the same CSR
        # products, so replica rows are exactly the scalar results
        _, sparse = self.make_pair()
        state = sparse.uniform_random_state(4).counts
        batch = np.tile(state, (3, 1))
        assert np.array_equal(sparse.post_migration_latency_matrix_batch(batch)[1],
                              sparse.post_migration_latency_matrix(state))
        assert np.array_equal(sparse.strategy_latencies_batch(batch)[2],
                              sparse.strategy_latencies(state))
        assert np.array_equal(sparse.congestion_batch(batch)[0],
                              sparse.congestion(state))

    def test_small_games_stay_dense_by_default(self):
        game = grid_network_game(5, rows=2, cols=3, rng=0)
        assert not game.uses_sparse_incidence

    def test_explicit_sparse_request_raises_without_scipy(self, monkeypatch):
        # an explicit sparse_incidence=True must not degrade silently: the
        # sweep rows' sparse_incidence column is deterministic output
        # (a None entry in sys.modules makes `from scipy import sparse` raise
        # ImportError, as on an install without scipy)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.sparse", None)
        with pytest.raises(GameDefinitionError, match="scipy"):
            grid_network_game(5, rows=2, cols=3, rng=0, sparse_incidence=True)
        # the automatic mode quietly falls back to dense, even on a game
        # large and sparse enough to pick CSR when scipy is present
        game = grid_network_game(5, rows=2, cols=3, rng=0)
        assert not game.uses_sparse_incidence
        game = grid_network_game(20, rows=10, cols=10, rng=2,
                                 strategy_mode="dag-sample", num_paths=128,
                                 path_rng=0)
        assert not game.uses_sparse_incidence

    def test_large_sparse_games_switch_automatically(self):
        game = grid_network_game(20, rows=10, cols=10, rng=2,
                                 strategy_mode="dag-sample", num_paths=128,
                                 path_rng=0)
        assert game.uses_sparse_incidence

"""Benchmarks of the native fused round kernel (``engine="native"``).

Two acceptance guards plus a float32 record:

* on an E14-size game (64 sampled paths over a layered DAG) the native
  backend must be >= 10x faster than ``engine="batch"`` **when numba is
  installed**; without numba ``native`` runs the batch round, so its rounds
  and final states must equal batch's bit for bit;
* a game with n >= 10^6 players must complete a convergence run to an
  approximate equilibrium inside the time budget — the count-based state
  makes the round cost independent of ``n``, and this guard keeps it that
  way.

Without numba, float32 has no engine and must be refused.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.ensemble import EnsembleDynamics, batch_stop_at_approx_equilibrium
from repro.core.imitation import ImitationProtocol
from repro.core.native import NUMBA_AVAILABLE
from repro.engines import engine_runtime_info
from repro.errors import NativeBackendError
from repro.games.network import layered_random_network_game
from repro.games.singleton import make_linear_singleton

#: Speedup the JIT kernel must show over the batch engine.
NATIVE_SPEEDUP_FLOOR = 10.0

#: Wall-clock budget for the million-player convergence run.
MILLION_PLAYER_BUDGET_SECONDS = 60.0


def _e14_size_workload():
    """An E14-size instance: 64 dag-sampled paths through an 8-layer DAG
    (120 edges), 1000 players, 16 replicas, a fixed 200-round budget (no
    stop condition — this measures raw engine throughput)."""
    game = layered_random_network_game(
        1000, layers=8, width=4, edge_probability=1.0, rng=3,
        strategy_mode="dag-sample", num_paths=64, path_rng=7)
    protocol = ImitationProtocol(use_nu_threshold=False)
    initial = game.uniform_random_batch_state(16, rng=5).to_array()

    def run(backend):
        dynamics = EnsembleDynamics(game, protocol, rng=9)
        return dynamics.run(initial, max_rounds=200, backend=backend)

    return game, run


def test_bench_native_e14_size_speedup_vs_batch(benchmark):
    """Acceptance guard: >= 10x over the batch engine under numba; without
    numba, native is the batch round and must reproduce it bit for bit."""
    game, run = _e14_size_workload()
    run("native")  # warm the JIT (or numpy caches) outside the clock

    started = time.perf_counter()
    batch_result = run("batch")
    batch_seconds = time.perf_counter() - started

    native_result = benchmark.pedantic(
        lambda: run("native"), rounds=3, iterations=1, warmup_rounds=0)
    native_seconds = benchmark.stats.stats.mean
    speedup = batch_seconds / native_seconds

    benchmark.extra_info["native_mode"] = engine_runtime_info()["native_mode"]
    benchmark.extra_info["num_strategies"] = game.num_strategies
    benchmark.extra_info["num_resources"] = game.num_resources
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 4)
    benchmark.extra_info["speedup_vs_batch"] = round(speedup, 2)

    # same deterministic workload on both engines (parity, not just speed)
    assert (native_result.rounds == batch_result.rounds).all()
    totals = native_result.final_states.to_array().sum(axis=1)
    assert (totals == game.num_players).all()

    if NUMBA_AVAILABLE:
        assert speedup >= NATIVE_SPEEDUP_FLOOR, (
            f"native kernel only {speedup:.1f}x faster than batch "
            f"({native_seconds:.3f}s vs {batch_seconds:.3f}s)"
        )
    else:
        assert np.array_equal(native_result.final_states.to_array(),
                              batch_result.final_states.to_array())


def test_bench_native_million_players_convergence(benchmark):
    """Acceptance guard: a 10^6-player singleton game runs a full
    convergence sweep to a (0.02, 0.02)-approximate equilibrium, 32
    replicas, inside the budget.  The count-based state representation is
    what makes this possible: the round cost depends on strategies, not
    players."""
    game = make_linear_singleton(
        1_000_000, [0.5, 0.75, 1.0, 1.0, 1.5, 2.0, 3.0, 4.0])
    protocol = ImitationProtocol(use_nu_threshold=False)
    stop = batch_stop_at_approx_equilibrium(0.02, 0.02)

    def run():
        dynamics = EnsembleDynamics(game, protocol, rng=11)
        return dynamics.run(replicas=32, max_rounds=50_000,
                            stop_condition=stop, backend="native")

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    seconds = benchmark.stats.stats.max
    benchmark.extra_info["num_players"] = game.num_players
    benchmark.extra_info["native_mode"] = engine_runtime_info()["native_mode"]
    benchmark.extra_info["replicas"] = 32
    benchmark.extra_info["max_rounds_converged"] = int(result.rounds.max())
    benchmark.extra_info["wall_seconds"] = round(seconds, 4)

    assert result.converged.all(), "replicas exhausted the round budget"
    totals = result.final_states.to_array().sum(axis=1)
    assert (totals == game.num_players).all()
    assert seconds < MILLION_PLAYER_BUDGET_SECONDS, (
        f"million-player convergence took {seconds:.1f}s "
        f"(budget {MILLION_PLAYER_BUDGET_SECONDS:.0f}s)"
    )


def test_bench_native_float32_mode(benchmark):
    """Record the float32 accumulation mode on the E14-size workload (the
    memory-lean tier; no speed assertion — its win is bandwidth on games
    too large for this smoke).  Without numba float32 has no engine: the
    run must raise :class:`NativeBackendError` naming numba."""
    game, _ = _e14_size_workload()
    protocol = ImitationProtocol(use_nu_threshold=False)
    initial = game.uniform_random_batch_state(16, rng=5).to_array()

    def run():
        dynamics = EnsembleDynamics(game, protocol, rng=9)
        return dynamics.run(initial, max_rounds=200, backend="native",
                            dtype="float32")

    if not NUMBA_AVAILABLE:
        with pytest.raises(NativeBackendError, match="numba"):
            run()
        return
    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["dtype"] = "float32"
    benchmark.extra_info["native_mode"] = engine_runtime_info()["native_mode"]
    totals = result.final_states.to_array().sum(axis=1)
    assert (totals == game.num_players).all()

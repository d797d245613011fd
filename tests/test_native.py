"""Tests of the native fused round kernel (``engine="native"``).

The parity regime (docs/ENGINE.md): the native kernel must agree with the
batch engine **exactly** on every deterministic quantity — lowered latency
tables, switch probabilities, stop decisions — while its migration draws
only agree in distribution (the conditional-binomial chain vs numpy's
stacked multinomial).  The tests here therefore assert bit-equality on the
lowering and on deterministic runs (stop at round 0, quiescence),
determinism/conservation/compaction invariants on stochastic runs, and the
kernel's one-round draw against its exact distribution.

The engine tests take the ``native_kernel`` fixture (``conftest.py``), so
the kernel's body runs on every host: interpreted everywhere, and also
compiled where numba is installed.  Without numba ``backend="native"``
runs the batch round; the ``batch_round`` fixture reproduces that mode on
every host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_approx_equilibrium_times
from repro.core.dynamics import ConcurrentDynamics, StopReason
from repro.core.ensemble import (
    EnsembleCollector,
    EnsembleDynamics,
    batch_stop_at_approx_equilibrium,
    batch_stop_at_imitation_stable,
    batch_stop_at_nash,
)
from repro.core.exploration import ExplorationProtocol
from repro.core.hybrid import MixtureProtocol
from repro.core.imitation import ImitationProtocol, UndampedImitationProtocol
from repro.core.native import (
    NUMBA_AVAILABLE,
    lower_game,
    lower_protocol,
    lower_stop_condition,
    run_native_ensemble,
)
from repro.core.protocols import (
    Protocol,
    SwitchProbabilities,
    relative_gain_matrix,
    zero_diagonal,
)
from repro.core.virtual_agents import VirtualAgentImitationProtocol
from repro.engines import ENGINES, engine_runtime_info, validate_engine
from repro.errors import ConvergenceError, EngineError, NativeBackendError
from repro.games.generators import random_linear_singleton
from repro.games.latency import ConstantLatency, LinearLatency
from repro.games.singleton import SingletonCongestionGame, make_linear_singleton
from repro.games.symmetric import make_symmetric_game
from repro.sweeps import SweepSpec


# ----------------------------------------------------------------------
# Lowering parity: deterministic quantities must match the reference
# engines exactly, not just allclose.
# ----------------------------------------------------------------------

GAME_FIXTURES = ["linear_singleton", "quadratic_singleton", "mixed_singleton",
                 "two_path_network", "braess_game"]


@pytest.mark.parametrize("game_fixture", GAME_FIXTURES)
def test_lowered_latency_tables_match_game_latencies(game_fixture, request):
    game = request.getfixturevalue(game_fixture)
    kg = lower_game(game)
    loads = np.arange(game.num_players + 1, dtype=np.int64)
    grid = np.tile(loads[:, np.newaxis], (1, game.num_resources))
    reference = game.resource_latencies_batch(grid.astype(float))
    for e in range(game.num_resources):
        if kg.lat_kind[e] == 0:  # Horner polynomial
            coeffs = kg.poly_coeffs[e]
            values = np.polyval(coeffs, loads.astype(float))
        else:  # exact load-indexed value table
            values = kg.lat_table[kg.table_row[e], loads]
        assert np.array_equal(values, reference[:, e]), f"resource {e}"


def test_lowered_float32_tables_track_float64(linear_singleton):
    kg64 = lower_game(linear_singleton, "float64")
    kg32 = lower_game(linear_singleton, "float32")
    assert kg32.dtype == np.dtype(np.float32)
    assert kg32.poly_coeffs.dtype == np.float32
    assert np.allclose(kg32.poly_coeffs, kg64.poly_coeffs, rtol=1e-6)


def test_lower_game_rejects_unsupported_dtype(linear_singleton):
    with pytest.raises(EngineError, match="float64.*float32"):
        lower_game(linear_singleton, "int32")


def _components_switch_matrix(game, components, counts):
    """Reconstruct the switch matrices the kernel computes from a lowered
    :class:`KernelComponents` struct (pure numpy, mirrors the contract in
    the KernelComponents docstring)."""
    counts = np.asarray(counts)
    latencies = game.strategy_latencies_batch(counts)
    post = game.post_migration_latency_matrix_batch(counts)
    gains = latencies[:, :, np.newaxis] - post
    relative = relative_gain_matrix(latencies, post)
    n, S = game.num_players, game.num_strategies
    out = np.zeros_like(relative)
    for c in range(components.num_components):
        mu = np.clip(components.factors[c] * relative, 0.0, 1.0)
        mu = np.where(gains > components.thresholds[c], mu, 0.0)
        if components.sampling_kinds[c] == 0:
            virtual = components.sampling_virtual[c]
            sampling = (counts + virtual) / (n + virtual * S)
            out += components.weights[c] * mu * sampling[:, np.newaxis, :]
        else:
            out += components.weights[c] * mu / S
    return zero_diagonal(out)


@pytest.mark.parametrize("protocol", [
    ImitationProtocol(),
    ImitationProtocol(lambda_=1.0, use_nu_threshold=False),
    UndampedImitationProtocol(),
    VirtualAgentImitationProtocol(),
    ExplorationProtocol(),
    MixtureProtocol([ImitationProtocol(), ExplorationProtocol()], [0.7, 0.3]),
], ids=lambda p: p.describe())
def test_lowered_protocol_components_reproduce_switch_probabilities(protocol):
    game = random_linear_singleton(200, 5, rng=11)
    components = lower_protocol(protocol, game)
    counts = game.uniform_random_batch_state(6, rng=3).to_array()
    expected = protocol.switch_probabilities_batch(game, counts)
    reconstructed = _components_switch_matrix(game, components, counts)
    assert np.allclose(reconstructed, expected, rtol=1e-12, atol=1e-15)


def test_bespoke_protocol_without_lowering_is_refused(linear_singleton,
                                                      batch_round):
    class BespokeProtocol(Protocol):
        name = "bespoke"

        def switch_probabilities(self, game, state):
            counts = game.validate_state(state)
            matrix = np.zeros((game.num_strategies,) * 2)
            return SwitchProbabilities(matrix=matrix, gains=matrix)

    with pytest.raises(NativeBackendError, match="BespokeProtocol"):
        lower_protocol(BespokeProtocol(), linear_singleton)
    with pytest.raises(NativeBackendError, match="engine='batch'"):
        run_native_ensemble(linear_singleton, BespokeProtocol(),
                            replicas=2, max_rounds=5, rng=0)
    # the batch round refuses the same protocols, so native accepts the
    # same inputs with and without numba
    with pytest.raises(NativeBackendError, match="BespokeProtocol"):
        EnsembleDynamics(linear_singleton, BespokeProtocol(), rng=0).run(
            replicas=2, max_rounds=5, backend="native")


def test_stop_condition_lowering(linear_singleton):
    fused = lower_stop_condition(
        batch_stop_at_approx_equilibrium(0.25, 0.1), linear_singleton)
    assert fused == (1, 0.25, 0.1, linear_singleton.nu_bound)
    fused = lower_stop_condition(
        batch_stop_at_imitation_stable(nu=0.5), linear_singleton)
    assert fused == (2, 0.0, 0.0, 0.5)
    fused = lower_stop_condition(batch_stop_at_nash(1e-6), linear_singleton)
    assert fused == (3, 0.0, 0.0, 1e-6)
    # untagged python callables stay generic (per-round synchronisation)
    assert lower_stop_condition(lambda g, c, r: c[:, 0] < 0,
                                linear_singleton) is None


# ----------------------------------------------------------------------
# Engine behaviour: determinism, conservation, stop semantics.
# ----------------------------------------------------------------------

def _run_native(game, protocol, seed=7, **kwargs):
    dynamics = EnsembleDynamics(game, protocol, rng=seed)
    return dynamics.run(backend="native", **kwargs)


def test_native_run_is_deterministic_and_conserves_players(native_kernel):
    game = random_linear_singleton(500, 6, rng=2)
    protocol = ImitationProtocol(use_nu_threshold=False)
    stop = batch_stop_at_approx_equilibrium(0.1, 0.1)
    first = _run_native(game, protocol, replicas=8, max_rounds=2000,
                        stop_condition=stop)
    second = _run_native(game, protocol, replicas=8, max_rounds=2000,
                         stop_condition=stop)
    assert np.array_equal(first.final_states.to_array(),
                          second.final_states.to_array())
    assert np.array_equal(first.rounds, second.rounds)
    assert first.stop_reasons == second.stop_reasons
    assert np.array_equal(first.total_migrations, second.total_migrations)
    totals = first.final_states.to_array().sum(axis=1)
    assert np.all(totals == game.num_players)
    other = _run_native(game, protocol, seed=8, replicas=8, max_rounds=2000,
                        stop_condition=stop)
    assert not np.array_equal(first.final_states.to_array(),
                              other.final_states.to_array())


def test_native_and_batch_agree_on_round_zero_stop(linear_singleton,
                                                   native_kernel):
    """A stop satisfied by the initial state retires every replica before
    any draw — a fully deterministic path where native must be
    bit-identical to batch."""
    protocol = ImitationProtocol()
    initial = np.tile(linear_singleton.balanced_state().counts, (4, 1))
    loose = batch_stop_at_approx_equilibrium(1.0, 10.0)
    for backend in ("batch", "native"):
        result = EnsembleDynamics(linear_singleton, protocol, rng=1).run(
            initial, max_rounds=100, stop_condition=loose, backend=backend)
        assert np.array_equal(result.final_states.to_array(), initial)
        assert result.rounds.tolist() == [0, 0, 0, 0]
        assert all(reason is StopReason.STOP_CONDITION
                   for reason in result.stop_reasons)
        assert result.total_migrations.tolist() == [0, 0, 0, 0]


def test_native_and_batch_agree_on_quiescence(native_kernel):
    """With the nu threshold on a singleton game, a near-balanced state has
    no eligible move: both engines must retire it as QUIESCENT with an
    unchanged state (no randomness is consumed on the deciding round)."""
    game = make_linear_singleton(30, [1.0, 1.0, 1.0])
    protocol = ImitationProtocol()  # nu threshold blocks sub-nu gains
    initial = np.tile(game.balanced_state().counts, (3, 1))
    for backend in ("batch", "native"):
        result = EnsembleDynamics(game, protocol, rng=4).run(
            initial, max_rounds=50, backend=backend)
        assert all(reason is StopReason.QUIESCENT
                   for reason in result.stop_reasons)
        assert np.array_equal(result.final_states.to_array(), initial)


def test_generic_python_stop_condition_is_honoured(native_kernel):
    game = random_linear_singleton(200, 4, rng=5)
    protocol = ImitationProtocol(use_nu_threshold=False)

    def stop_after_three(game_, counts, round_index):
        return np.full(counts.shape[0], round_index >= 3)

    result = _run_native(game, protocol, replicas=5, max_rounds=100,
                         stop_condition=stop_after_three)
    assert result.rounds.tolist() == [3] * 5
    assert all(reason is StopReason.STOP_CONDITION
               for reason in result.stop_reasons)


def test_fused_and_generic_forms_of_the_same_stop_agree(native_kernel):
    """Wrapping a tagged stop in a plain lambda strips the fused tag; the
    per-round python path must still stop each replica at the same round
    (same dynamics, same stop semantics — only the synchronisation
    granularity changes)."""
    game = random_linear_singleton(300, 5, rng=9)
    protocol = ImitationProtocol(use_nu_threshold=False)
    tagged = batch_stop_at_approx_equilibrium(0.2, 0.2)
    untagged = lambda g, c, r: tagged(g, c, r)  # noqa: E731
    assert lower_stop_condition(untagged, game) is None
    initial = game.uniform_random_batch_state(6, rng=2).to_array()
    fused = run_native_ensemble(game, protocol, initial, max_rounds=2000,
                                stop_condition=tagged, rng=13)
    generic = run_native_ensemble(game, protocol, initial, max_rounds=2000,
                                  stop_condition=untagged, rng=13)
    assert fused.rounds.tolist() == generic.rounds.tolist()
    assert fused.stop_reasons == generic.stop_reasons
    assert np.array_equal(fused.final_states.to_array(),
                          generic.final_states.to_array())


def test_strict_raises_when_budget_exhausted(native_kernel):
    game = random_linear_singleton(400, 5, rng=1)
    protocol = ImitationProtocol(use_nu_threshold=False)
    impossible = batch_stop_at_nash(tolerance=-1.0)
    with pytest.raises(ConvergenceError, match="did not stop"):
        _run_native(game, protocol, replicas=3, max_rounds=5,
                    stop_condition=impossible, strict=True)


def test_observer_sees_original_replica_indices(native_kernel):
    game = random_linear_singleton(200, 4, rng=3)
    protocol = ImitationProtocol(use_nu_threshold=False)
    seen: list[np.ndarray] = []

    def observer(game_, counts, active, round_index):
        assert counts.shape[0] == 4  # always the full original batch
        seen.append(np.asarray(active))

    _run_native(game, protocol, replicas=4, max_rounds=10, observer=observer)
    assert seen
    for active in seen:
        assert np.all((0 <= active) & (active < 4))


# ----------------------------------------------------------------------
# Compaction invariants: original replica indexing survives in-place
# retirement (ISSUE 6, satellite 4).
# ----------------------------------------------------------------------

def _heterogeneous_run(backend):
    """4 replicas where replica 0 and 2 start at the balanced state (retire
    at round 0 under a loose stop) while 1 and 3 start lopsided across two
    occupied links and must actually run (imitation needs an occupied
    destination to sample, so the imbalance keeps both links populated)."""
    game = make_linear_singleton(40, [1.0, 1.0, 1.0, 1.0])
    protocol = ImitationProtocol(use_nu_threshold=False)
    balanced = game.balanced_state().counts
    initial = np.stack([balanced, np.array([30, 10, 0, 0]),
                        balanced, np.array([28, 0, 12, 0])])
    stop = batch_stop_at_approx_equilibrium(0.05, 0.05)
    collector = EnsembleCollector(game, metrics=("potential", "support_size"),
                                  every=1)
    result = EnsembleDynamics(game, protocol, rng=21).run(
        initial, max_rounds=500, stop_condition=stop, collector=collector,
        backend=backend)
    return game, initial, result


@pytest.mark.parametrize("backend", ["batch", "native"])
def test_compaction_keeps_original_replica_indexing(backend, native_kernel):
    game, initial, result = _heterogeneous_run(backend)
    # replicas 0/2 retired before round 1; their slots keep their state
    assert result.rounds[0] == 0 and result.rounds[2] == 0
    assert result.stop_reasons[0] is StopReason.STOP_CONDITION
    assert result.stop_reasons[2] is StopReason.STOP_CONDITION
    final = result.final_states.to_array()
    assert np.array_equal(final[0], initial[0])
    assert np.array_equal(final[2], initial[2])
    # the lopsided replicas executed rounds and moved players
    assert result.rounds[1] > 0 and result.rounds[3] > 0
    assert result.total_migrations[1] > 0 and result.total_migrations[3] > 0
    assert np.all(final.sum(axis=1) == game.num_players)


@pytest.mark.parametrize("backend", ["batch", "native"])
def test_traces_keep_original_replica_columns_after_compaction(backend,
                                                               native_kernel):
    game, initial, result = _heterogeneous_run(backend)
    potential = result.metric("potential")
    assert potential.shape == (len(result.trace_rounds), 4)
    # a retired replica's column freezes at its retirement potential
    frozen = game.potential(initial[0])
    assert np.allclose(potential[:, 0], frozen)
    assert np.allclose(potential[:, 2], frozen)
    # the running replicas' potential strictly improves from the start
    assert potential[-1, 1] < potential[0, 1]
    assert potential[-1, 3] < potential[0, 3]
    migrations = result.metric("migrations")
    assert migrations.shape[1] == 4
    assert np.all(migrations[:, 0] == 0) and np.all(migrations[:, 2] == 0)


@pytest.mark.parametrize("backend", ["batch", "native"])
def test_replica_bridge_round_trips(backend, native_kernel):
    _, _, result = _heterogeneous_run(backend)
    for index in range(result.num_replicas):
        single = result.replica(index)
        assert single.final_state == result.final_states.replica(index)
        assert single.rounds == int(result.rounds[index])
        assert single.stop_reason is result.stop_reasons[index]
        assert single.total_migrations == int(result.total_migrations[index])


def test_replica_bridge_matches_loop_engine_bit_for_bit():
    """The third engine of the round-trip: batch under per-replica streams
    is bit-identical to ConcurrentDynamics, so ``replica(i)`` must
    reproduce the loop run exactly (states, rounds, reason, migrations)."""
    from repro.core.ensemble import batch_stop_from_scalar
    from repro.core.stability import is_approx_equilibrium

    game = random_linear_singleton(120, 4, rng=8)
    protocol = ImitationProtocol(use_nu_threshold=False)
    initial = game.uniform_random_batch_state(3, rng=1).to_array()
    seeds = [101, 102, 103]
    scalar = lambda g, s, r: is_approx_equilibrium(g, s, 0.1, 0.1)  # noqa: E731
    batch = EnsembleDynamics(game, protocol, rng=0).run(
        initial, max_rounds=400, stop_condition=batch_stop_from_scalar(scalar),
        rng_streams=[np.random.default_rng(s) for s in seeds])
    for index, seed in enumerate(seeds):
        loop = ConcurrentDynamics(
            game, protocol, rng=np.random.default_rng(seed)).run(
            initial[index], max_rounds=400, stop_condition=scalar)
        bridged = batch.replica(index)
        assert bridged.final_state == loop.final_state
        assert bridged.rounds == loop.rounds
        assert bridged.stop_reason is loop.stop_reason
        assert bridged.total_migrations == loop.total_migrations


# ----------------------------------------------------------------------
# float32 accumulation mode.
# ----------------------------------------------------------------------

def test_float32_run_conserves_and_is_deterministic(native_kernel):
    game = random_linear_singleton(500, 6, rng=14)
    protocol = ImitationProtocol(use_nu_threshold=False)
    stop = batch_stop_at_approx_equilibrium(0.1, 0.1)
    first = _run_native(game, protocol, replicas=6, max_rounds=2000,
                        stop_condition=stop, dtype="float32")
    second = _run_native(game, protocol, replicas=6, max_rounds=2000,
                         stop_condition=stop, dtype="float32")
    final = first.final_states.to_array()
    assert final.dtype == np.int64  # counts stay exact integers
    assert np.all(final.sum(axis=1) == game.num_players)
    assert np.array_equal(final, second.final_states.to_array())
    assert np.array_equal(first.rounds, second.rounds)


def test_float32_deterministic_paths_match_float64(linear_singleton,
                                                   native_kernel):
    """On a draw-free path (round-0 stop) the dtype cannot matter at all."""
    protocol = ImitationProtocol()
    initial = np.tile(linear_singleton.balanced_state().counts, (2, 1))
    loose = batch_stop_at_approx_equilibrium(1.0, 10.0)
    narrow = _run_native(linear_singleton, protocol, initial_states=initial,
                         max_rounds=50, stop_condition=loose, dtype="float32")
    wide = _run_native(linear_singleton, protocol, initial_states=initial,
                       max_rounds=50, stop_condition=loose, dtype="float64")
    assert np.array_equal(narrow.final_states.to_array(),
                          wide.final_states.to_array())
    assert narrow.rounds.tolist() == wide.rounds.tolist()


def test_float32_on_batch_backend_is_rejected(linear_singleton):
    dynamics = EnsembleDynamics(linear_singleton, ImitationProtocol(), rng=0)
    with pytest.raises(EngineError, match="native"):
        dynamics.run(replicas=2, max_rounds=5, dtype="float32")


# ----------------------------------------------------------------------
# Validation surfaces (ISSUE 6, satellite 3) and runtime reporting
# (satellite 2).
# ----------------------------------------------------------------------

def test_validate_engine_names_the_valid_backends():
    assert validate_engine("native") == "native"
    with pytest.raises(EngineError,
                       match=r"sweep kernel: unknown engine 'warp'"):
        validate_engine("warp", context="sweep kernel")
    with pytest.raises(EngineError, match=r"\['loop', 'batch', 'native'\]"):
        validate_engine("cuda")


def test_ensemble_backend_validation(linear_singleton):
    dynamics = EnsembleDynamics(linear_singleton, ImitationProtocol(), rng=0)
    with pytest.raises(EngineError, match="unknown ensemble backend"):
        dynamics.run(replicas=2, max_rounds=5, backend="warp")
    with pytest.raises(EngineError, match="rng_streams"):
        dynamics.run(np.tile(linear_singleton.balanced_state().counts, (2, 1)),
                     max_rounds=5, backend="native",
                     rng_streams=[np.random.default_rng(0),
                                  np.random.default_rng(1)])


def test_kernel_driver_without_numba_is_an_actionable_error(
        linear_singleton, batch_round):
    with pytest.raises(NativeBackendError, match="needs numba"):
        run_native_ensemble(linear_singleton, ImitationProtocol(),
                            replicas=2, max_rounds=5, rng=0)


def test_sweep_spec_engine_field_roundtrip_and_hash():
    payload = dict(name="native-spec", game="linear-singleton",
                   protocol="imitation", measure="approx_equilibrium_time",
                   axes={"n": [50, 100]},
                   base={"delta": 0.2, "epsilon": 0.2, "links": 4},
                   replicas=2, max_rounds=500, seed=5)
    batch_spec = SweepSpec(**payload)
    native_spec = SweepSpec(**payload, engine="native")
    assert batch_spec.engine == "batch"
    assert native_spec.to_dict()["engine"] == "native"
    assert SweepSpec.from_dict(native_spec.to_dict()) == native_spec
    # engine is part of the content hash: rows never share a store key
    assert batch_spec.content_hash() != native_spec.content_hash()
    with pytest.raises(EngineError, match="sweep 'native-spec'"):
        SweepSpec(**payload, engine="warp").validate()


def test_native_hitting_measure_runs_and_rejects_unknown_engines():
    game = random_linear_singleton(150, 4, rng=6)
    protocol = ImitationProtocol(use_nu_threshold=False)
    times = measure_approx_equilibrium_times(
        lambda: game, protocol, 0.2, 0.2, trials=4, max_rounds=2000, rng=3,
        engine="native")
    assert len(times.times) + times.censored == 4
    assert all(t <= 2000 for t in times.times)
    with pytest.raises(EngineError, match="valid engines"):
        measure_approx_equilibrium_times(
            lambda: game, protocol, 0.2, 0.2, trials=2, max_rounds=10, rng=3,
            engine="warp")


def test_engine_runtime_info_reports_backends_and_numba():
    info = engine_runtime_info()
    assert tuple(info["engines"]) == ENGINES == ("loop", "batch", "native")
    assert info["default_engine"] == "batch"
    expected_mode = "numba-jit" if NUMBA_AVAILABLE else "batch-round"
    assert info["native_mode"] == expected_mode
    expected_tier = "allclose" if NUMBA_AVAILABLE else "bit-identical"
    assert info["parity_tiers"]["native"] == expected_tier
    assert info["parity_tiers"]["batch"] == "bit-identical"
    assert info["numba_available"] == NUMBA_AVAILABLE


def test_kernel_fixture_leaves_runtime_info_alone(native_kernel):
    info = engine_runtime_info()
    assert info["numba_available"] == NUMBA_AVAILABLE
    assert info["native_mode"] == ("numba-jit" if NUMBA_AVAILABLE
                                   else "batch-round")


# ----------------------------------------------------------------------
# Without numba, native runs the batch round.
# ----------------------------------------------------------------------

def test_batch_round_native_equals_batch(batch_round):
    """Final states, rounds, stop reasons, migrations and collector traces
    of ``backend="native"`` equal ``backend="batch"`` on one generator —
    from random starts (the generator also draws the states) and from
    given ones, with and without a stop condition."""
    game = random_linear_singleton(300, 5, rng=4)
    protocol = ImitationProtocol(use_nu_threshold=False)
    stop = batch_stop_at_approx_equilibrium(0.05, 0.05)
    initial = game.uniform_random_batch_state(6, rng=1).to_array()
    cases = [dict(replicas=16, stop_condition=stop, max_rounds=500),
             dict(initial_states=initial, max_rounds=40)]
    for kwargs in cases:
        results = {}
        for backend in ("batch", "native"):
            collector = EnsembleCollector(
                game, metrics=("potential", "support_size"), every=3)
            results[backend] = EnsembleDynamics(game, protocol, rng=17).run(
                collector=collector, backend=backend, **kwargs)
        batch, native = results["batch"], results["native"]
        assert np.array_equal(native.final_states.to_array(),
                              batch.final_states.to_array())
        assert np.array_equal(native.rounds, batch.rounds)
        assert native.stop_reasons == batch.stop_reasons
        assert np.array_equal(native.total_migrations, batch.total_migrations)
        assert native.trace_rounds == batch.trace_rounds
        assert native.traces.keys() == batch.traces.keys()
        for name in batch.traces:
            assert np.array_equal(native.metric(name), batch.metric(name))


def test_batch_round_refuses_float32_naming_numba(linear_singleton,
                                                  batch_round):
    dynamics = EnsembleDynamics(linear_singleton, ImitationProtocol(), rng=0)
    with pytest.raises(NativeBackendError, match="numba"):
        dynamics.run(replicas=2, max_rounds=5, backend="native",
                     dtype="float32")
    with pytest.raises(EngineError, match="float64.*float32"):
        dynamics.run(replicas=2, max_rounds=5, backend="native",
                     dtype="int32")


def test_cli_float32_without_numba_names_numba(batch_round, capsys):
    from repro.cli import main

    assert main(["simulate", "--engine", "native", "--dtype", "float32",
                 "--replicas", "2", "--rounds", "5"]) == 1
    assert "numba" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The kernel's one-round draw against its exact distribution.
# ----------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Every way of splitting ``total`` players into ``parts`` ordered bins."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _exact_one_round(game, protocol, start) -> dict[tuple, float]:
    """Exact distribution of the state after one round from ``start``: the
    convolution of one multinomial per occupied origin over its
    destinations and staying, with the protocol's switch probabilities."""
    from scipy.stats import multinomial

    start = np.asarray(start, dtype=np.int64)
    matrix = protocol.switch_probabilities_batch(game, start[np.newaxis])[0]
    S = start.size
    outcomes = {tuple(start): 1.0}
    for p in np.nonzero(start)[0]:
        pvals = np.append(matrix[p], 0.0)
        pvals[p] = 0.0
        pvals[S] = max(0.0, 1.0 - pvals[:S].sum())
        law = multinomial(int(start[p]), pvals)
        moves = []
        for split in _compositions(int(start[p]), S + 1):
            if any(split[q] for q in range(S) if pvals[q] == 0.0):
                continue
            delta = np.array(split[:S])
            delta[p] -= sum(split[:S])
            moves.append((delta, law.pmf(split)))
        merged: dict[tuple, float] = {}
        for state, weight in outcomes.items():
            for delta, probability in moves:
                key = tuple(np.asarray(state) + delta)
                merged[key] = merged.get(key, 0.0) + weight * probability
        outcomes = merged
    return outcomes


def _pooled_chi_square(observed: dict[tuple, int],
                       exact: dict[tuple, float], samples: int):
    """Chi-square test of observed one-round outcomes against ``exact``:
    outcomes expected fewer than 5 times are pooled into one cell."""
    from scipy.stats import chisquare

    assert set(observed) <= set(exact), "an impossible outcome was drawn"
    obs, exp = [], []
    pooled_obs = pooled_exp = 0.0
    for state, probability in exact.items():
        expected = samples * probability
        if expected < 5.0:
            pooled_obs += observed.get(state, 0)
            pooled_exp += expected
        else:
            obs.append(observed.get(state, 0))
            exp.append(expected)
    if pooled_exp > 0.0:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    exp = np.array(exp) * (samples / np.sum(exp))  # absorb pmf rounding
    return chisquare(obs, exp)


#: Family-wise false-alarm rate of the draw tests, split over the cases.
_DRAW_ALPHA = 0.01

_DRAW_CASES = [
    # (game, protocol, start, seed): at least two destinations per moving
    # origin, so each draw runs the chain past its first binomial
    (lambda: make_linear_singleton(12, [1.0, 1.0, 1.0]),
     lambda: ImitationProtocol(lambda_=1.0, use_nu_threshold=False),
     (6, 4, 2), 101),
    (lambda: SingletonCongestionGame(
        12, [ConstantLatency(50.0), LinearLatency(1.0, 0.0),
             LinearLatency(1.0, 0.0)]),
     lambda: ImitationProtocol(lambda_=1.0, use_nu_threshold=False),
     (4, 4, 4), 102),
    (lambda: make_symmetric_game(
        11, {"shared": LinearLatency(1.0, 0.0), "slow": ConstantLatency(60.0),
             "b": LinearLatency(1.0, 0.0), "c": LinearLatency(2.0, 0.0)},
        {"via-slow": ["shared", "slow"], "via-b": ["shared", "b"],
         "via-c": ["shared", "c"]}),
     lambda: MixtureProtocol(
         [ImitationProtocol(lambda_=1.0, use_nu_threshold=False),
          ExplorationProtocol(lambda_=1.0)], [0.5, 0.5]),
     (5, 3, 3), 103),
    (lambda: SingletonCongestionGame(
        10, [ConstantLatency(40.0), LinearLatency(1.0, 0.0),
             LinearLatency(1.0, 0.0), LinearLatency(2.0, 0.0)]),
     lambda: ExplorationProtocol(lambda_=1.0),
     (6, 2, 1, 1), 104),
]


@pytest.mark.parametrize("case", range(len(_DRAW_CASES)))
def test_kernel_one_round_draw_matches_exact_distribution(case,
                                                          native_kernel):
    make_game, make_protocol, start, seed = _DRAW_CASES[case]
    game, protocol = make_game(), make_protocol()
    samples = 4000
    result = EnsembleDynamics(game, protocol, rng=seed).run(
        np.tile(start, (samples, 1)), max_rounds=1,
        stop_when_quiescent=False, backend="native")
    finals = result.final_states.to_array()
    states, counts = np.unique(finals, axis=0, return_counts=True)
    observed = {tuple(state): int(count)
                for state, count in zip(states.tolist(), counts)}
    exact = _exact_one_round(game, protocol, start)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
    test = _pooled_chi_square(observed, exact, samples)
    assert test.pvalue > _DRAW_ALPHA / len(_DRAW_CASES), (
        f"one-round draw departs from its exact law: chi2={test.statistic:.1f}, "
        f"p={test.pvalue:.2e}")


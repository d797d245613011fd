"""The shared latency evaluator and the once-per-round game evaluation.

* ``CongestionGame.resource_latencies`` / ``resource_latencies_batch`` run
  one evaluator: a Horner pass over the polynomial lowering for the latency
  classes whose Horner form is exact, ``lat.value`` for the rest.  For every
  latency class it must equal ``lat.value`` bit for bit at the integer
  loads ``0..n+1`` — the loads a round ever asks for.
* ``EnsembleDynamics.run`` evaluates the game once per round: the built-in
  stops and the paper's protocols read one
  :class:`~repro.games.evaluation.BatchEvaluation`, so the post-migration
  matrix and the state validation run at most once per round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ensemble import (
    EnsembleDynamics,
    batch_stop_at_approx_equilibrium,
    batch_stop_at_imitation_stable,
    batch_stop_at_nash,
)
from repro.core.hybrid import make_hybrid_protocol
from repro.core.imitation import ImitationProtocol
from repro.core.protocols import Protocol
from repro.games.base import CongestionGame
from repro.games.latency import (
    ConstantLatency,
    ExponentialLatency,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PiecewiseLinearLatency,
    PolynomialLatency,
    ScaledLatency,
    ShiftedLatency,
    TableLatency,
    ZeroLatency,
)
from repro.games.network import braess_network_game
from repro.games.singleton import SingletonCongestionGame, make_linear_singleton
from repro.games.state import GameState, batch_broadcast

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

positive = st.floats(min_value=0.01, max_value=50.0)
non_negative = st.floats(min_value=0.0, max_value=50.0)
players = st.integers(min_value=1, max_value=400)


@st.composite
def latency_functions(draw):
    """One latency function of every class, with drawn coefficients."""
    degree = draw(st.integers(min_value=0, max_value=5))
    coeffs = draw(st.lists(non_negative, min_size=1, max_size=6))
    coeffs[draw(st.integers(min_value=0, max_value=len(coeffs) - 1))] = draw(positive)
    steps = draw(st.lists(non_negative, min_size=1, max_size=5))
    base = LinearLatency(draw(positive), draw(non_negative))
    return [
        ConstantLatency(draw(positive)),
        ZeroLatency(),
        LinearLatency(draw(positive), draw(non_negative)),
        MonomialLatency(draw(positive), float(degree)),
        MonomialLatency(draw(positive), draw(st.floats(0.1, 4.0))),
        PolynomialLatency(coeffs),
        ExponentialLatency(draw(positive), draw(st.floats(0.0, 0.05))),
        MM1Latency(draw(st.floats(1.0, 500.0))),
        PiecewiseLinearLatency([(0.0, 0.0), *((float(k + 1), float(np.sum(steps[:k + 1])))
                                               for k in range(len(steps)))]),
        TableLatency(np.cumsum([draw(non_negative) for _ in range(4)])),
        ScaledLatency(base, draw(positive), draw(positive)),
        ShiftedLatency(base, draw(positive)),
    ]


@SETTINGS
@given(latencies=latency_functions(), num_players=players)
def test_evaluator_equals_value_for_every_latency_class(latencies, num_players):
    game = CongestionGame(num_players, latencies, [[e] for e in range(len(latencies))],
                          validate=False)
    loads = np.arange(num_players + 2, dtype=float)
    expected = np.stack([lat.value(loads) for lat in latencies], axis=1)
    grid = np.repeat(loads[:, np.newaxis], len(latencies), axis=1)
    np.testing.assert_array_equal(game.resource_latencies_batch(grid), expected)
    for load in (0, 1, num_players, num_players + 1):
        np.testing.assert_array_equal(game.resource_latencies(grid[load]), expected[load])


def test_monomials_stay_exact():
    # Horner would round a * x**2 as (a * x) * x: 456 of these 2,002 loads
    # differ in the last bit, so monomials are evaluated by value.
    game = SingletonCongestionGame(2000, [MonomialLatency(0.3, 2)], validate=False)
    loads = np.arange(2002, dtype=float)
    np.testing.assert_array_equal(game.resource_latencies_batch(loads[:, np.newaxis])[:, 0],
                                  MonomialLatency(0.3, 2).value(loads))


def test_horner_exact_classes_skip_value(monkeypatch):
    """Linear, constant and polynomial resources go through the Horner pass,
    not through their ``value`` method."""
    latencies = [LinearLatency(2.0, 1.0), ConstantLatency(3.0),
                 PolynomialLatency([1.0, 0.0, 0.5]), MonomialLatency(1.5, 3)]
    game = CongestionGame(10, latencies, [[0, 1], [2, 3]])
    expected = np.stack([lat.value(np.arange(12.0)) for lat in latencies], axis=1)

    def refuse(self, x):
        raise AssertionError(f"{self!r} evaluated by value")

    for cls in (LinearLatency, ConstantLatency, PolynomialLatency):
        monkeypatch.setattr(cls, "value", refuse)
    grid = np.repeat(np.arange(12.0)[:, np.newaxis], 4, axis=1)
    np.testing.assert_array_equal(game.resource_latencies_batch(grid), expected)


# ----------------------------------------------------------------------
# One evaluation per round
# ----------------------------------------------------------------------

def _count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(CongestionGame, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CongestionGame, name, counted)
    return calls


def _singleton_nash_instance():
    """The benchmark's E9 instance: 16 replicas of 40 players, everyone on
    the slowest of four linear links."""
    game = make_linear_singleton(40, (1.0, 2.0, 4.0, 8.0))
    counts = np.array([0, 0, 0, 40])
    return game, batch_broadcast(GameState(counts), 16)


@pytest.mark.parametrize("case", ["hybrid-nash", "imitation-approx-eq"])
def test_one_evaluation_per_round(monkeypatch, case):
    if case == "hybrid-nash":
        game, start = _singleton_nash_instance()
        protocol = make_hybrid_protocol(use_nu_threshold=False)
        stop = batch_stop_at_nash()
    else:
        game = make_linear_singleton(200, (1.0, 1.5, 2.0, 3.0, 5.0))
        start = game.uniform_random_batch_state(16, rng=5)
        protocol = ImitationProtocol()
        stop = batch_stop_at_approx_equilibrium(0.02, 0.02)
    post = _count_calls(monkeypatch, "post_migration_latency_matrix_batch")
    validate = _count_calls(monkeypatch, "validate_batch_state")
    result = EnsembleDynamics(game, protocol, rng=7).run(
        start, max_rounds=5_000, stop_condition=stop)
    # Rounds the engine entered: every executed round plus the closing
    # stop check that retires the last replicas.
    entered = int(result.rounds.max()) + 1
    assert result.rounds.max() > 5
    assert post[0] <= entered
    assert validate[0] <= entered


@pytest.mark.parametrize("stop_factory", [
    batch_stop_at_nash,
    batch_stop_at_imitation_stable,
    lambda: batch_stop_at_approx_equilibrium(0.05, 0.05),
])
def test_shared_evaluation_matches_count_path(stop_factory):
    """A run whose stop and protocol read the round's evaluation equals the
    run where an untagged stop receives counts and evaluates the game itself
    and a bespoke protocol goes through the base class's row-by-row
    fallback."""
    game = braess_network_game(30)
    start = game.uniform_random_batch_state(8, rng=3)
    protocol = make_hybrid_protocol()
    shared = stop_factory()

    def counts_only(game, counts, round_index):
        assert isinstance(counts, np.ndarray)
        return shared(game, counts, round_index)

    class RowByRowHybrid(Protocol):
        def switch_probabilities(self, game, state):
            return protocol.switch_probabilities(game, state)

    fast = EnsembleDynamics(game, protocol, rng=11).run(
        start, max_rounds=300, stop_condition=shared)
    slow = EnsembleDynamics(game, RowByRowHybrid(), rng=11).run(
        start, max_rounds=300, stop_condition=counts_only)
    np.testing.assert_array_equal(fast.final_states.counts, slow.final_states.counts)
    np.testing.assert_array_equal(fast.rounds, slow.rounds)
    assert fast.stop_reasons == slow.stop_reasons


def test_select_keeps_computed_rows_and_stays_read_only():
    game = braess_network_game(12)
    counts = game.uniform_random_batch_state(5, rng=2).counts
    evaluation = game.batch_evaluation(counts)
    post = evaluation.post_migration
    keep = np.array([True, False, True, True, False])
    selected = evaluation.select(keep)
    assert "post_migration" in vars(selected)
    np.testing.assert_array_equal(selected.post_migration, post[keep])
    np.testing.assert_array_equal(selected.gains,
                                  game.batch_evaluation(counts[keep]).gains)
    with pytest.raises(ValueError):
        selected.post_migration[0, 0, 0] = 0.0
    assert game.batch_evaluation(evaluation) is evaluation

"""Engine-parity tests for the sweep-backed experiments (E5, E6, E11, E13,
E14, F1).

The migration contract: ``engine="loop"`` and ``engine="batch"`` derive the
same per-replica random streams and share the migration-sampling code, so
the two engines must produce **bit-identical** result tables (the same
pattern as the sweep scheduler's worker-count determinism), and the E6
sequential ensemble must be independent of its worker count.  The engine
reaches the sweep kernels only through ``spec.engine``, so every parity
check runs :func:`~repro.sweeps.run_sweep` on a spec with the engine folded
in.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.dynamics import ConcurrentDynamics
from repro.core.ensemble import EnsembleDynamics
from repro.core.sequential import run_sequential_ensemble
from repro.errors import EngineError
from repro.experiments.exp_error_terms import (
    error_terms_spec,
    run_error_terms_experiment,
)
from repro.experiments.exp_network_scaling import (
    network_scaling_spec,
    run_network_scaling_experiment,
)
from repro.experiments.exp_overshooting import run_overshooting_experiment
from repro.experiments.exp_protocol_comparison import run_protocol_comparison_experiment
from repro.experiments.exp_sequential_lower_bound import (
    run_sequential_lower_bound_experiment,
)
from repro.experiments.exp_virtual_agents import run_virtual_agents_experiment
from repro.experiments.registry import (
    experiment_accepts,
    get_experiment,
    list_experiments,
)
from repro.experiments.runner import run_all
from repro.games.threshold import geometric_weight_matrix, lift_for_imitation
from repro.sweeps import SweepSpec, run_sweep, scheduler
from repro.experiments.exp_overshooting import overshoot_spec


def _rows(result):
    return result.rows


@pytest.mark.parametrize("runner, kwargs", [
    (run_overshooting_experiment,
     dict(quick=True, trials=4, seed=105, num_players=200)),
    (run_protocol_comparison_experiment,
     dict(quick=True, trials=2, seed=111)),
    (run_virtual_agents_experiment,
     dict(quick=True, trials=2, seed=113, num_players=30)),
    (run_error_terms_experiment,
     dict(quick=True, samples=30, seed=101, num_players=80)),
    (run_network_scaling_experiment,
     dict(quick=True, trials=2, seed=117, num_players=40, k_paths=8)),
], ids=["e5", "e11", "e13", "f1", "e14"])
def test_loop_and_batch_tables_are_bit_identical(runner, kwargs):
    batch = runner(engine="batch", **kwargs)
    loop = runner(engine="loop", **kwargs)
    assert _rows(batch) == _rows(loop)
    # identical rows render identical tables and identical notes
    assert batch.notes == loop.notes


def test_default_engine_is_batch():
    result = run_overshooting_experiment(quick=True, trials=2, seed=1,
                                         num_players=100)
    assert result.parameters["engine"] == "batch"


def test_unknown_engine_rejected():
    with pytest.raises(Exception, match="engine"):
        run_error_terms_experiment(quick=True, samples=5, seed=1,
                                   num_players=40, engine="warp")


_ENGINE_EXPERIMENTS = [spec.experiment_id for spec in list_experiments()
                       if experiment_accepts(spec.experiment_id, "engine")]


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test as soon as any engine or sweep point starts running."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run started before the engine was validated")

    monkeypatch.setattr(EnsembleDynamics, "run", refuse)
    monkeypatch.setattr(ConcurrentDynamics, "run", refuse)
    monkeypatch.setattr(scheduler, "run_point", refuse)


@pytest.mark.parametrize("experiment_id", _ENGINE_EXPERIMENTS)
def test_unknown_engine_raises_before_any_run(experiment_id, no_runs):
    with pytest.raises(EngineError, match="bogus"):
        get_experiment(experiment_id).func(quick=True, engine="bogus")


@pytest.mark.parametrize("runner, spec_factory, kwargs", [
    (run_overshooting_experiment, overshoot_spec,
     dict(trials=3, seed=7, num_players=100)),
    (run_error_terms_experiment, error_terms_spec,
     dict(samples=10, seed=7, num_players=40)),
], ids=["e5", "f1"])
def test_native_run_records_the_spec_that_ran(runner, spec_factory, kwargs):
    result = runner(quick=True, engine="native", **kwargs)
    native = replace(spec_factory(quick=True, **kwargs), engine="native")
    assert result.parameters["sweep_spec_hash"] == native.content_hash()
    assert result.parameters["sweep_spec_hash"] != \
        spec_factory(quick=True, **kwargs).content_hash()


def test_run_all_finishes_on_the_native_engine():
    results = run_all(quick=True, engine="native")
    assert len(results) == len(list_experiments())
    for experiment_id in _ENGINE_EXPERIMENTS:
        assert results[experiment_id].parameters["engine"] == "native"


def test_sequential_ensemble_independent_of_worker_count():
    weights = geometric_weight_matrix(5, ratio=2.0)
    game = lift_for_imitation(weights)
    rng = np.random.default_rng(7)
    profiles = [game.profile_from_cut_lifted(rng.integers(0, 2, size=5))
                for _ in range(6)]
    serial = run_sequential_ensemble(game, profiles, max_steps=50_000,
                                     rng=19, workers=1)
    pooled = run_sequential_ensemble(game, profiles, max_steps=50_000,
                                     rng=19, workers=4)
    assert np.array_equal(serial.steps, pooled.steps)
    assert np.array_equal(serial.converged, pooled.converged)
    for first, second in zip(serial.results, pooled.results):
        assert np.array_equal(np.asarray(first.final), np.asarray(second.final))


def test_e6_experiment_independent_of_worker_count():
    serial = run_sequential_lower_bound_experiment(quick=True, seed=6,
                                                   max_steps=20_000, workers=1)
    pooled = run_sequential_lower_bound_experiment(quick=True, seed=6,
                                                   max_steps=20_000, workers=2)
    assert serial.rows == pooled.rows


def test_new_preset_sweep_independent_of_worker_count():
    spec = overshoot_spec(quick=True, seed=31, trials=3, num_players=120)
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert serial.rows == pooled.rows


def test_network_scaling_sweep_independent_of_worker_count():
    """The sampled strategy sets derive from the point seeds, so the whole
    network sweep — including game construction — is shard-independent."""
    spec = network_scaling_spec(quick=True, seed=37, trials=2,
                                num_players=50, k_paths=8)
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert serial.rows == pooled.rows


@pytest.mark.parametrize("game, axes, base", [
    ("braess", {"with_shortcut": [False, True]}, {"n": 30}),
    ("grid-network", {"rows": [2, 3]}, {"n": 24, "cols": 3}),
    ("grid-network", {"k_paths": [6, 10]},
     {"n": 24, "rows": 5, "cols": 5, "strategy_mode": "dag-sample",
      "sparse_incidence": True}),
], ids=["braess", "grid-enumerated", "grid-sampled-sparse"])
def test_network_measure_loop_and_batch_rows_bit_identical(game, axes, base):
    """network_convergence under rng_streams: loop and batch replay the
    same per-replica streams on Braess and grid topologies."""
    spec = SweepSpec(
        name="parity-network", game=game, protocol="imitation",
        measure="network_convergence", axes=axes,
        base={"delta": 0.05, "epsilon": 0.05, **base},
        replicas=3, max_rounds=300, seed=123,
    )
    assert run_sweep(replace(spec, engine="loop")).rows == \
        run_sweep(spec).rows


def test_spelled_out_enumerate_mode_does_not_change_rows():
    """strategy_mode='enumerate' written explicitly must seed the game
    exactly like the implicit default — only the bounded sampler modes
    split the instance seed."""
    payload = dict(name="enum-invariance", game="grid-network",
                   protocol="imitation", measure="network_convergence",
                   axes={"rows": [2, 3]},
                   base={"n": 20, "cols": 3, "delta": 0.1, "epsilon": 0.1},
                   replicas=2, max_rounds=100, seed=9)
    implicit = SweepSpec(**payload)
    spelled = SweepSpec(**{**payload,
                           "base": {**payload["base"],
                                    "strategy_mode": "enumerate"}})
    differs_by_construction = {"strategy_mode", "point_key"}
    def clean(rows):
        return [{key: value for key, value in row.items()
                 if key not in differs_by_construction} for row in rows]
    assert clean(run_sweep(implicit).rows) == clean(run_sweep(spelled).rows)


def test_non_converged_replicas_reported_not_averaged():
    """A budget no replica can meet yields explicit non-converged counts and
    None means — never a silently censored average (and E11's notes stay
    graceful)."""
    from repro.experiments.exp_protocol_comparison import protocol_comparison_spec

    spec = protocol_comparison_spec(quick=True, trials=2, seed=3)
    rows = run_sweep(replace(spec, max_rounds=1)).rows
    imitation_rows = [row for row in rows if row["dynamics"] == "imitation"]
    assert imitation_rows
    for row in imitation_rows:
        assert row["non_converged_trials"] == row["trials"]
        assert row["mean_work"] is None
        assert row["work_per_player"] is None


def test_dynamics_work_is_a_paired_comparison():
    """All dynamics of one E11 configuration share the instance and start
    states: the paired seed is keyed on the params minus the dynamics axis."""
    from repro.sweeps.kernels import paired_seed_sequence

    base = {"n": 100, "links": 8, "delta": 0.1, "epsilon": 0.1}
    seeds = [
        paired_seed_sequence(7, {**base, "dynamics": name}, exclude=("dynamics",))
        for name in ("imitation", "best-response", "goldberg")
    ]
    states = [seq.generate_state(4).tolist() for seq in seeds]
    assert states[0] == states[1] == states[2]
    other_n = paired_seed_sequence(7, {**base, "n": 400, "dynamics": "imitation"},
                                   exclude=("dynamics",))
    assert other_n.generate_state(4).tolist() != states[0]
    other_seed = paired_seed_sequence(8, {**base, "dynamics": "imitation"},
                                      exclude=("dynamics",))
    assert other_seed.generate_state(4).tolist() != states[0]

"""Measurement kernels executed at each sweep point.

A kernel turns one :class:`~repro.sweeps.spec.SweepPoint` into one result
row.  Every kernel drives the batched ensemble engine
(:class:`~repro.core.ensemble.EnsembleDynamics`): the point's ``replicas``
Monte-Carlo trials advance together as one vectorized ``(R, S)`` system.

Determinism contract
--------------------
:func:`run_point` receives the point's own
:class:`~numpy.random.SeedSequence` (derived from ``(spec.seed,
point.index)`` by the spec) and spawns exactly two children from it — one
for instance randomness (random game families), one for the ensemble run.
No other randomness enters, so a row depends only on ``(spec, point.index)``
and never on the executing shard, worker count, or execution order.

Engine parity
-------------
The engine comes from ``spec.engine`` and from nowhere else, so it is part
of the spec's content hash and store key.  The experiment-backed measures
(``overshoot_ratio``, ``dynamics_work``, ``virtual_agent_nash``,
``network_convergence``, ``error_term_ratio``) derive *per-replica* random
streams from the run seed and run under every engine:

* ``batch`` advances all replicas through the ensemble engine with
  ``rng_streams`` (or one stacked migration draw for single-round
  measures),
* ``loop`` runs each replica through the historical scalar engine on the
  same generators.

Because both engines draw every replica's migrations from the same stream
with the same shared sampling code, the two paths produce **bit-identical**
rows — the property ``tests/test_engine_parity.py`` asserts through
:func:`~repro.sweeps.run_sweep`.  The hitting-time measures predate this
contract and support only ``"batch"`` and ``"native"`` (their loop paths
live in :mod:`repro.analysis.convergence`).

``native`` runs the multi-round measures as one ensemble on a *single*
random stream (the first per-replica stream of the run seed).  With numba
that ensemble runs in the fused round kernel (:mod:`repro.core.native`),
which draws its migrations through a different decomposition, so native
rows agree with batch rows in distribution — the "allclose" tier of
:data:`repro.engines.NATIVE_PARITY_TIERS` — but not sample-path-wise.
Without numba it runs the batch round on that one stream, so the rows are
a fixed function of the seed on every numba-free host.  Engine names are
validated by :func:`repro.engines.validate_engine`, so typos fail
immediately with an :class:`~repro.errors.EngineError` naming the valid
backends.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..analysis.convergence import HittingTimeResult, measure_hitting_times_ensemble
from ..analysis.martingale import aggregate_potential_increases
from ..baselines.best_response import run_best_response_baseline
from ..baselines.epsilon_greedy import run_epsilon_greedy_baseline
from ..baselines.goldberg import run_goldberg_baseline
from ..baselines.proportional_sampling import ProportionalImitationProtocol
from ..core.dynamics import (
    ConcurrentDynamics,
    StopReason,
    sample_migration_matrices,
    sample_migration_matrix,
)
from ..core.ensemble import (
    EnsembleCollector,
    EnsembleDynamics,
    batch_stop_at_approx_equilibrium,
    batch_stop_at_imitation_stable,
    batch_stop_at_nash,
    batch_stop_from_scalar,
)
from ..core.exploration import ExplorationProtocol
from ..core.hybrid import make_hybrid_protocol
from ..core.imitation import ImitationProtocol
from ..core.metrics import MetricsCollector
from ..core.potential import expected_virtual_potential_gain, potential_breakdown_batch
from ..core.protocols import Protocol
from ..core.run import stop_at_approx_equilibrium, stop_at_nash
from ..core.virtual_agents import VirtualAgentImitationProtocol
from ..engines import validate_engine
from ..games.base import CongestionGame
from ..games.generators import (
    random_linear_singleton,
    random_monomial_singleton,
    two_link_overshoot_game,
    two_link_overshoot_start,
)
from ..games.nash import is_nash
from ..games.network import (
    braess_network_game,
    grid_network_game,
    layered_random_network_game,
    series_parallel_network_game,
)
from ..games.optimum import compute_social_optimum
from ..games.singleton import make_linear_singleton
from ..rng import spawn_rngs
from .spec import SweepError, SweepPoint, SweepSpec, point_key

__all__ = ["GAME_BUILDERS", "PROTOCOL_BUILDERS", "MEASURES",
           "build_game", "build_protocol", "run_point"]

# ----------------------------------------------------------------------
# Game builders: params + instance seed sequence -> CongestionGame
# ----------------------------------------------------------------------

def _build_linear_singleton(params: Mapping[str, Any],
                            instance_rng: np.random.SeedSequence) -> CongestionGame:
    n = int(params["n"])
    coeffs = params.get("coeffs")
    if coeffs is not None:
        return make_linear_singleton(n, [float(c) for c in coeffs])
    return random_linear_singleton(n, int(params.get("links", 8)), rng=instance_rng)


def _build_monomial_singleton(params: Mapping[str, Any],
                              instance_rng: np.random.SeedSequence) -> CongestionGame:
    return random_monomial_singleton(
        int(params["n"]), int(params.get("links", 8)),
        float(params.get("exponent", 2.0)), rng=instance_rng,
    )


def _network_strategy_kwargs(params: Mapping[str, Any],
                             instance_rng: np.random.SeedSequence,
                             ) -> tuple[np.random.SeedSequence, dict[str, Any]]:
    """Split the instance seed for the bounded strategy samplers.

    Returns ``(coefficient_rng, sampler_kwargs)``.  A ``k_paths`` parameter
    (optionally with an explicit ``strategy_mode``; the default bounded mode
    is the layered-DAG ``"dag-sample"`` sampler) switches the game from
    exhaustive enumeration to a bounded strategy set.  The sampler stream is
    spawned from the point's instance seed, so the strategy set — like
    everything else — is a pure function of ``(spec, point index)`` and
    independent of shard layout or worker count.  In enumeration mode
    (implicit or spelled out) the instance seed is passed through
    unchanged, so writing ``strategy_mode="enumerate"`` explicitly yields
    the same rows as omitting it.
    """
    mode = params.get("strategy_mode")
    k_paths = params.get("k_paths")
    if mode is None and k_paths is not None:
        mode = "dag-sample"
    kwargs: dict[str, Any] = {}
    if "sparse_incidence" in params:
        kwargs["sparse_incidence"] = bool(params["sparse_incidence"])
    if mode in (None, "enumerate"):
        # Spelling out the default mode must not change the rows: only the
        # bounded modes split the instance seed for their sampler stream.
        if mode is not None:
            kwargs["strategy_mode"] = str(mode)
        return instance_rng, kwargs
    graph_seq, path_seq = instance_rng.spawn(2)
    kwargs["strategy_mode"] = str(mode)
    kwargs["path_rng"] = np.random.default_rng(path_seq)
    if k_paths is not None:
        kwargs["num_paths"] = int(k_paths)
    return graph_seq, kwargs


def _build_grid_network(params: Mapping[str, Any],
                        instance_rng: np.random.SeedSequence) -> CongestionGame:
    rng, sampler_kwargs = _network_strategy_kwargs(params, instance_rng)
    return grid_network_game(
        int(params["n"]), rows=int(params.get("rows", 2)),
        cols=int(params.get("cols", 3)),
        degree=int(params.get("degree", 1)), rng=rng, **sampler_kwargs,
    )


def _build_layered_network(params: Mapping[str, Any],
                           instance_rng: np.random.SeedSequence) -> CongestionGame:
    rng, sampler_kwargs = _network_strategy_kwargs(params, instance_rng)
    return layered_random_network_game(
        int(params["n"]), layers=int(params.get("layers", 3)),
        width=int(params.get("width", 3)),
        edge_probability=float(params.get("edge_probability", 0.7)),
        degree=int(params.get("degree", 1)), rng=rng, **sampler_kwargs,
    )


def _build_series_parallel(params: Mapping[str, Any],
                           instance_rng: np.random.SeedSequence) -> CongestionGame:
    rng, sampler_kwargs = _network_strategy_kwargs(params, instance_rng)
    return series_parallel_network_game(
        int(params["n"]), blocks=int(params.get("blocks", 2)),
        links_per_block=int(params.get("links_per_block", 3)),
        degree=int(params.get("degree", 1)), rng=rng, **sampler_kwargs,
    )


def _build_braess(params: Mapping[str, Any],
                  instance_rng: np.random.SeedSequence) -> CongestionGame:
    return braess_network_game(
        int(params["n"]),
        with_shortcut=bool(params.get("with_shortcut", True)),
        scale=float(params.get("scale", 1.0)),
    )


def _build_two_link(params: Mapping[str, Any],
                    instance_rng: np.random.SeedSequence) -> CongestionGame:
    return two_link_overshoot_game(int(params["n"]),
                                   float(params.get("degree", 2.0)))


GAME_BUILDERS: dict[str, Callable[..., CongestionGame]] = {
    "linear-singleton": _build_linear_singleton,
    "monomial-singleton": _build_monomial_singleton,
    "grid-network": _build_grid_network,
    "layered-network": _build_layered_network,
    "series-parallel": _build_series_parallel,
    "braess": _build_braess,
    "two-link": _build_two_link,
}


def build_game(game: str, params: Mapping[str, Any],
               instance_rng: np.random.SeedSequence) -> CongestionGame:
    """Instantiate the point's game (`n` is required for every family)."""
    if game not in GAME_BUILDERS:
        raise SweepError(f"unknown game {game!r}; known: {sorted(GAME_BUILDERS)}")
    if "n" not in params:
        raise SweepError(f"game {game!r} needs an 'n' (players) parameter, "
                         f"got {sorted(params)}")
    return GAME_BUILDERS[game](params, instance_rng)


# ----------------------------------------------------------------------
# Protocol builders: params -> Protocol
# ----------------------------------------------------------------------

def _imitation_kwargs(params: Mapping[str, Any]) -> dict[str, Any]:
    kwargs: dict[str, Any] = {}
    if "lambda_" in params:
        kwargs["lambda_"] = float(params["lambda_"])
    if "use_nu_threshold" in params:
        kwargs["use_nu_threshold"] = bool(params["use_nu_threshold"])
    return kwargs


def _build_imitation(params: Mapping[str, Any]) -> Protocol:
    return ImitationProtocol(**_imitation_kwargs(params))


def _build_proportional(params: Mapping[str, Any]) -> Protocol:
    return ProportionalImitationProtocol(**_imitation_kwargs(params))


def _build_virtual_agents(params: Mapping[str, Any]) -> Protocol:
    kwargs = _imitation_kwargs(params)
    if "virtual_agents" in params:
        kwargs["virtual_agents_per_strategy"] = int(params["virtual_agents"])
    kwargs.pop("use_nu_threshold", None)
    return VirtualAgentImitationProtocol(**kwargs)


def _build_exploration(params: Mapping[str, Any]) -> Protocol:
    if "lambda_" in params:
        return ExplorationProtocol(float(params["lambda_"]))
    return ExplorationProtocol()


def _build_hybrid(params: Mapping[str, Any]) -> Protocol:
    kwargs: dict[str, Any] = {}
    if "imitation_weight" in params:
        kwargs["imitation_weight"] = float(params["imitation_weight"])
    if "use_nu_threshold" in params:
        kwargs["use_nu_threshold"] = bool(params["use_nu_threshold"])
    if "lambda_" in params:
        return make_hybrid_protocol(float(params["lambda_"]), **kwargs)
    return make_hybrid_protocol(**kwargs)


PROTOCOL_BUILDERS: dict[str, Callable[[Mapping[str, Any]], Protocol]] = {
    "imitation": _build_imitation,
    "proportional": _build_proportional,
    "virtual-agents": _build_virtual_agents,
    "exploration": _build_exploration,
    "hybrid": _build_hybrid,
}


def build_protocol(protocol: str, params: Mapping[str, Any]) -> Protocol:
    """Instantiate the point's revision protocol."""
    if protocol not in PROTOCOL_BUILDERS:
        raise SweepError(f"unknown protocol {protocol!r}; "
                         f"known: {sorted(PROTOCOL_BUILDERS)}")
    return PROTOCOL_BUILDERS[protocol](params)


# ----------------------------------------------------------------------
# Hitting-time measures (batch-only; the grid experiments E2/E3)
# ----------------------------------------------------------------------

def _hitting_columns(hitting: HittingTimeResult) -> dict[str, Any]:
    summary = hitting.summary
    return {
        "trials": summary.count,
        "rounds_mean": summary.mean,
        "rounds_median": summary.median,
        "rounds_std": summary.std,
        "rounds_min": summary.minimum,
        "rounds_max": summary.maximum,
        "rounds_ci_low": summary.ci_low,
        "rounds_ci_high": summary.ci_high,
        "censored": hitting.censored,
        "times": [int(t) for t in hitting.times],
    }


def _measure_approx_equilibrium(spec: SweepSpec, params: Mapping[str, Any],
                                game: CongestionGame, protocol: Protocol,
                                run_rng: np.random.SeedSequence) -> dict[str, Any]:
    backend = _ensemble_backend("approx_equilibrium_time", spec.engine)
    stop = batch_stop_at_approx_equilibrium(
        float(params.get("delta", 0.25)),
        float(params.get("epsilon", 0.25)),
        params.get("nu"),
    )
    return _hitting_columns(measure_hitting_times_ensemble(
        game, protocol, stop, trials=spec.replicas,
        max_rounds=int(params.get("max_rounds", spec.max_rounds)), rng=run_rng,
        backend=backend,
    ))


def _measure_imitation_stable(spec: SweepSpec, params: Mapping[str, Any],
                              game: CongestionGame, protocol: Protocol,
                              run_rng: np.random.SeedSequence) -> dict[str, Any]:
    backend = _ensemble_backend("imitation_stable_time", spec.engine)
    stop = batch_stop_at_imitation_stable(params.get("nu"))
    return _hitting_columns(measure_hitting_times_ensemble(
        game, protocol, stop, trials=spec.replicas,
        max_rounds=int(params.get("max_rounds", spec.max_rounds)), rng=run_rng,
        backend=backend,
    ))


def _measure_nash(spec: SweepSpec, params: Mapping[str, Any],
                  game: CongestionGame, protocol: Protocol,
                  run_rng: np.random.SeedSequence) -> dict[str, Any]:
    backend = _ensemble_backend("nash_time", spec.engine)
    stop = batch_stop_at_nash(float(params.get("tolerance", 1e-9)))
    return _hitting_columns(measure_hitting_times_ensemble(
        game, protocol, stop, trials=spec.replicas,
        max_rounds=int(params.get("max_rounds", spec.max_rounds)), rng=run_rng,
        backend=backend,
    ))


def _ensemble_backend(measure: str, engine: str) -> str:
    """Backend for the ensemble-only hitting-time measures.

    These measures run exclusively through
    :func:`measure_hitting_times_ensemble`, which accepts the ``"batch"``
    and ``"native"`` backends; the loop path of the grid experiments lives
    in :mod:`repro.analysis.convergence`.
    """
    if engine == "loop":
        raise SweepError(
            f"measure {measure!r} supports engine='batch' or 'native' only; "
            "the loop path of the grid experiments lives in "
            "repro.analysis.convergence"
        )
    return engine


# ----------------------------------------------------------------------
# Shared replica plumbing for the engine-parity measures
# ----------------------------------------------------------------------

def _stacked_migrations(counts: np.ndarray, matrix: np.ndarray, samples: int,
                        gen: np.random.Generator, engine: str) -> np.ndarray:
    """``samples`` single-round migration draws from one shared generator.

    The batch path issues **one** stacked multinomial over all (sample,
    origin) rows; the loop path draws sample by sample.  Both consume the
    generator in the same row order, so the returned stacks are
    bit-identical (the invariant behind the loop/batch R=1 equivalence).
    ``engine="native"`` shares the batch path: a single-round stacked draw
    has no fused kernel (there is no round loop to fuse), so the native
    rows of the single-round measures are bit-identical to batch.
    """
    if engine in ("batch", "native"):
        tiled_counts = np.tile(counts, (samples, 1))
        tiled_matrices = np.tile(matrix, (samples, 1, 1))
        return sample_migration_matrices(tiled_counts, tiled_matrices, gen)
    return np.stack([sample_migration_matrix(counts, matrix, gen)
                     for _ in range(samples)])


def _run_on_streams(game: CongestionGame, protocol: Protocol,
                    initial_states: np.ndarray,
                    streams: Sequence[np.random.Generator], engine: str,
                    **run_kwargs):
    """One :class:`EnsembleDynamics` run of the replicas on their streams.

    ``batch`` gives each replica its own stream (``rng_streams``), so every
    trajectory is bit-identical to a :class:`ConcurrentDynamics` run on the
    same generator.  ``native`` has no per-replica stream mode: it consumes
    the *first* stream as its single generator (in the fused kernel with
    numba, in the batch round without), so its trajectories agree with the
    reference pair in distribution, not bit-for-bit.
    """
    if engine == "native":
        return EnsembleDynamics(game, protocol, rng=streams[0]).run(
            initial_states, backend="native", **run_kwargs)
    return EnsembleDynamics(game, protocol, rng=0).run(
        initial_states, rng_streams=list(streams), **run_kwargs)


def _ensemble_trajectories(
    game: CongestionGame,
    protocol: Protocol,
    initial_states: np.ndarray,
    streams: Sequence[np.random.Generator],
    *,
    max_rounds: int,
    scalar_stop,
    engine: str,
    batch_stop=None,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Replica trajectories under either engine, bit-identical per stream.

    Returns ``(final_states, rounds, converged)`` where ``final_states`` is
    a list of per-replica :class:`~repro.games.state.GameState`-compatible
    count vectors, in replica order.  The batch path advances all replicas
    through :class:`EnsembleDynamics` with per-replica ``rng_streams``; the
    loop path runs each replica through :class:`ConcurrentDynamics` on the
    same generator — identical draws, identical trajectories.

    ``batch_stop`` optionally supplies a natively-vectorised
    :class:`~repro.core.ensemble.BatchStopCondition` equivalent to
    ``scalar_stop``: without it the scalar condition is lifted row by row
    (``batch_stop_from_scalar``), which evaluates the game once per replica
    per round and easily dominates the whole batch run.

    ``engine="native"`` runs the ensemble on a single stream (see
    :func:`_run_on_streams`).
    """
    if engine in ("batch", "native"):
        if batch_stop is None and scalar_stop is not None:
            batch_stop = batch_stop_from_scalar(scalar_stop)
        result = _run_on_streams(game, protocol, initial_states, streams,
                                 engine, max_rounds=max_rounds,
                                 stop_condition=batch_stop)
        finals = [result.final_states.to_array()[index]
                  for index in range(result.num_replicas)]
        return finals, result.rounds.astype(np.int64), result.converged
    finals = []
    rounds = np.zeros(len(streams), dtype=np.int64)
    converged = np.zeros(len(streams), dtype=bool)
    for index, generator in enumerate(streams):
        dynamics = ConcurrentDynamics(game, protocol, rng=generator)
        trajectory = dynamics.run(
            initial_states[index],
            max_rounds=max_rounds,
            stop_condition=scalar_stop,
        )
        finals.append(trajectory.final_state.counts)
        rounds[index] = trajectory.rounds
        converged[index] = trajectory.stop_reason is not StopReason.MAX_ROUNDS
    return finals, rounds, converged


def _mean_or_none(values: Sequence[float]) -> Optional[float]:
    return float(np.mean(np.asarray(values, dtype=float))) if len(values) else None


def paired_seed_sequence(seed: int, params: Mapping[str, Any],
                         *, exclude: Sequence[str] = ()) -> np.random.SeedSequence:
    """Seed sequence keyed on ``(seed, params minus exclude)``.

    Points that differ only in the excluded axes get the *same* sequence —
    the mechanism behind paired comparisons: the E11 ``dynamics`` axis
    shares one game instance and one set of start states per ``n``, so the
    work comparison is measured on identical workloads.  Still a pure
    function of the spec, so rows stay shard- and worker-independent.
    """
    reduced = {name: value for name, value in params.items()
               if name not in exclude}
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFF,
                                   int(point_key(reduced), 16)])


# ----------------------------------------------------------------------
# Overshooting measure (E5)
# ----------------------------------------------------------------------

def _potential_trajectories(game: CongestionGame, protocol: Protocol,
                            start_counts: np.ndarray,
                            streams: Sequence[np.random.Generator],
                            *, rounds: int, engine: str) -> list[np.ndarray]:
    """Per-replica potential trajectories from a shared start state.

    The native path records through the same :class:`EnsembleCollector`,
    on a single stream (see :func:`_run_on_streams`).
    """
    if engine in ("batch", "native"):
        collector = EnsembleCollector(game, metrics=("potential",), every=1)
        result = _run_on_streams(game, protocol,
                                 np.tile(start_counts, (len(streams), 1)),
                                 streams, engine, max_rounds=rounds,
                                 collector=collector)
        trace = result.metric("potential")  # (T, R)
        return [trace[:int(result.rounds[index]) + 1, index]
                for index in range(result.num_replicas)]
    trajectories = []
    for generator in streams:
        collector = MetricsCollector(game, track_gain=False)
        dynamics = ConcurrentDynamics(game, protocol, rng=generator)
        dynamics.run(start_counts, max_rounds=rounds, collector=collector)
        trajectories.append(collector.potentials())
    return trajectories


def _measure_overshoot(spec: SweepSpec, params: Mapping[str, Any],
                       game: CongestionGame, protocol: Protocol,
                       run_rng: np.random.SeedSequence) -> dict[str, Any]:
    """One-round overshoot statistics plus long-run potential drift (E5)."""
    degree = float(params.get("degree", 2.0))
    fraction = float(params.get("start_latency_fraction", 0.7))
    start = two_link_overshoot_start(game, degree, latency_fraction=fraction)
    counts = start.counts

    constant_latency = float(game.latencies[0].value(np.asarray(0.0)))
    start_loads = game.congestion(start)
    power_before = float(game.latencies[1].value(np.asarray(float(start_loads[1]))))
    gap = constant_latency - power_before
    start_potential = game.potential(counts)

    round_seq, drift_seq = run_rng.spawn(2)
    gen = np.random.default_rng(round_seq)
    probabilities = protocol.switch_probabilities(game, counts)
    migrations = _stacked_migrations(counts, probabilities.matrix,
                                     spec.replicas, gen, spec.engine)
    deltas = migrations.sum(axis=1) - migrations.sum(axis=2)
    post_counts = counts[np.newaxis, :] + deltas
    post_loads = game.congestion_batch(post_counts)  # (R, m)
    power_after = np.asarray(game.latencies[1].value(post_loads[:, 1]), dtype=float)

    overshoot_ratios = (power_after - power_before) / gap
    migrants_worse_off = power_after > constant_latency
    potential_changes = game.potential_batch(post_counts) - start_potential

    drift_rounds = int(params.get("drift_rounds", 30))
    drift_trials = int(params.get("drift_trials", 3))
    drift = aggregate_potential_increases(_potential_trajectories(
        game, protocol, counts, spawn_rngs(drift_seq, drift_trials),
        rounds=drift_rounds, engine=spec.engine,
    ))
    return {
        "trials": spec.replicas,
        "latency_gap_b": gap,
        "mean_overshoot_ratio": float(np.mean(overshoot_ratios)),
        "migrants_worse_off_fraction": float(np.mean(migrants_worse_off)),
        "mean_potential_change_1_round": float(np.mean(potential_changes)),
        "potential_increase_rate_long_run": drift["increase_rate"],
        "max_potential_increase_long_run": drift["max_increase"],
    }


# ----------------------------------------------------------------------
# Dynamics-work measure (E11)
# ----------------------------------------------------------------------

_SEQUENTIAL_DYNAMICS = ("best-response", "epsilon-greedy", "goldberg")


def _measure_dynamics_work(spec: SweepSpec, params: Mapping[str, Any],
                           game: CongestionGame, protocol: Protocol,
                           run_rng: np.random.SeedSequence) -> dict[str, Any]:
    """Work (rounds/moves/probes) of one dynamics to a comparable state (E11).

    ``dynamics`` selects the process: ``"imitation"`` is the concurrent
    protocol (engine-selectable, work = rounds), the members of
    ``_SEQUENTIAL_DYNAMICS`` are the one-move-per-step baselines (work =
    individual moves/probes; inherently serial, identical under both
    engines).  This is a *paired* comparison: the randomness is keyed on
    the point's parameters *excluding* the ``dynamics`` axis
    (:func:`paired_seed_sequence`), so all dynamics of one configuration
    run on the same game instance, the same start states and the same
    per-trial streams — the per-point ``game``/``run_rng`` are deliberately
    not used.  Non-converged replicas are excluded from the work/cost
    means and reported in ``non_converged_trials``.
    """
    dynamics_name = str(params.get("dynamics", "imitation"))
    delta = float(params.get("delta", 0.1))
    epsilon = float(params.get("epsilon", 0.1))
    max_rounds = int(params.get("max_rounds", spec.max_rounds))

    pair_rng = paired_seed_sequence(spec.seed, params, exclude=("dynamics",))
    instance_seq, trials_seq = pair_rng.spawn(2)
    game_name = str(params.get("game", spec.game))
    game = build_game(game_name, params, instance_seq)
    optimum = compute_social_optimum(game)

    starts = []
    run_streams = []
    for trial_seq in trials_seq.spawn(spec.replicas):
        start_seq, dynamics_seq = trial_seq.spawn(2)
        starts.append(game.uniform_random_state(np.random.default_rng(start_seq)).counts)
        run_streams.append(np.random.default_rng(dynamics_seq))

    if dynamics_name == "imitation":
        finals, work, converged = _ensemble_trajectories(
            game, protocol, np.stack(starts), run_streams,
            max_rounds=max_rounds,
            scalar_stop=stop_at_approx_equilibrium(delta, epsilon),
            engine=spec.engine,
        )
    elif dynamics_name in _SEQUENTIAL_DYNAMICS:
        finals, work_list, converged_list = [], [], []
        for start, generator in zip(starts, run_streams):
            if dynamics_name == "best-response":
                outcome = run_best_response_baseline(game, initial_state=start,
                                                     rng=generator)
            elif dynamics_name == "epsilon-greedy":
                outcome = run_epsilon_greedy_baseline(game, epsilon,
                                                      initial_state=start,
                                                      rng=generator)
            else:
                outcome = run_goldberg_baseline(
                    game, initial_state=start,
                    max_steps=int(params.get("goldberg_max_steps",
                                             200 * game.num_players)),
                    rng=generator)
            finals.append(outcome.final_state.counts)
            work_list.append(outcome.steps)
            converged_list.append(outcome.converged)
        work = np.asarray(work_list, dtype=np.int64)
        converged = np.asarray(converged_list, dtype=bool)
    else:
        raise SweepError(f"unknown dynamics {dynamics_name!r}; known: "
                         f"{('imitation',) + _SEQUENTIAL_DYNAMICS}")

    costs = np.array([game.social_cost(final) for final in finals], dtype=float)
    converged_work = [float(w) for w, ok in zip(work, converged) if ok]
    converged_costs = [float(c) for c, ok in zip(costs, converged) if ok]
    mean_work = _mean_or_none(converged_work)
    mean_cost = _mean_or_none(converged_costs)
    return {
        "trials": spec.replicas,
        "mean_work": mean_work,
        "work_per_player": (mean_work / game.num_players
                            if mean_work is not None else None),
        "mean_final_cost": mean_cost,
        "cost_over_optimum": (mean_cost / optimum.social_cost
                              if mean_cost is not None else None),
        "non_converged_trials": int(np.sum(~converged)),
    }


# ----------------------------------------------------------------------
# Virtual-agent survival measure (E13)
# ----------------------------------------------------------------------

def _measure_virtual_agent_nash(spec: SweepSpec, params: Mapping[str, Any],
                                game: CongestionGame, protocol: Protocol,
                                run_rng: np.random.SeedSequence) -> dict[str, Any]:
    """Recovery from the all-on-the-slowest-strategy start (E13).

    All replicas start on the strategy with the worst full-load latency and
    run until a Nash equilibrium (or the round budget).  Reports the Nash
    fraction, mean rounds over *converged* replicas, and the explicit
    non-converged count.
    """
    tolerance = float(params.get("tolerance", 1e-9))
    max_rounds = int(params.get("max_rounds", spec.max_rounds))
    optimum = compute_social_optimum(game)

    full_load = game.resource_latencies(
        np.full(game.num_resources, float(game.num_players)))
    slowest = int(np.argmax(game.incidence @ full_load))
    start = game.all_on_one_state(slowest).counts

    streams = spawn_rngs(run_rng, spec.replicas)
    finals, rounds, converged = _ensemble_trajectories(
        game, protocol, np.tile(start, (spec.replicas, 1)), streams,
        max_rounds=max_rounds, scalar_stop=stop_at_nash(tolerance),
        engine=spec.engine,
    )
    reached = np.array([is_nash(game, final, tolerance=tolerance)
                        for final in finals], dtype=bool)
    costs = np.array([game.social_cost(final) for final in finals], dtype=float)
    converged_rounds = [float(r) for r, ok in zip(rounds, converged) if ok]
    mean_cost = float(np.mean(costs))
    return {
        "trials": spec.replicas,
        "nash_reached_fraction": float(np.mean(reached)),
        "mean_rounds_converged": _mean_or_none(converged_rounds),
        "non_converged_trials": int(np.sum(~converged)),
        "mean_final_cost": mean_cost,
        "cost_over_optimum": mean_cost / optimum.social_cost,
    }


# ----------------------------------------------------------------------
# Network-routing convergence measure (E14)
# ----------------------------------------------------------------------

def _measure_network_convergence(spec: SweepSpec, params: Mapping[str, Any],
                                 game: CongestionGame, protocol: Protocol,
                                 run_rng: np.random.SeedSequence) -> dict[str, Any]:
    """Routing-dynamics convergence on a network topology (E14).

    Replicas start from independent uniform-random path assignments and run
    until a ``(delta, epsilon)``-approximate equilibrium (or the round
    budget).  Besides the convergence statistics the row records the
    realised strategy-set size and edge count — the quantities the
    network-scaling study sweeps — and the mean final social cost (average
    latency), which is what the Braess-paradox comparison reads off.
    Non-converged replicas are excluded from the round/cost means and
    reported in ``non_converged_trials`` (the suite-wide convention).  Both
    engines derive the same per-replica streams, so loop and batch rows are
    bit-identical.
    """
    delta = float(params.get("delta", 0.25))
    epsilon = float(params.get("epsilon", 0.25))
    max_rounds = int(params.get("max_rounds", spec.max_rounds))

    starts = []
    run_streams = []
    for trial_seq in run_rng.spawn(spec.replicas):
        start_seq, dynamics_seq = trial_seq.spawn(2)
        starts.append(game.uniform_random_state(
            np.random.default_rng(start_seq)).counts)
        run_streams.append(np.random.default_rng(dynamics_seq))

    finals, rounds, converged = _ensemble_trajectories(
        game, protocol, np.stack(starts), run_streams,
        max_rounds=max_rounds,
        scalar_stop=stop_at_approx_equilibrium(delta, epsilon),
        batch_stop=batch_stop_at_approx_equilibrium(delta, epsilon),
        engine=spec.engine,
    )
    costs = np.array([game.social_cost(final) for final in finals], dtype=float)
    converged_rounds = [float(r) for r, ok in zip(rounds, converged) if ok]
    converged_costs = [float(c) for c, ok in zip(costs, converged) if ok]
    return {
        "trials": spec.replicas,
        "num_paths": game.num_strategies,
        "num_edges": game.num_resources,
        "sparse_incidence": bool(game.uses_sparse_incidence),
        "converged_fraction": float(np.mean(converged)),
        "mean_rounds_converged": _mean_or_none(converged_rounds),
        "non_converged_trials": int(np.sum(~converged)),
        "mean_final_cost": _mean_or_none(converged_costs),
    }


# ----------------------------------------------------------------------
# Error-term measure (F1)
# ----------------------------------------------------------------------

def _measure_error_terms(spec: SweepSpec, params: Mapping[str, Any],
                         game: CongestionGame, protocol: Protocol,
                         run_rng: np.random.SeedSequence) -> dict[str, Any]:
    """Lemma 1 / Lemma 2 error-term statistics over sampled rounds (F1).

    The batch engine draws all ``replicas`` migration samples in one stacked
    multinomial; the loop engine draws them one by one from the same
    generator — bit-identical stacks either way.  The decomposition runs
    through :func:`repro.core.potential.potential_breakdown_batch` in both
    cases.
    """
    state_seq, sample_seq = run_rng.spawn(2)
    state = game.uniform_random_state(np.random.default_rng(state_seq))
    counts = state.counts
    probabilities = protocol.switch_probabilities(game, counts)
    gen = np.random.default_rng(sample_seq)
    migrations = _stacked_migrations(counts, probabilities.matrix,
                                     spec.replicas, gen, spec.engine)
    breakdown = potential_breakdown_batch(game, counts, migrations)

    meaningful = breakdown.virtual_gains < -1e-12
    error_ratios = (breakdown.error_sums[meaningful]
                    / np.abs(breakdown.virtual_gains[meaningful]))
    expected_virtual = expected_virtual_potential_gain(game, protocol, counts)
    mean_true = float(np.mean(breakdown.true_gains))
    return {
        "samples": spec.replicas,
        "lemma1_holds_fraction": float(np.mean(breakdown.lemma1_holds)),
        "mean_error_over_virtual": (float(np.mean(error_ratios))
                                    if error_ratios.size else 0.0),
        "expected_virtual_gain": expected_virtual,
        "lemma2_bound_half_virtual": 0.5 * expected_virtual,
        "mean_true_potential_gain": mean_true,
        "lemma2_satisfied": bool(
            mean_true <= 0.5 * expected_virtual
            + 1e-6 * abs(expected_virtual) + 1e-9
        ),
    }


MEASURES: dict[str, Callable[..., dict[str, Any]]] = {
    "approx_equilibrium_time": _measure_approx_equilibrium,
    "imitation_stable_time": _measure_imitation_stable,
    "nash_time": _measure_nash,
    "overshoot_ratio": _measure_overshoot,
    "dynamics_work": _measure_dynamics_work,
    "virtual_agent_nash": _measure_virtual_agent_nash,
    "network_convergence": _measure_network_convergence,
    "error_term_ratio": _measure_error_terms,
}


# ----------------------------------------------------------------------
# The point runner
# ----------------------------------------------------------------------

def run_point(spec: SweepSpec, point: SweepPoint,
              seed_sequence: np.random.SeedSequence) -> dict[str, Any]:
    """Execute one sweep point and return its result row.

    The row carries the point identity (``point_index``, ``point_key``), the
    point's parameters and the measure's columns — everything
    JSON-serialisable so the store can persist it verbatim.  A ``"game"`` or
    ``"protocol"`` entry in the point's parameters overrides the spec-level
    default, which lets a single sweep compare game families or protocols
    along an axis.  The measures run on ``spec.engine``: the engine travels
    with the spec, and so with its content hash and store key.
    """
    validate_engine(spec.engine, context="sweep kernel")
    instance_rng, run_rng = seed_sequence.spawn(2)
    game_name = str(point.params.get("game", spec.game))
    protocol_name = str(point.params.get("protocol", spec.protocol))
    game = build_game(game_name, point.params, instance_rng)
    protocol = build_protocol(protocol_name, point.params)
    columns = MEASURES[spec.measure](spec, point.params, game, protocol,
                                     run_rng)
    return {
        "point_index": point.index,
        "point_key": point.key,
        **point.params,
        **columns,
    }

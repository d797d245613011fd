"""The native round kernel: a fused, buffer-reusing ensemble engine.

The batched engine (:mod:`repro.core.ensemble`) is pure numpy: every round
materialises an ``(R, S, S)`` switch-probability stack plus half a dozen
same-shaped temporaries, and its floor is numpy's per-call dispatch
overhead.  This module executes the same dynamics as one fused pass per
round — switch-probability evaluation, migration draws, and the migration
apply happen in a single sweep over the occupied (replica, origin) rows,
and no ``(R, S, S)`` tensor ever exists:

* games are lowered once to flat arrays (:func:`lower_game`): CSR-style
  incidence index arrays plus per-resource latency coefficients/value
  tables (:meth:`~repro.games.base.CongestionGame.kernel_latency_tables`);
* protocols are lowered to :class:`~repro.core.protocols.KernelComponents`
  — all of the paper's protocols (imitation in every variant, exploration,
  and their mixtures) share one component form;
* the hot loop (:func:`_chunk_loops`) is plain Python compiled by numba's
  ``@njit``; :func:`run_native_ensemble` drives it and needs numba;
* retired replicas are compacted out of the working arrays in place each
  round (stable order, original indices preserved through an ``orig``
  index map), so a finished replica costs nothing;
* ``dtype="float32"`` switches every latency/probability buffer to single
  precision — halving the kernel's memory traffic for large games — while
  counts stay exact ``int64``.

Without numba there is no kernel to run: ``EnsembleDynamics.run(backend=
"native")`` then runs the batch round on the engine's single generator
(``native_mode`` ``"batch-round"`` in :func:`repro.engines.
engine_runtime_info`), and ``dtype="float32"`` raises
:class:`~repro.errors.NativeBackendError`.

Reproducibility contract (docs/ENGINE.md): the kernel is exactly
reproducible from its seed, but it draws each origin's migrations through a
sequential conditional-binomial decomposition of the multinomial rather
than numpy's stacked ``multinomial``.  The two samplers have identical
distributions yet different bit streams, so the kernel agrees with
loop/batch in distribution and on every *deterministic* quantity (switch
probabilities, stop decisions, latencies — ``allclose``), not
sample-path-wise.  Fused stop conditions reproduce the batched stop
semantics exactly: the stop test runs on the pre-round state, then
quiescence, then the migration draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EngineError, NativeBackendError
from ..games.base import CongestionGame
from ..rng import RngLike, ensure_rng
from .dynamics import StopReason
from .protocols import KernelComponents, Protocol

try:  # numba is optional: without it ``native`` runs the batch round
    import numba as _numba
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-free installs
    _numba = None
    _njit = None
    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "numba_version",
    "KernelGame",
    "lower_game",
    "lower_protocol",
    "lower_stop_condition",
    "jit_available",
    "check_batch_round",
    "run_native_ensemble",
]

#: Rounds advanced per kernel invocation when nothing (collector cadence,
#: observer, generic stop condition) forces a shorter synchronisation.
_DEFAULT_CHUNK = 512

#: Stop-kind codes of the fused stop conditions.
_STOP_NONE = 0
_STOP_APPROX_EQ = 1
_STOP_IMITATION_STABLE = 2
_STOP_NASH = 3

#: Reason codes written by the kernels (mapped to StopReason at the end).
_REASON_MAX_ROUNDS = 0
_REASON_STOP = 1
_REASON_QUIESCENT = 2

_REASONS = {
    _REASON_MAX_ROUNDS: StopReason.MAX_ROUNDS,
    _REASON_STOP: StopReason.STOP_CONDITION,
    _REASON_QUIESCENT: StopReason.QUIESCENT,
}


def numba_version() -> Optional[str]:
    """Installed numba version, or ``None`` without numba."""
    return _numba.__version__ if NUMBA_AVAILABLE else None


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelGame:
    """A congestion game lowered to flat arrays for the fused kernel."""

    num_players: int
    num_strategies: int
    num_resources: int
    dtype: np.dtype
    # CSR incidence, both directions (see CongestionGame.kernel_incidence).
    strat_indptr: np.ndarray
    strat_indices: np.ndarray
    res_indptr: np.ndarray
    res_indices: np.ndarray
    # Latency lowering (see CongestionGame.kernel_latency_tables).
    lat_kind: np.ndarray
    poly_coeffs: np.ndarray
    lat_table: np.ndarray
    table_row: np.ndarray


def _resolve_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise EngineError(
            f"native backend supports dtype 'float64' or 'float32', "
            f"got {dtype!r}"
        )
    return resolved


def lower_game(game: CongestionGame, dtype="float64") -> KernelGame:
    """Lower ``game`` to the kernel representation (cheap; the underlying
    index/table arrays are cached on the game instance)."""
    resolved = _resolve_dtype(dtype)
    strat_indptr, strat_indices, res_indptr, res_indices = game.kernel_incidence()
    lat_kind, poly_coeffs, lat_table, table_row = game.kernel_latency_tables(resolved)
    return KernelGame(
        num_players=game.num_players,
        num_strategies=game.num_strategies,
        num_resources=game.num_resources,
        dtype=resolved,
        strat_indptr=strat_indptr,
        strat_indices=strat_indices,
        res_indptr=res_indptr,
        res_indices=res_indices,
        lat_kind=lat_kind,
        poly_coeffs=poly_coeffs,
        lat_table=lat_table,
        table_row=table_row,
    )


def lower_protocol(protocol: Protocol, game: CongestionGame) -> KernelComponents:
    """Lower ``protocol`` or raise :class:`NativeBackendError` naming it."""
    components = protocol.kernel_components(game)
    if components is None:
        raise NativeBackendError(
            f"protocol {type(protocol).__name__} ({protocol.describe()}) has "
            f"no kernel lowering (kernel_components returned None); use "
            f"engine='batch' for bespoke protocols"
        )
    return components


def lower_stop_condition(stop_condition, game: CongestionGame
                         ) -> Optional[tuple[int, float, float, float]]:
    """Fused-stop parameters ``(kind, a, b, c)`` for a tagged batched stop
    condition, or ``None`` for a generic callable.

    The batched stop factories in :mod:`repro.core.ensemble` tag their
    closures with ``native_spec``; anything untagged is evaluated as
    ordinary Python between rounds (forcing per-round synchronisation).
    """
    spec = getattr(stop_condition, "native_spec", None)
    if spec is None:
        return None
    kind = spec[0]
    if kind == "approx_equilibrium":
        delta, epsilon, nu = spec[1:]
        bound = game.nu_bound if nu is None else float(nu)
        return (_STOP_APPROX_EQ, float(delta), float(epsilon), bound)
    if kind == "imitation_stable":
        (nu,) = spec[1:]
        bound = game.nu_bound if nu is None else float(nu)
        return (_STOP_IMITATION_STABLE, 0.0, 0.0, bound)
    if kind == "nash":
        (tolerance,) = spec[1:]
        return (_STOP_NASH, 0.0, 0.0, float(tolerance))
    raise NativeBackendError(f"unknown native stop spec {spec!r}")


# ----------------------------------------------------------------------
# Fused chunk kernel (numba-compiled when available)
# ----------------------------------------------------------------------

def _chunk_loops(counts, orig, num_active, round_start, num_rounds,
                 n_players, stop_quiescent,
                 s_indptr, s_indices, r_indptr, r_indices,
                 lat_kind, poly_coeffs, lat_table, table_row,
                 comp_w, comp_factor, comp_thresh, comp_kind, comp_virt,
                 stop_kind, stop_a, stop_b, stop_c,
                 rounds_out, moves_out, reason_out, final_counts, last_moves,
                 loads, lat_now, lat_plus, strat_lat, joined, ov, prob, delta):
    """Advance up to ``num_rounds`` rounds over the first ``num_active``
    rows of ``counts`` in one fused pass per (replica, round).

    Returns ``(new_num_active, rounds_entered)``.  Retired rows are
    compacted out in place (stable order); all ``*_out`` arrays are indexed
    by original replica index through ``orig``.  The scratch arrays
    (``loads`` .. ``delta``) are preallocated by the caller and shared
    across replicas, so a chunk allocates nothing.
    """
    S = counts.shape[1]
    m = lat_kind.shape[0]
    C = comp_w.shape[0]
    K = poly_coeffs.shape[1]
    A = num_active
    entered = 0
    for round_index in range(round_start, round_start + num_rounds):
        if A == 0:
            break
        entered += 1
        write = 0
        for i in range(A):
            oi = orig[i]
            # ---- resource loads -------------------------------------
            for e in range(m):
                loads[e] = 0
            for p in range(S):
                c = counts[i, p]
                if c > 0:
                    for idx in range(s_indptr[p], s_indptr[p + 1]):
                        loads[s_indices[idx]] += c
            # ---- resource latencies at x and x+1 --------------------
            for e in range(m):
                if lat_kind[e] == 0:
                    x = float(loads[e])
                    v0 = float(poly_coeffs[e, 0])
                    v1 = float(poly_coeffs[e, 0])
                    for k in range(1, K):
                        v0 = v0 * x + poly_coeffs[e, k]
                        v1 = v1 * (x + 1.0) + poly_coeffs[e, k]
                    lat_now[e] = v0
                    lat_plus[e] = v1
                else:
                    t = table_row[e]
                    lat_now[e] = lat_table[t, loads[e]]
                    lat_plus[e] = lat_table[t, loads[e] + 1]
            # ---- strategy latencies l_P(x) and l_P(x + 1_P) ---------
            for p in range(S):
                s0 = 0.0
                s1 = 0.0
                for idx in range(s_indptr[p], s_indptr[p + 1]):
                    e = s_indices[idx]
                    s0 += lat_now[e]
                    s1 += lat_plus[e]
                strat_lat[p] = s0
                joined[p] = s1
            # ---- fused stop condition (pre-round state) -------------
            stopped = False
            if stop_kind == 1:  # approx equilibrium (Definition 1)
                avg = 0.0
                avg_plus = 0.0
                for p in range(S):
                    cf = float(counts[i, p])
                    avg += cf * strat_lat[p]
                    avg_plus += cf * joined[p]
                avg /= n_players
                avg_plus /= n_players
                unsat = 0.0
                for p in range(S):
                    lp = strat_lat[p]
                    if (lp > (1.0 + stop_b) * avg_plus + stop_c
                            or lp < (1.0 - stop_b) * avg - stop_c):
                        unsat += float(counts[i, p])
                stopped = unsat / n_players <= stop_a
            elif stop_kind == 2 or stop_kind == 3:
                # Early-exit scan: the first pair gaining more than the
                # bound disproves stability, so non-final rounds are cheap.
                stopped = True
                for p in range(S):
                    if counts[i, p] <= 0:
                        continue
                    for q in range(S):
                        ov[q] = 0.0
                    for idx in range(s_indptr[p], s_indptr[p + 1]):
                        e = s_indices[idx]
                        mg = lat_plus[e] - lat_now[e]
                        for j in range(r_indptr[e], r_indptr[e + 1]):
                            ov[r_indices[j]] += mg
                    lp = strat_lat[p]
                    for q in range(S):
                        if q == p:
                            continue
                        if stop_kind == 2 and counts[i, q] <= 0:
                            continue
                        gain = lp - (joined[q] - ov[q])
                        if gain > stop_c:
                            stopped = False
                            break
                    if not stopped:
                        break
            if stopped:
                reason_out[oi] = 1
                for q in range(S):
                    final_counts[oi, q] = counts[i, q]
                continue
            # ---- probabilities + migration draws per occupied origin
            any_positive = False
            moved = 0
            for q in range(S):
                delta[q] = 0
            for p in range(S):
                c_p = counts[i, p]
                if c_p <= 0:
                    continue
                # overlap(P, Q) = sum_{e in P} marginal_e * [e in Q],
                # scattered over the users of each resource of P.
                for q in range(S):
                    ov[q] = 0.0
                for idx in range(s_indptr[p], s_indptr[p + 1]):
                    e = s_indices[idx]
                    mg = lat_plus[e] - lat_now[e]
                    for j in range(r_indptr[e], r_indptr[e + 1]):
                        ov[r_indices[j]] += mg
                lp = strat_lat[p]
                row_sum = 0.0
                for q in range(S):
                    if q == p:
                        prob[q] = 0.0
                        continue
                    gain = lp - (joined[q] - ov[q])
                    rel = gain / lp if lp > 0.0 else 0.0
                    pq = 0.0
                    for c in range(C):
                        if gain > comp_thresh[c]:
                            mu = comp_factor[c] * rel
                            if mu < 0.0:
                                mu = 0.0
                            elif mu > 1.0:
                                mu = 1.0
                            if comp_kind[c] == 0:
                                samp = ((float(counts[i, q]) + comp_virt[c])
                                        / (n_players + comp_virt[c] * S))
                            else:
                                samp = 1.0 / S
                            pq += comp_w[c] * mu * samp
                    prob[q] = pq
                    row_sum += pq
                if row_sum <= 0.0:
                    continue
                any_positive = True
                # Multinomial over destinations as a conditional-binomial
                # chain (identical distribution, different bit stream than
                # numpy's stacked multinomial — the native parity tier).
                remaining = c_p
                rem_p = 1.0
                for q in range(S):
                    pq = prob[q]
                    if pq <= 0.0:
                        continue
                    if remaining <= 0 or rem_p <= 0.0:
                        break
                    cond = pq / rem_p
                    if cond > 1.0:
                        cond = 1.0
                    k = np.random.binomial(remaining, cond)  # lint: disable=DET002 -- numba nopython RNG, seeded per chunk by _seed_loops
                    if k > 0:
                        delta[q] += k
                        delta[p] -= k
                        moved += k
                        remaining -= k
                    rem_p -= pq
            if not any_positive and stop_quiescent:
                reason_out[oi] = 2
                for q in range(S):
                    final_counts[oi, q] = counts[i, q]
                continue
            # ---- apply + stable in-place compaction -----------------
            for q in range(S):
                counts[write, q] = counts[i, q] + delta[q]
            orig[write] = oi
            rounds_out[oi] = round_index + 1
            moves_out[oi] += moved
            last_moves[oi] = moved
            write += 1
        A = write
    return A, entered


def _seed_loops(seed):
    """Seed the (numba-internal) RNG the loop kernel draws from.

    Inside an ``@njit`` function numba replaces ``np.random`` with its own
    thread-local generator — the module-level numpy stream is untouched,
    and the jitted kernels have no other RNG API available.  The engine
    seeds every chunk explicitly, so determinism holds; the lint
    suppressions record that this is the sanctioned exception.
    """
    np.random.seed(seed)  # lint: disable=DET002 -- numba-internal RNG, explicitly seeded per chunk


if NUMBA_AVAILABLE:  # compile lazily on first call, per dtype signature
    _chunk_loops_jit = _njit(cache=False)(_chunk_loops)
    _seed_loops_jit = _njit(cache=False)(_seed_loops)
else:  # pragma: no cover - numba-free installs run the batch round instead
    _chunk_loops_jit = None
    _seed_loops_jit = None


def jit_available() -> bool:
    """Whether the compiled kernel is there to run, read at call time.

    ``EnsembleDynamics.run(backend="native")`` dispatches on this, so a
    test can substitute the plain-Python kernel for the compiled one
    without changing what :data:`NUMBA_AVAILABLE` reports."""
    return _chunk_loops_jit is not None


def check_batch_round(game: CongestionGame, protocol: Protocol,
                      dtype) -> None:
    """Refuse what ``native`` cannot run when it runs the batch round.

    The protocol must still have a kernel lowering, so ``native`` accepts
    the same protocols with and without numba; float32 arithmetic exists
    only in the compiled kernel, so it raises :class:`NativeBackendError`
    naming numba."""
    lower_protocol(protocol, game)
    if _resolve_dtype(dtype) != np.float64:
        raise NativeBackendError(
            "dtype='float32' runs only in the numba-compiled native kernel, "
            "and numba is not installed; without numba the native engine "
            "runs the float64 batch round (docs/ENGINE.md)"
        )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def run_native_ensemble(
    game: CongestionGame,
    protocol: Protocol,
    initial_states=None,
    *,
    replicas: Optional[int] = None,
    max_rounds: int = 10_000,
    stop_condition=None,
    stop_when_quiescent: bool = True,
    collector=None,
    observer=None,
    strict: bool = False,
    rng: RngLike = None,
    dtype="float64",
    trace=None,
):
    """Run the fused native engine; returns an
    :class:`~repro.core.ensemble.EnsembleResult` interchangeable with the
    batched engine's (original replica indexing everywhere, including
    traces and ``replica(i)`` round-trips, despite in-place compaction).

    Parameters mirror :meth:`EnsembleDynamics.run`; additionally ``dtype``
    selects the accumulation precision of the latency/probability buffers
    (``"float32"`` halves memory traffic at ~1e-5 relative accuracy).  The
    chunks run in the numba-compiled :func:`_chunk_loops`; without numba
    this raises :class:`NativeBackendError` (``EnsembleDynamics.run`` runs
    the batch round instead).

    ``trace`` (optional :class:`repro.telemetry.RoundTracer`) reports
    **coarsely, at kernel-chunk boundaries only** — per-round events would
    force ``sync = 1`` and deoptimize the fused hot loop, so the tracer
    samples the counters the kernel already maintains (``moves_out``,
    ``rounds_out``) outside the jitted region and never changes the
    synchronisation granularity.  Traced native runs therefore consume the
    identical random stream and produce identical results.
    """
    from .ensemble import EnsembleResult  # local import: ensemble ↔ native
    from ..games.state import BatchGameState

    kg = lower_game(game, dtype)
    kp = lower_protocol(protocol, game)
    if not jit_available():
        raise NativeBackendError(
            "the native kernel needs numba, which is not installed; "
            "EnsembleDynamics.run(backend='native') runs the batch round "
            "without it"
        )
    if max_rounds <= 0:
        raise ValueError("max_rounds must be positive")
    gen = ensure_rng(rng)

    if initial_states is None:
        if replicas is None or replicas <= 0:
            raise ValueError("need replicas > 0 when no initial states are given")
        counts = game.uniform_random_batch_state(replicas, gen).to_array()
    else:
        counts = game.validate_batch_state(initial_states).copy()
        if replicas is not None and replicas != counts.shape[0]:
            raise ValueError(
                f"initial_states has {counts.shape[0]} replicas, "
                f"but replicas={replicas} was requested"
            )
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    num_replicas, S = counts.shape

    fused = (lower_stop_condition(stop_condition, game)
             if stop_condition is not None else (_STOP_NONE, 0.0, 0.0, 0.0))
    generic_stop = stop_condition if fused is None else None
    if fused is None:
        fused = (_STOP_NONE, 0.0, 0.0, 0.0)
    stop_kind, stop_a, stop_b, stop_c = fused

    # Synchronisation granularity: generic stops and observers need the
    # Python layer every round; a collector needs it at its cadence.
    if generic_stop is not None or observer is not None:
        sync = 1
    elif collector is not None:
        sync = collector.every
    else:
        sync = _DEFAULT_CHUNK

    orig = np.arange(num_replicas, dtype=np.int64)
    rounds_out = np.zeros(num_replicas, dtype=np.int64)
    moves_out = np.zeros(num_replicas, dtype=np.int64)
    reason_out = np.zeros(num_replicas, dtype=np.int64)  # MAX_ROUNDS
    last_moves = np.zeros(num_replicas, dtype=np.int64)
    final_counts = counts.copy()  # retired rows frozen here at retirement

    # The kernel draws from numba's internal RNG; seed it from the
    # driver's generator so the whole run derives from one seed.
    _seed_loops_jit(int(gen.integers(0, 2**32)))
    scratch = (
        np.zeros(kg.num_resources, dtype=np.int64),   # loads
        np.empty(kg.num_resources, dtype=kg.dtype),   # lat_now
        np.empty(kg.num_resources, dtype=kg.dtype),   # lat_plus
        np.empty(S, dtype=kg.dtype),                  # strat_lat
        np.empty(S, dtype=kg.dtype),                  # joined
        np.empty(S, dtype=np.float64),                # ov
        np.empty(S, dtype=np.float64),                # prob
        np.zeros(S, dtype=np.int64),                  # delta
    )

    def run_chunk(active, start, span):
        return _chunk_loops_jit(
            counts, orig, active, start, span,
            float(kg.num_players), stop_when_quiescent,
            kg.strat_indptr, kg.strat_indices,
            kg.res_indptr, kg.res_indices,
            kg.lat_kind, kg.poly_coeffs, kg.lat_table, kg.table_row,
            kp.weights, kp.factors, kp.thresholds,
            kp.sampling_kinds, kp.sampling_virtual,
            stop_kind, stop_a, stop_b, stop_c,
            rounds_out, moves_out, reason_out, final_counts, last_moves,
            *scratch,
        )

    def snapshot() -> np.ndarray:
        final_counts[orig[:active]] = counts[:active]
        return final_counts

    active = num_replicas
    cursor = 0
    last_recorded = 0
    if collector is not None:
        collector.record(0, snapshot())
    if trace is not None:
        trace.run_started(game, engine="native", replicas=num_replicas,
                          max_rounds=max_rounds)

    while active > 0 and cursor < max_rounds:
        span = min(sync, max_rounds - cursor)
        if generic_stop is not None:
            mask = np.asarray(
                generic_stop(game, counts[:active], cursor), dtype=bool)
            if mask.any():
                retired = orig[:active][mask]
                final_counts[retired] = counts[:active][mask]
                reason_out[retired] = _REASON_STOP
                keep = np.nonzero(~mask)[0]
                counts[:keep.size] = counts[:active][keep]
                orig[:keep.size] = orig[:active][keep]
                active = keep.size
                if active == 0:
                    break
        moves_before = int(moves_out.sum()) if trace is not None else 0
        active, entered = run_chunk(active, cursor, span)
        if entered == 0:
            break
        cursor += entered
        if trace is not None:
            trace.chunk_completed(game, snapshot(), orig[:active], cursor,
                                  int(moves_out.sum()) - moves_before)
        if observer is not None:
            movers = np.nonzero(rounds_out == cursor)[0]
            if movers.size:
                observer(game, snapshot(), movers, cursor)
        if collector is not None and collector.should_record(cursor):
            migrations = np.where(rounds_out == cursor, last_moves, 0)
            collector.record(cursor, snapshot(), migrations=migrations)
            last_recorded = cursor

    snapshot()
    if active > 0 and stop_condition is not None:
        # Budget exhausted with live replicas: one final stop look
        # (mirrors the loop and batch engines).
        mask = np.asarray(
            stop_condition(game, counts[:active], max_rounds), dtype=bool)
        reason_out[orig[:active][mask]] = _REASON_STOP
        if (~mask).any() and strict:
            unstopped = int((~mask).sum())
            raise_strict(unstopped, num_replicas, max_rounds)
    elif active > 0 and strict:
        raise_strict(active, num_replicas, max_rounds)

    max_executed = int(rounds_out.max()) if num_replicas else 0
    if collector is not None and last_recorded != max_executed:
        collector.record(max_executed, final_counts)
    if trace is not None:
        trace.run_finished(
            game, final_counts, None, rounds=max_executed,
            total_migrations=int(moves_out.sum()),
            converged=bool((reason_out != _REASON_MAX_ROUNDS).all()),
        )

    return EnsembleResult(
        final_states=BatchGameState(final_counts),
        rounds=rounds_out,
        stop_reasons=[_REASONS[int(code)] for code in reason_out],
        total_migrations=moves_out,
        trace_rounds=collector.rounds if collector is not None else [],
        traces=collector.traces() if collector is not None else {},
    )


def raise_strict(unstopped: int, total: int, max_rounds: int):
    from ..errors import ConvergenceError

    raise ConvergenceError(
        f"{unstopped} of {total} replicas did not stop "
        f"within {max_rounds} rounds"
    )

"""Symmetric congestion games.

A symmetric congestion game is described by a set of *resources* (edges),
one non-decreasing latency function per resource, a common *strategy set*
(each strategy is a non-empty set of resources — a path in the network
interpretation of the paper), and a number of players ``n``.

The class :class:`CongestionGame` stores the strategy/resource incidence
matrix and offers vectorised primitives needed by the dynamics:

* per-strategy latencies ``l_P(x)`` and ``l_P(x + 1_P)``,
* the full post-migration latency matrix ``M[P, Q] = l_Q(x + 1_Q - 1_P)``
  (the latency a player currently on ``P`` would experience after switching
  to ``Q``, all other players fixed),
* the Rosenthal potential ``Phi(x) = sum_e sum_{i<=x_e} l_e(i)``,
* the structural parameters of the paper's analysis: the elasticity bound
  ``d``, the slope bound ``nu``, ``l_max`` and ``l_min``.

States are count vectors ``x_P``; see :mod:`repro.games.state`.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import ModuleType
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import GameDefinitionError, StateError
from ..rng import RngLike
from .evaluation import BatchEvaluation
from .latency import LatencyFunction, validate_latency
from .state import (
    BatchGameState,
    BatchStateLike,
    GameState,
    StateLike,
    all_on_one_counts,
    as_batch_counts,
    as_counts,
    balanced_counts,
    batch_uniform_random_counts,
    uniform_random_counts,
)

Strategy = tuple[int, ...]

__all__ = ["CongestionGame", "Strategy"]


class CongestionGame:
    """A symmetric congestion game on explicit strategy sets.

    Parameters
    ----------
    num_players:
        Number of players ``n`` (must be positive).
    latencies:
        One :class:`~repro.games.latency.LatencyFunction` per resource.
    strategies:
        Iterable of strategies; each strategy is an iterable of resource
        indices.  Duplicate resources within a strategy are ignored.
    resource_names, strategy_names:
        Optional human-readable labels used in reports.
    name:
        Optional instance name.
    validate:
        When True (default) the latency functions are checked against the
        model assumptions on the relevant load range.
    sparse_incidence:
        ``True`` evaluates the strategy/resource products through a sparse
        (CSR) incidence matrix (raising :class:`GameDefinitionError` when
        scipy is unavailable — an explicit request never degrades
        silently), ``False`` through the dense matrix, ``None`` (default)
        picks automatically: sparse when scipy is available and the
        incidence is both large and sparse enough for the CSR products
        to win.  Both paths are vectorised; the sparse path keeps the
        per-round cost proportional to the number of (strategy, resource)
        memberships instead of ``S * m`` — the regime of network games with
        many edges and bounded path length.
    """

    #: Auto-enable the sparse incidence path above this many S*m entries
    #: (provided the density is below _SPARSE_DENSITY and scipy is present).
    _SPARSE_CELLS = 16_384
    _SPARSE_DENSITY = 0.25

    def __init__(
        self,
        num_players: int,
        latencies: Sequence[LatencyFunction],
        strategies: Iterable[Iterable[int]],
        *,
        resource_names: Optional[Sequence[str]] = None,
        strategy_names: Optional[Sequence[str]] = None,
        name: str = "",
        validate: bool = True,
        sparse_incidence: Optional[bool] = None,
    ):
        if num_players <= 0:
            raise GameDefinitionError("a congestion game needs at least one player")
        self._num_players = int(num_players)
        self._latencies = list(latencies)
        if not self._latencies:
            raise GameDefinitionError("a congestion game needs at least one resource")

        normalised: list[Strategy] = []
        for strategy in strategies:
            resources = tuple(sorted(set(int(r) for r in strategy)))
            if not resources:
                raise GameDefinitionError("strategies must use at least one resource")
            if resources[0] < 0 or resources[-1] >= len(self._latencies):
                raise GameDefinitionError(
                    f"strategy {resources} references an unknown resource"
                )
            normalised.append(resources)
        if not normalised:
            raise GameDefinitionError("a congestion game needs at least one strategy")
        self._strategies: tuple[Strategy, ...] = tuple(normalised)

        self._resource_names = (
            list(resource_names)
            if resource_names is not None
            else [f"e{idx}" for idx in range(len(self._latencies))]
        )
        self._strategy_names = (
            list(strategy_names)
            if strategy_names is not None
            else ["{" + ",".join(self._resource_names[r] for r in s) + "}" for s in self._strategies]
        )
        if len(self._resource_names) != len(self._latencies):
            raise GameDefinitionError("resource_names length mismatch")
        if len(self._strategy_names) != len(self._strategies):
            raise GameDefinitionError("strategy_names length mismatch")
        self.name = name or type(self).__name__

        # Strategy/resource incidence matrix (S x m), float for fast matmul.
        incidence = np.zeros((len(self._strategies), len(self._latencies)), dtype=float)
        for idx, strategy in enumerate(self._strategies):
            incidence[idx, list(strategy)] = 1.0
        self._incidence = incidence
        self._incidence.setflags(write=False)
        sparse = self._resolve_sparse(sparse_incidence)
        self._sparse = sparse is not None
        if sparse is not None:
            self._inc_csr = sparse.csr_matrix(incidence)
            self._inc_csr_t = sparse.csr_matrix(incidence.T)
        self._overlap_pairs: Optional[object] = None

        if validate:
            for latency in self._latencies:
                validate_latency(latency, max_load=self._num_players)

        self._potential_table: Optional[np.ndarray] = None
        self._kernel_incidence: Optional[tuple] = None
        self._kernel_latency: dict[str, tuple] = {}
        self._poly_lowering: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._horner: Optional[tuple[np.ndarray, tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def num_players(self) -> int:
        """Number of players ``n``."""
        return self._num_players

    @property
    def num_resources(self) -> int:
        """Number of resources (edges) ``m``."""
        return len(self._latencies)

    @property
    def num_strategies(self) -> int:
        """Number of strategies ``|P|``."""
        return len(self._strategies)

    @property
    def latencies(self) -> list[LatencyFunction]:
        """The per-resource latency functions."""
        return list(self._latencies)

    @property
    def strategies(self) -> tuple[Strategy, ...]:
        """The strategies as sorted tuples of resource indices."""
        return self._strategies

    @property
    def incidence(self) -> np.ndarray:
        """Read-only strategy/resource incidence matrix of shape (S, m)."""
        return self._incidence

    @property
    def uses_sparse_incidence(self) -> bool:
        """True when latency/potential evaluation runs on the CSR incidence."""
        return self._sparse

    def _resolve_sparse(self, requested: Optional[bool]) -> Optional[ModuleType]:
        """The ``scipy.sparse`` module when evaluation runs on the CSR
        incidence, else None.  scipy is imported only after the size/density
        rule has chosen sparse, so dense games never load it."""
        if requested is False:
            return None
        if requested is None:
            cells = self._incidence.size
            density = float(self._incidence.sum()) / cells
            if cells < self._SPARSE_CELLS or density > self._SPARSE_DENSITY:
                return None
        try:
            from scipy import sparse
        except ImportError:
            if requested is None:
                return None
            # An explicit request must not degrade silently: a sweep row's
            # sparse_incidence column is part of the deterministic output,
            # so it cannot depend on which machine happened to have scipy.
            raise GameDefinitionError(
                "sparse_incidence=True requires scipy; install it or "
                "pass sparse_incidence=None/False"
            ) from None
        return sparse

    def _overlap_pair_matrix(self):
        """CSR matrix ``W`` of shape ``(S*S, m)`` with ``W[P*S+Q, e] = 1``
        iff ``e in P ∩ Q`` — the shared-edge structure behind the
        post-migration overlap correction.  Both the scalar and the batched
        sparse paths multiply ``W`` against the marginal-latency matrix, so
        their per-replica arithmetic is identical.
        """
        if self._overlap_pairs is None:
            from scipy import sparse

            num_strategies = self.num_strategies
            rows: list[np.ndarray] = []
            cols: list[np.ndarray] = []
            members = self._inc_csr_t  # row e lists the strategies using e
            for resource in range(self.num_resources):
                users = members.indices[
                    members.indptr[resource]:members.indptr[resource + 1]]
                if users.size == 0:
                    continue
                p_grid, q_grid = np.meshgrid(users, users, indexing="ij")
                rows.append((p_grid * num_strategies + q_grid).ravel())
                cols.append(np.full(users.size * users.size, resource,
                                    dtype=np.int64))
            row_idx = (np.concatenate(rows) if rows
                       else np.empty(0, dtype=np.int64))
            col_idx = (np.concatenate(cols) if cols
                       else np.empty(0, dtype=np.int64))
            self._overlap_pairs = sparse.csr_matrix(
                (np.ones(row_idx.size, dtype=float), (row_idx, col_idx)),
                shape=(num_strategies * num_strategies, self.num_resources),
            )
        return self._overlap_pairs

    def _overlap_correction_batch(self, marginal: np.ndarray) -> np.ndarray:
        """``(R, m)`` marginal latencies -> ``(R, S, S)`` overlap corrections
        through the shared-edge pair matrix (sparse path only)."""
        replicas = marginal.shape[0]
        flat = (self._overlap_pair_matrix() @ marginal.T).T
        return flat.reshape(replicas, self.num_strategies, self.num_strategies)

    # ------------------------------------------------------------------
    # Native-kernel lowering (consumed by repro.core.native)
    # ------------------------------------------------------------------
    def kernel_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style incidence arrays consumable from nopython code (cached).

        Returns ``(strat_indptr, strat_indices, res_indptr, res_indices)``,
        all ``int64``: the resources of strategy ``P`` are
        ``strat_indices[strat_indptr[P]:strat_indptr[P+1]]`` and the
        strategies using resource ``e`` are
        ``res_indices[res_indptr[e]:res_indptr[e+1]]``.  Built from the
        strategy tuples directly (no scipy dependency) — the resource →
        strategies direction is what lets the fused kernel compute the
        overlap correction ``sum_{e in P ∩ Q} marginal_e`` by scattering
        over the users of each resource of ``P`` instead of merging all
        ``S`` candidate strategies.
        """
        if self._kernel_incidence is None:
            strat_indptr = np.zeros(self.num_strategies + 1, dtype=np.int64)
            for idx, strategy in enumerate(self._strategies):
                strat_indptr[idx + 1] = strat_indptr[idx] + len(strategy)
            strat_indices = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in self._strategies])
            users: list[list[int]] = [[] for _ in range(self.num_resources)]
            for idx, strategy in enumerate(self._strategies):
                for resource in strategy:
                    users[resource].append(idx)
            res_indptr = np.zeros(self.num_resources + 1, dtype=np.int64)
            for resource, using in enumerate(users):
                res_indptr[resource + 1] = res_indptr[resource] + len(using)
            res_indices = (np.concatenate(
                [np.asarray(u, dtype=np.int64) for u in users if u])
                if any(users) else np.empty(0, dtype=np.int64))
            for arr in (strat_indptr, strat_indices, res_indptr, res_indices):
                arr.setflags(write=False)
            self._kernel_incidence = (strat_indptr, strat_indices,
                                      res_indptr, res_indices)
        return self._kernel_incidence

    #: Refuse to tabulate latencies past this many table cells — a game with
    #: millions of players must lower its non-polynomial latencies to
    #: coefficients (kernel_poly_coefficients) instead of value tables.
    _KERNEL_TABLE_CELLS = 200_000_000

    def _kernel_poly_lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lat_kind, poly_coeffs)`` in float64 (cached): the polynomial
        half of :meth:`kernel_latency_tables`, shared with the latency
        evaluator of :meth:`resource_latencies_batch`."""
        if self._poly_lowering is None:
            coeff_lists: list[Optional[np.ndarray]] = [
                lat.kernel_poly_coefficients() for lat in self._latencies]
            width = max((c.size for c in coeff_lists if c is not None), default=1)
            lat_kind = np.zeros(self.num_resources, dtype=np.int64)
            poly_coeffs = np.zeros((self.num_resources, width))
            for e, coeffs in enumerate(coeff_lists):
                if coeffs is None:
                    lat_kind[e] = 1
                    continue
                # Horner wants highest degree first; left-pad with zeros.
                poly_coeffs[e, width - coeffs.size:] = coeffs[::-1]
            for arr in (lat_kind, poly_coeffs):
                arr.setflags(write=False)
            self._poly_lowering = (lat_kind, poly_coeffs)
        return self._poly_lowering

    def kernel_latency_tables(self, dtype=np.float64
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-resource latency lowering for the native kernel (cached per dtype).

        Returns ``(lat_kind, poly_coeffs, table, table_row)``:

        * ``lat_kind[e]`` is 0 when resource ``e`` evaluates by a Horner
          pass over ``poly_coeffs[e]`` (highest-degree-first, zero-padded to
          a common width), 1 when it evaluates by lookup in
          ``table[table_row[e], load]``;
        * ``table`` holds exact values at the integer loads ``0..n+1`` for
          every tabulated resource (loads are integral, so the table form is
          exact for arbitrary latency functions, not an approximation).

        Raises :class:`~repro.errors.GameDefinitionError` when tabulation
        would exceed the memory guard (``_KERNEL_TABLE_CELLS`` cells).
        """
        key = np.dtype(dtype).name
        if key not in self._kernel_latency:
            lat_kind, poly_coeffs = self._kernel_poly_lowering()
            poly_coeffs = poly_coeffs.astype(dtype)
            table_resources = np.nonzero(lat_kind)[0].tolist()
            table_row = np.zeros(self.num_resources, dtype=np.int64)
            cells = len(table_resources) * (self.num_players + 2)
            if cells > self._KERNEL_TABLE_CELLS:
                names = [repr(self._latencies[e]) for e in table_resources[:3]]
                raise GameDefinitionError(
                    f"native-kernel latency tables would need {cells} cells "
                    f"({len(table_resources)} non-polynomial resources x "
                    f"{self.num_players + 2} loads); give these latencies a "
                    f"kernel_poly_coefficients form or use engine='batch' "
                    f"(first offenders: {', '.join(names)})"
                )
            if table_resources:
                loads = np.arange(self.num_players + 2, dtype=float)
                table = np.empty((len(table_resources), loads.size), dtype=dtype)
                for row, e in enumerate(table_resources):
                    table[row] = self._latencies[e].value(loads)
                    table_row[e] = row
            else:
                table = np.zeros((1, 1), dtype=dtype)
            for arr in (poly_coeffs, table, table_row):
                arr.setflags(write=False)
            self._kernel_latency[key] = (lat_kind, poly_coeffs, table, table_row)
        return self._kernel_latency[key]

    @property
    def resource_names(self) -> list[str]:
        """Human-readable resource labels."""
        return list(self._resource_names)

    @property
    def strategy_names(self) -> list[str]:
        """Human-readable strategy labels."""
        return list(self._strategy_names)

    @property
    def is_singleton(self) -> bool:
        """True if every strategy consists of exactly one resource."""
        return all(len(s) == 1 for s in self._strategies)

    def strategy_size(self) -> int:
        """``k = max_P |P|``, the maximum number of resources per strategy."""
        return max(len(s) for s in self._strategies)

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------
    def validate_state(self, state: StateLike) -> np.ndarray:
        """Check that ``state`` is a valid count vector for this game and
        return it as an array."""
        counts = as_counts(state)
        if counts.size != self.num_strategies:
            raise StateError(
                f"state has {counts.size} entries, game has {self.num_strategies} strategies"
            )
        total = int(counts.sum())
        if total != self.num_players:
            raise StateError(
                f"state assigns {total} players, game has {self.num_players}"
            )
        return counts

    def validate_batch_state(self, batch: BatchStateLike) -> np.ndarray:
        """Check that every row of ``batch`` is a valid state of this game and
        return the batch as an ``(R, S)`` array."""
        counts = as_batch_counts(batch)
        if counts.shape[1] != self.num_strategies:
            raise StateError(
                f"batch states have {counts.shape[1]} entries, "
                f"game has {self.num_strategies} strategies"
            )
        totals = counts.sum(axis=1)
        bad = np.nonzero(totals != self.num_players)[0]
        if bad.size:
            raise StateError(
                f"replica {int(bad[0])} assigns {int(totals[bad[0]])} players, "
                f"game has {self.num_players}"
            )
        return counts

    def uniform_random_state(self, rng: RngLike = None) -> GameState:
        """Random initialisation: each player independently picks a uniform strategy."""
        return GameState(uniform_random_counts(self.num_players, self.num_strategies, rng))

    def uniform_random_batch_state(self, replicas: int, rng: RngLike = None) -> BatchGameState:
        """``replicas`` independent uniform-random initial states."""
        return BatchGameState(
            batch_uniform_random_counts(self.num_players, self.num_strategies, replicas, rng)
        )

    def all_on_one_state(self, strategy: int = 0) -> GameState:
        """All players on a single strategy."""
        return GameState(all_on_one_counts(self.num_players, self.num_strategies, strategy))

    def balanced_state(self) -> GameState:
        """Players spread as evenly as possible over the strategies."""
        return GameState(balanced_counts(self.num_players, self.num_strategies))

    # ------------------------------------------------------------------
    # Latency evaluation
    # ------------------------------------------------------------------
    def congestion(self, state: StateLike) -> np.ndarray:
        """Per-resource congestion ``x_e = sum_{P ∋ e} x_P`` (shape (m,))."""
        counts = as_counts(state)
        if self._sparse:
            return self._inc_csr_t @ counts.astype(float)
        return self._incidence.T @ counts.astype(float)

    def _horner_lowering(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """``(coefficients, value_resources)`` of the latency evaluator (cached).

        ``coefficients`` is ``(K, m)``, highest degree first, with the
        polynomial rows of :meth:`_kernel_poly_lowering` for every resource
        whose latency is ``horner_exact`` and zeros elsewhere; leading
        all-zero degrees are dropped (``0 * x + c == c`` exactly).
        ``value_resources`` are the resources evaluated by ``lat.value``.
        """
        if self._horner is None:
            lat_kind, poly_coeffs = self._kernel_poly_lowering()
            horner = np.array([kind == 0 and lat.horner_exact
                               for kind, lat in zip(lat_kind, self._latencies)])
            coefficients = np.where(horner[:, np.newaxis], poly_coeffs, 0.0).T
            used = np.nonzero(coefficients.any(axis=1))[0]
            first = int(used[0]) if used.size else coefficients.shape[0] - 1
            coefficients = np.ascontiguousarray(coefficients[first:])
            coefficients.setflags(write=False)
            self._horner = (coefficients, tuple(np.nonzero(~horner)[0].tolist()))
        return self._horner

    def _evaluate_latencies(self, loads: np.ndarray) -> np.ndarray:
        """The one latency evaluator: every resource's latency at ``loads``
        of shape ``(..., m)``.

        A single Horner pass covers the ``horner_exact`` resources and
        ``lat.value`` the rest, one contiguous column each.  Each output
        element depends only on its own load, so the scalar and batched
        callers get bit-identical values.
        """
        coefficients, value_resources = self._horner_lowering()
        latencies = np.empty(loads.shape)
        latencies[...] = coefficients[0]
        for row in coefficients[1:]:
            latencies *= loads
            latencies += row
        for e in value_resources:
            latencies[..., e] = self._latencies[e].value(np.array(loads[..., e]))
        return latencies

    def resource_latencies(self, loads: np.ndarray) -> np.ndarray:
        """Evaluate every resource's latency at the given load vector."""
        return self._evaluate_latencies(np.asarray(loads, dtype=float))

    def strategy_latencies(self, state: StateLike) -> np.ndarray:
        """``l_P(x)`` for every strategy ``P`` (shape (S,))."""
        loads = self.congestion(state)
        latencies = self.resource_latencies(loads)
        if self._sparse:
            return self._inc_csr @ latencies
        return self._incidence @ latencies

    def strategy_latencies_after_join(self, state: StateLike) -> np.ndarray:
        """``l_P^+(x) = l_P(x + 1_P)``: the latency of ``P`` if one extra
        player joined every resource of ``P`` (paper, Section 2.1)."""
        loads = self.congestion(state)
        latencies = self.resource_latencies(loads + 1.0)
        if self._sparse:
            return self._inc_csr @ latencies
        return self._incidence @ latencies

    def post_migration_latency_matrix(self, state: StateLike) -> np.ndarray:
        """Matrix ``M[P, Q] = l_Q(x + 1_Q - 1_P)``.

        ``M[P, Q]`` is the latency a player currently on ``P`` anticipates on
        ``Q`` if it migrates alone.  Resources shared by ``P`` and ``Q`` keep
        their current congestion, all other resources of ``Q`` gain one unit:

        ``M[P, Q] = l_Q^+(x) - sum_{e in P ∩ Q} (l_e(x_e + 1) - l_e(x_e))``.

        The diagonal therefore equals ``l_P(x)``.
        """
        loads = self.congestion(state)
        latency_now = self.resource_latencies(loads)
        latency_plus = self.resource_latencies(loads + 1.0)
        marginal = latency_plus - latency_now
        if self._sparse:
            joined = self._inc_csr @ latency_plus
            overlap_correction = self._overlap_correction_batch(
                marginal[np.newaxis, :])[0]
        else:
            joined = self._incidence @ latency_plus  # l_Q^+ per strategy
            overlap_correction = (self._incidence * marginal) @ self._incidence.T
        return joined[np.newaxis, :] - overlap_correction

    def player_latency(self, state: StateLike, strategy: int) -> float:
        """Latency experienced by a player using ``strategy`` in ``state``."""
        return float(self.strategy_latencies(state)[strategy])

    # ------------------------------------------------------------------
    # Batched latency evaluation (ensemble engine)
    # ------------------------------------------------------------------
    def batch_evaluation(self, batch: Union[BatchStateLike, BatchEvaluation]
                       ) -> BatchEvaluation:
        """Validate ``batch`` once and return its :class:`BatchEvaluation`,
        whose latencies and post-migration matrix are computed on first use
        and shared by every reader; an evaluation of this game is returned
        as it is."""
        if isinstance(batch, BatchEvaluation) and batch.game is self:
            return batch
        return BatchEvaluation(self, self.validate_batch_state(batch))

    def _evaluation(self, batch: Union[BatchStateLike, BatchEvaluation]
                    ) -> BatchEvaluation:
        """Like :meth:`batch_evaluation` without validation beyond
        :func:`as_batch_counts` (the batch methods' historical contract)."""
        if isinstance(batch, BatchEvaluation) and batch.game is self:
            return batch
        return BatchEvaluation(self, as_batch_counts(batch))

    def congestion_batch(self, batch: Union[BatchStateLike, BatchEvaluation]
                         ) -> np.ndarray:
        """Per-replica resource congestion, shape ``(R, m)``."""
        counts = self._evaluation(batch).counts
        if self._sparse:
            return (self._inc_csr_t @ counts.astype(float).T).T
        return counts.astype(float) @ self._incidence

    def resource_latencies_batch(self, loads: np.ndarray) -> np.ndarray:
        """Evaluate every resource's latency on an ``(R, m)`` load matrix
        (the evaluator of :meth:`resource_latencies`, so a batch row equals
        the scalar call bit for bit)."""
        return self._evaluate_latencies(np.asarray(loads, dtype=float))

    def strategy_latencies_batch(self, batch: Union[BatchStateLike, BatchEvaluation]
                                 ) -> np.ndarray:
        """``l_P(x_r)`` for every replica and strategy, shape ``(R, S)``."""
        latencies = self._evaluation(batch).latency_now
        if self._sparse:
            return (self._inc_csr @ latencies.T).T
        return latencies @ self._incidence.T

    def strategy_latencies_after_join_batch(
            self, batch: Union[BatchStateLike, BatchEvaluation]) -> np.ndarray:
        """``l_P(x_r + 1_P)`` per replica and strategy, shape ``(R, S)``."""
        latencies = self._evaluation(batch).latency_plus
        if self._sparse:
            return (self._inc_csr @ latencies.T).T
        return latencies @ self._incidence.T

    def post_migration_latency_matrix_batch(
            self, batch: Union[BatchStateLike, BatchEvaluation]) -> np.ndarray:
        """``M[r, P, Q] = l_Q(x_r + 1_Q - 1_P)``, shape ``(R, S, S)``.

        The broadcasted analogue of :meth:`post_migration_latency_matrix`:
        the marginal latency increase is evaluated once per replica and the
        overlap correction is a batched matrix product.
        """
        evaluation = self._evaluation(batch)
        latency_plus = evaluation.latency_plus
        marginal = latency_plus - evaluation.latency_now  # (R, m)
        if self._sparse:
            joined = (self._inc_csr @ latency_plus.T).T  # (R, S)
            overlap_correction = self._overlap_correction_batch(marginal)
        else:
            joined = latency_plus @ self._incidence.T  # (R, S): l_Q^+ per replica
            overlap_correction = (
                self._incidence[np.newaxis, :, :] * marginal[:, np.newaxis, :]
            ) @ self._incidence.T  # (R, S, S)
        return joined[:, np.newaxis, :] - overlap_correction

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def average_latency(self, state: StateLike) -> float:
        """``L_av(x) = sum_P (x_P / n) l_P(x)``."""
        counts = as_counts(state)
        latencies = self.strategy_latencies(counts)
        return float(counts @ latencies / self.num_players)

    def average_latency_after_join(self, state: StateLike) -> float:
        """``L_av^+(x) = sum_P (x_P / n) l_P(x + 1_P)``."""
        counts = as_counts(state)
        latencies_plus = self.strategy_latencies_after_join(counts)
        return float(counts @ latencies_plus / self.num_players)

    def total_latency(self, state: StateLike) -> float:
        """``sum_P x_P l_P(x) = n * L_av(x)``."""
        counts = as_counts(state)
        return float(counts @ self.strategy_latencies(counts))

    def social_cost(self, state: StateLike) -> float:
        """Social cost used in Section 5.1: the average latency ``L_av``."""
        return self.average_latency(state)

    def makespan(self, state: StateLike) -> float:
        """Maximum latency sustained by any player (0 if a strategy is empty
        it does not count)."""
        counts = as_counts(state)
        latencies = self.strategy_latencies(counts)
        used = counts > 0
        if not np.any(used):
            return 0.0
        return float(np.max(latencies[used]))

    # ------------------------------------------------------------------
    # Batched aggregates (ensemble engine)
    # ------------------------------------------------------------------
    def average_latency_batch(self, batch: Union[BatchStateLike, BatchEvaluation]
                              ) -> np.ndarray:
        """``L_av(x_r)`` per replica, shape ``(R,)``."""
        evaluation = self._evaluation(batch)
        return np.einsum("rs,rs->r", evaluation.counts.astype(float),
                         evaluation.strategy_latencies) / self.num_players

    def average_latency_after_join_batch(
            self, batch: Union[BatchStateLike, BatchEvaluation]) -> np.ndarray:
        """``L_av^+(x_r)`` per replica, shape ``(R,)``."""
        evaluation = self._evaluation(batch)
        return np.einsum("rs,rs->r", evaluation.counts.astype(float),
                         evaluation.strategy_latencies_plus) / self.num_players

    def total_latency_batch(self, batch: BatchStateLike) -> np.ndarray:
        """``n * L_av(x_r)`` per replica, shape ``(R,)``."""
        return self.average_latency_batch(batch) * self.num_players

    def social_cost_batch(self, batch: BatchStateLike) -> np.ndarray:
        """Per-replica social cost (average latency), shape ``(R,)``."""
        return self.average_latency_batch(batch)

    def makespan_batch(self, batch: BatchStateLike) -> np.ndarray:
        """Per-replica maximum latency over occupied strategies, shape ``(R,)``."""
        evaluation = self._evaluation(batch)
        masked = np.where(evaluation.counts > 0, evaluation.strategy_latencies, -np.inf)
        result = masked.max(axis=1)
        return np.where(np.isfinite(result), result, 0.0)

    def potential_batch(self, batch: BatchStateLike) -> np.ndarray:
        """Rosenthal potential per replica, shape ``(R,)``.

        One table lookup per (replica, resource) pair against the shared
        latency prefix table — no per-replica Python work.
        """
        counts = as_batch_counts(batch)
        loads = np.rint(self.congestion_batch(counts)).astype(int)
        loads = np.clip(loads, 0, self.num_players)
        table = self._latency_prefix_table()
        return table[np.arange(self.num_resources)[np.newaxis, :], loads].sum(axis=1)

    # ------------------------------------------------------------------
    # Rosenthal potential
    # ------------------------------------------------------------------
    def _latency_prefix_table(self) -> np.ndarray:
        """Cumulative sums ``T[e, k] = sum_{i=1..k} l_e(i)`` for ``k = 0..n``."""
        if self._potential_table is None:
            loads = np.arange(1, self.num_players + 1, dtype=float)
            rows = []
            for latency in self._latencies:
                values = latency.value(loads)
                rows.append(np.concatenate(([0.0], np.cumsum(values))))
            self._potential_table = np.vstack(rows)
            self._potential_table.setflags(write=False)
        return self._potential_table

    def potential(self, state: StateLike) -> float:
        """Rosenthal potential ``Phi(x) = sum_e sum_{i=1..x_e} l_e(i)``."""
        counts = as_counts(state)
        loads = np.rint(self.congestion(counts)).astype(int)
        table = self._latency_prefix_table()
        return float(table[np.arange(self.num_resources), np.clip(loads, 0, self.num_players)].sum())

    def potential_upper_bound(self) -> float:
        """A coarse upper bound on the potential over all states:
        every resource loaded with all ``n`` players."""
        table = self._latency_prefix_table()
        return float(table[:, -1].sum())

    def minimum_potential(self, *, exhaustive_limit: int = 200_000) -> float:
        """``Phi* = min_x Phi(x)``.

        Computed exactly by enumerating states when the state space is small
        (at most ``exhaustive_limit`` states), otherwise by best-response
        descent from several starting points (which reaches a local minimum
        of the potential; for the logarithmic bounds of the paper only the
        order of magnitude matters).
        """
        from .nash import best_response_potential_minimum  # local import, avoids cycle

        return best_response_potential_minimum(self, exhaustive_limit=exhaustive_limit)

    # ------------------------------------------------------------------
    # Structural parameters (paper Section 2.2)
    # ------------------------------------------------------------------
    @cached_property
    def elasticity_bound(self) -> float:
        """``d``: maximum elasticity of any latency function on ``(0, n]``.

        The protocol requires ``d >= 1`` as a damping denominator, so the
        returned value is clamped below at 1.
        """
        bound = max(lat.elasticity_bound(self.num_players) for lat in self._latencies)
        return max(1.0, float(bound))

    @cached_property
    def resource_slope_bounds(self) -> np.ndarray:
        """``nu_e`` per resource: maximum step of ``l_e`` on loads ``1..d``."""
        d = int(math.ceil(self.elasticity_bound))
        return np.array([lat.slope_bound(d) for lat in self._latencies], dtype=float)

    @cached_property
    def strategy_slope_bounds(self) -> np.ndarray:
        """``nu_P = sum_{e in P} nu_e`` per strategy."""
        return self._incidence @ self.resource_slope_bounds

    @cached_property
    def nu_bound(self) -> float:
        """``nu >= max_P nu_P``: the gain threshold used by the protocol."""
        return float(np.max(self.strategy_slope_bounds))

    @cached_property
    def max_strategy_latency(self) -> float:
        """``l_max``: maximum latency of any strategy over all states,
        bounded by loading every resource of the strategy with all n players."""
        full_load = self.resource_latencies(np.full(self.num_resources, float(self.num_players)))
        return float(np.max(self._incidence @ full_load))

    @cached_property
    def min_resource_latency(self) -> float:
        """``l_min = min_e l_e(1)``: minimum latency of a resource used by one player.

        :class:`~repro.games.latency.ZeroLatency` structural helper edges
        (the connectors of the network generators) are excluded — they are
        exempt from the positivity assumption, so letting them drag ``l_min``
        to zero would poison every bound derived from it.
        """
        single_load = self.resource_latencies(np.ones(self.num_resources))
        real = np.array([not lat.is_structural_zero for lat in self._latencies])
        if np.any(real):
            return float(np.min(single_load[real]))
        return float(np.min(single_load))

    @cached_property
    def max_slope(self) -> float:
        """``beta``: maximum one-player latency increase of any strategy over
        all loads (used by the EXPLORATION PROTOCOL damping)."""
        loads = np.arange(1, self.num_players + 1, dtype=float)
        per_resource = []
        for latency in self._latencies:
            values = latency.value(loads)
            values_prev = latency.value(loads - 1.0)
            per_resource.append(float(np.max(values - values_prev)))
        per_resource_array = np.asarray(per_resource)
        return float(np.max(self._incidence @ per_resource_array))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def restrict_to_strategies(self, keep: Sequence[int]) -> "CongestionGame":
        """Return a copy of the game with the strategy set restricted to
        ``keep`` (used by the Price-of-Imitation analysis which removes
        emptied resources)."""
        keep = list(keep)
        if not keep:
            raise GameDefinitionError("cannot restrict to an empty strategy set")
        return CongestionGame(
            self.num_players,
            self._latencies,
            [self._strategies[i] for i in keep],
            resource_names=self._resource_names,
            strategy_names=[self._strategy_names[i] for i in keep],
            name=f"{self.name}|restricted",
            validate=False,
        )

    def describe(self) -> str:
        """One-line description used in experiment tables."""
        return (f"{self.name}: n={self.num_players}, m={self.num_resources}, "
                f"|P|={self.num_strategies}, d<={self.elasticity_bound:.3g}")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.num_players}, m={self.num_resources}, "
                f"strategies={self.num_strategies})")

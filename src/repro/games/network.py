"""Symmetric network congestion games.

The paper defines its model in terms of a directed network ``G = (V, E)``
with a common source ``s`` and sink ``t``: the strategy set of every player
is the set of simple ``s``-``t`` paths and the latency of a path is the sum
of the latencies of its edges.  This module builds such games on top of
:mod:`networkx`:

* :class:`NetworkCongestionGame` turns a graph into a game through one of
  three *strategy-generation modes* (see below) and exposes it through the
  generic :class:`~repro.games.base.CongestionGame` interface, keeping the
  edge/path structure around for reporting;
* a collection of generators for the standard topologies used in the
  experiments (parallel links, the Braess network, layered random DAGs and
  series-parallel grids).

Strategy-generation modes
-------------------------
The number of simple ``s``-``t`` paths grows exponentially with the network
size, so exhaustive enumeration stops being a *construction* option long
before the dynamics stop being a *simulation* option.  The mode decides how
the bounded strategy set is built:

``"enumerate"`` (default)
    All simple paths via :func:`networkx.all_simple_paths`, hard-capped at
    ``max_paths`` (a :class:`GameDefinitionError` is raised when the cap is
    exceeded, so callers never silently truncate the strategy space).
``"k-shortest"``
    The ``num_paths`` shortest simple paths by *free-flow* latency (the
    path latency when used by a single player), via Yen's algorithm
    (:func:`networkx.shortest_simple_paths`).  Deterministic: depends only
    on the graph and its latencies.
``"dag-sample"``
    For acyclic graphs: a dynamic program counts the ``s``-``t`` paths
    through every node (exact big-integer counts), then ``num_paths``
    *distinct* paths are drawn uniformly at random from the full path set
    by walking the DAG with successor probabilities proportional to the
    downstream path counts.  The free-flow shortest path is always included
    as the first strategy.  Deterministic and seedable: the sample depends
    only on the graph and ``path_rng``, never on enumeration order — so a
    12-layer DAG with millions of paths is constructed in milliseconds.

Both bounded modes pair naturally with the sparse path-by-edge incidence
matrix (``sparse_incidence``, see :class:`~repro.games.base.CongestionGame`),
which keeps batched latency/potential/social-cost evaluation proportional to
the total path length instead of ``num_paths * num_edges``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..errors import GameDefinitionError
from ..rng import RngLike, ensure_rng
from .base import CongestionGame
from .latency import (
    ConstantLatency,
    LatencyFunction,
    LinearLatency,
    MonomialLatency,
    ZeroLatency,
)

# networkx is imported by the functions that call it, so that importing
# repro (and building non-network games) does not need it.
if TYPE_CHECKING:
    import networkx as nx

Edge = tuple[Hashable, Hashable]

__all__ = [
    "NetworkCongestionGame",
    "STRATEGY_MODES",
    "braess_network_game",
    "parallel_links_network_game",
    "layered_random_network_game",
    "grid_network_game",
    "series_parallel_network_game",
]

#: The strategy-generation modes of :class:`NetworkCongestionGame`.
STRATEGY_MODES = ("enumerate", "k-shortest", "dag-sample")


class NetworkCongestionGame(CongestionGame):
    """A symmetric congestion game defined on a directed network.

    Parameters
    ----------
    graph:
        Directed graph.  Each edge must carry a ``"latency"`` attribute
        holding a :class:`~repro.games.latency.LatencyFunction` (or one is
        supplied through ``edge_latencies``).
    source, sink:
        Common origin and destination of all players.
    num_players:
        Number of players routing from ``source`` to ``sink``.
    edge_latencies:
        Optional mapping ``(u, v) -> LatencyFunction`` overriding/replacing
        edge attributes.
    max_paths:
        Safety cap on the number of enumerated simple paths
        (``strategy_mode="enumerate"`` only).  ``None`` means "enumerate
        everything"; a :class:`GameDefinitionError` is raised when the cap
        is exceeded so that callers never silently truncate the strategy
        space.
    strategy_mode:
        One of :data:`STRATEGY_MODES` — how the strategy set is built (see
        the module docstring).
    num_paths:
        Strategy-set bound for the ``"k-shortest"`` and ``"dag-sample"``
        modes (required there, ignored by ``"enumerate"``).
    path_rng:
        Seed/generator for the ``"dag-sample"`` mode.  The sampled strategy
        set is a pure function of the graph and this seed.
    sparse_incidence:
        Forwarded to :class:`~repro.games.base.CongestionGame`: ``True``
        forces the sparse path-by-edge incidence evaluation, ``False`` the
        dense one, ``None`` picks automatically by size/density.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        source: Hashable,
        sink: Hashable,
        num_players: int,
        *,
        edge_latencies: Optional[Mapping[Edge, LatencyFunction]] = None,
        max_paths: Optional[int] = 10_000,
        strategy_mode: str = "enumerate",
        num_paths: Optional[int] = None,
        path_rng: RngLike = None,
        sparse_incidence: Optional[bool] = None,
        name: str = "network-game",
        validate: bool = True,
    ):
        if source not in graph or sink not in graph:
            raise GameDefinitionError("source and sink must be nodes of the graph")
        if source == sink:
            raise GameDefinitionError("source and sink must differ")

        edges: list[Edge] = list(graph.edges())
        edge_index = {edge: idx for idx, edge in enumerate(edges)}

        latencies: list[LatencyFunction] = []
        for edge in edges:
            latency = None
            if edge_latencies is not None and edge in edge_latencies:
                latency = edge_latencies[edge]
            elif "latency" in graph.edges[edge]:
                latency = graph.edges[edge]["latency"]
            if latency is None:
                raise GameDefinitionError(f"edge {edge} has no latency function")
            if not isinstance(latency, LatencyFunction):
                raise GameDefinitionError(f"edge {edge} latency is not a LatencyFunction")
            latencies.append(latency)

        if strategy_mode not in STRATEGY_MODES:
            raise GameDefinitionError(
                f"unknown strategy_mode {strategy_mode!r}; known: {STRATEGY_MODES}"
            )
        if strategy_mode == "enumerate":
            paths = self._enumerate_paths(graph, source, sink, max_paths)
        else:
            if num_paths is None or num_paths < 1:
                raise GameDefinitionError(
                    f"strategy_mode={strategy_mode!r} needs num_paths >= 1"
                )
            freeflow = {edge: float(lat.value(np.asarray(1.0)))
                        for edge, lat in zip(edges, latencies)}
            if strategy_mode == "k-shortest":
                paths = self._k_shortest_paths(graph, source, sink,
                                               int(num_paths), freeflow)
            else:
                paths = self._sample_dag_paths(graph, source, sink,
                                               int(num_paths), freeflow, path_rng)
        if not paths:
            raise GameDefinitionError(f"no path from {source!r} to {sink!r}")

        strategies: list[list[int]] = []
        strategy_names: list[str] = []
        for path in paths:
            path_edges = list(zip(path[:-1], path[1:]))
            strategies.append([edge_index[e] for e in path_edges])
            strategy_names.append("->".join(str(v) for v in path))

        super().__init__(
            num_players,
            latencies,
            strategies,
            resource_names=[f"{u}->{v}" for u, v in edges],
            strategy_names=strategy_names,
            name=name,
            validate=validate,
            sparse_incidence=sparse_incidence,
        )
        self._graph = graph
        self._source = source
        self._sink = sink
        self._paths = paths
        self._edges = edges
        self._strategy_mode = strategy_mode

    # ------------------------------------------------------------------
    # Strategy generation
    # ------------------------------------------------------------------
    @staticmethod
    def _enumerate_paths(
        graph: nx.DiGraph,
        source: Hashable,
        sink: Hashable,
        max_paths: Optional[int],
    ) -> list[tuple[Hashable, ...]]:
        import networkx as nx

        paths: list[tuple[Hashable, ...]] = []
        for path in nx.all_simple_paths(graph, source, sink):
            paths.append(tuple(path))
            if max_paths is not None and len(paths) > max_paths:
                raise GameDefinitionError(
                    f"more than {max_paths} simple paths between "
                    f"{source!r} and {sink!r}; raise max_paths to allow this, "
                    "or switch to a bounded strategy_mode "
                    "('k-shortest' or 'dag-sample') with num_paths"
                )
        return paths

    @staticmethod
    def _k_shortest_paths(
        graph: nx.DiGraph,
        source: Hashable,
        sink: Hashable,
        num_paths: int,
        freeflow: Mapping[Edge, float],
    ) -> list[tuple[Hashable, ...]]:
        """The ``num_paths`` shortest simple paths by free-flow latency (Yen)."""
        import networkx as nx

        def weight(u: Hashable, v: Hashable, _data: Mapping) -> float:
            return freeflow[(u, v)]

        paths: list[tuple[Hashable, ...]] = []
        try:
            for path in nx.shortest_simple_paths(graph, source, sink, weight=weight):
                paths.append(tuple(path))
                if len(paths) >= num_paths:
                    break
        except nx.NetworkXNoPath:
            return []
        return paths

    @staticmethod
    def _sample_dag_paths(
        graph: nx.DiGraph,
        source: Hashable,
        sink: Hashable,
        num_paths: int,
        freeflow: Mapping[Edge, float],
        path_rng: RngLike,
    ) -> list[tuple[Hashable, ...]]:
        """``num_paths`` distinct paths sampled uniformly from a DAG.

        A reverse-topological dynamic program counts, with exact integer
        arithmetic, the number of ``source``-``sink`` paths through every
        node; walking the DAG with successor probabilities
        ``count(w) / count(v)`` then draws uniform random paths without ever
        materialising the path set.  The free-flow shortest path is placed
        first so the strategy set always contains the best empty-network
        route; when the DAG holds at most ``num_paths`` paths the exact set
        is enumerated instead.
        """
        import networkx as nx

        if not nx.is_directed_acyclic_graph(graph):
            raise GameDefinitionError(
                "strategy_mode='dag-sample' needs an acyclic graph; "
                "use 'k-shortest' or 'enumerate' on cyclic networks"
            )
        counts: dict[Hashable, int] = {sink: 1}
        for node in reversed(list(nx.topological_sort(graph))):
            if node == sink:
                continue
            counts[node] = sum(counts.get(succ, 0)
                               for succ in graph.successors(node))
        total = counts.get(source, 0)
        if total == 0:
            return []
        if total <= num_paths:
            return [tuple(path)
                    for path in nx.all_simple_paths(graph, source, sink)]

        successor_table: dict[Hashable, tuple[list, np.ndarray]] = {}
        for node, count in counts.items():
            if node == sink or count == 0:
                continue
            successors = [succ for succ in graph.successors(node)
                          if counts.get(succ, 0) > 0]
            # Fraction -> float keeps huge integer counts finite.
            probabilities = np.array(
                [float(Fraction(counts[succ], count)) for succ in successors])
            successor_table[node] = (successors,
                                     probabilities / probabilities.sum())

        def weight(u: Hashable, v: Hashable, _data: Mapping) -> float:
            return freeflow[(u, v)]

        anchor = tuple(nx.shortest_path(graph, source, sink, weight=weight))
        paths = [anchor]
        seen = {anchor}
        gen = ensure_rng(path_rng)
        attempts, max_attempts = 0, 200 * num_paths
        while len(paths) < num_paths and attempts < max_attempts:
            attempts += 1
            node, walk = source, [source]
            while node != sink:
                successors, probabilities = successor_table[node]
                node = successors[int(gen.choice(len(successors),
                                                 p=probabilities))]
                walk.append(node)
            path = tuple(walk)
            if path not in seen:
                seen.add(path)
                paths.append(path)
        if len(paths) < num_paths:
            # Like the enumeration cap: never hand back a silently smaller
            # strategy set than the caller asked for.  (Unreachable for any
            # realistic instance — the draws are uniform over the path set,
            # so collecting num_paths < total distinct paths takes far fewer
            # than 200 * num_paths attempts in expectation.)
            raise GameDefinitionError(
                f"dag-sample found only {len(paths)} of {num_paths} distinct "
                f"paths after {max_attempts} draws; lower num_paths"
            )
        return paths

    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph."""
        return self._graph

    @property
    def source(self) -> Hashable:
        """Common source node."""
        return self._source

    @property
    def sink(self) -> Hashable:
        """Common sink node."""
        return self._sink

    @property
    def paths(self) -> list[tuple[Hashable, ...]]:
        """The selected ``s``-``t`` paths (in strategy order)."""
        return list(self._paths)

    @property
    def edges(self) -> list[Edge]:
        """The edges (in resource order)."""
        return list(self._edges)

    @property
    def strategy_mode(self) -> str:
        """How the strategy set was built (one of :data:`STRATEGY_MODES`)."""
        return self._strategy_mode

    def edge_congestion(self, state) -> dict[Edge, float]:
        """Per-edge congestion keyed by the edge tuple."""
        loads = self.congestion(state)
        return {edge: float(load) for edge, load in zip(self._edges, loads)}


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------

def parallel_links_network_game(
    num_players: int,
    latencies: Sequence[LatencyFunction],
    *,
    name: str = "parallel-links",
) -> NetworkCongestionGame:
    """Two nodes ``s`` and ``t`` connected by ``len(latencies)`` parallel links.

    networkx DiGraphs cannot hold parallel edges, so each link is expanded to
    a two-edge path through a private middle node.  The full latency sits on
    the first edge; the connector is a
    :class:`~repro.games.latency.ZeroLatency` structural helper edge that
    contributes *exactly* zero to every latency, potential, social-cost and
    structural-bound computation (including ``l_min``, from which it is
    excluded).  The resulting game is therefore strategically identical to
    the singleton game on the same latencies.
    """
    import networkx as nx

    graph = nx.DiGraph()
    edge_latencies: dict[Edge, LatencyFunction] = {}
    for idx, latency in enumerate(latencies):
        middle = f"m{idx}"
        graph.add_edge("s", middle)
        graph.add_edge(middle, "t")
        edge_latencies[("s", middle)] = latency
        edge_latencies[(middle, "t")] = ZeroLatency()
    # validate=True on purpose: the ZeroLatency connectors are exempt from
    # the positivity assumption, so the real links still get checked.
    return NetworkCongestionGame(
        graph, "s", "t", num_players,
        edge_latencies=edge_latencies, name=name, validate=True,
    )


def braess_network_game(
    num_players: int,
    *,
    with_shortcut: bool = True,
    scale: float = 1.0,
    name: str = "braess",
) -> NetworkCongestionGame:
    """The classic Braess network.

    Nodes ``s, a, b, t``.  The load-dependent edges ``s->a`` and ``b->t``
    have latency ``scale * x / n`` style linear growth (here simply
    ``scale * x``), the constant edges ``s->b`` and ``a->t`` have latency
    ``scale * n`` and the optional shortcut ``a->b`` is (almost) free.  With
    the shortcut the unique Nash equilibrium routes everybody through
    ``s->a->b->t``; without it traffic splits evenly.
    """
    import networkx as nx

    graph = nx.DiGraph()
    n = float(num_players)
    edge_latencies: dict[Edge, LatencyFunction] = {
        ("s", "a"): LinearLatency(scale, 0.0),
        ("b", "t"): LinearLatency(scale, 0.0),
        ("s", "b"): ConstantLatency(scale * n),
        ("a", "t"): ConstantLatency(scale * n),
    }
    graph.add_edges_from(edge_latencies.keys())
    if with_shortcut:
        graph.add_edge("a", "b")
        edge_latencies[("a", "b")] = ConstantLatency(scale * 1e-3)
    return NetworkCongestionGame(
        graph, "s", "t", num_players,
        edge_latencies=edge_latencies, name=name, validate=False,
    )


def layered_random_network_game(
    num_players: int,
    *,
    layers: int = 3,
    width: int = 3,
    edge_probability: float = 0.7,
    degree: int = 1,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    max_paths: Optional[int] = 10_000,
    strategy_mode: str = "enumerate",
    num_paths: Optional[int] = None,
    path_rng: RngLike = None,
    sparse_incidence: Optional[bool] = None,
    name: str = "layered-random",
) -> NetworkCongestionGame:
    """A random layered DAG between ``s`` and ``t``.

    ``layers`` internal layers of ``width`` nodes each; every node of layer
    ``i`` is connected to each node of layer ``i+1`` independently with
    probability ``edge_probability`` (plus a deterministic "spine" edge so the
    graph always stays connected).  Edge latencies are monomials
    ``a x**degree`` with ``a`` drawn uniformly from ``coefficient_range``.

    The graph is a DAG, so ``strategy_mode="dag-sample"`` (with ``num_paths``
    and ``path_rng``) scales to depths whose exhaustive path set would blow
    past any ``max_paths`` cap.  When ``path_rng`` is not given, the sampler
    continues on the coefficient generator, keeping the whole construction a
    pure function of ``rng``.
    """
    if layers < 1 or width < 1:
        raise GameDefinitionError("layers and width must be positive")
    gen = ensure_rng(rng)
    import networkx as nx

    graph = nx.DiGraph()
    edge_latencies: dict[Edge, LatencyFunction] = {}

    def random_latency() -> LatencyFunction:
        a = float(gen.uniform(*coefficient_range))
        if degree == 1:
            return LinearLatency(a, 0.0)
        return MonomialLatency(a, float(degree))

    def node(layer: int, pos: int) -> str:
        return f"L{layer}N{pos}"

    previous = ["s"]
    for layer in range(layers):
        current = [node(layer, pos) for pos in range(width)]
        for u_idx, u in enumerate(previous):
            for v_idx, v in enumerate(current):
                spine = (u_idx % max(1, len(current))) == v_idx
                if spine or gen.uniform() < edge_probability:
                    graph.add_edge(u, v)
                    edge_latencies[(u, v)] = random_latency()
        previous = current
    for u_idx, u in enumerate(previous):
        graph.add_edge(u, "t")
        edge_latencies[(u, "t")] = random_latency()

    return NetworkCongestionGame(
        graph, "s", "t", num_players,
        edge_latencies=edge_latencies, max_paths=max_paths,
        strategy_mode=strategy_mode, num_paths=num_paths,
        path_rng=path_rng if path_rng is not None else gen,
        sparse_incidence=sparse_incidence, name=name, validate=False,
    )


def grid_network_game(
    num_players: int,
    *,
    rows: int = 2,
    cols: int = 3,
    degree: int = 1,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    max_paths: Optional[int] = 10_000,
    strategy_mode: str = "enumerate",
    num_paths: Optional[int] = None,
    path_rng: RngLike = None,
    sparse_incidence: Optional[bool] = None,
    name: str = "grid",
) -> NetworkCongestionGame:
    """A directed grid from the top-left corner to the bottom-right corner.

    Edges point right and down, so every ``s``-``t`` path is a monotone
    staircase; the number of paths is ``C(rows+cols-2, rows-1)``.  The grid
    is a DAG, so large instances pair with ``strategy_mode="dag-sample"``
    (or ``"k-shortest"``) and ``num_paths`` — see
    :func:`layered_random_network_game` for the seeding convention.
    """
    if rows < 1 or cols < 1:
        raise GameDefinitionError("rows and cols must be positive")
    gen = ensure_rng(rng)
    import networkx as nx

    graph = nx.DiGraph()
    edge_latencies: dict[Edge, LatencyFunction] = {}

    def random_latency() -> LatencyFunction:
        a = float(gen.uniform(*coefficient_range))
        if degree == 1:
            return LinearLatency(a, 0.0)
        return MonomialLatency(a, float(degree))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
                edge_latencies[((r, c), (r, c + 1))] = random_latency()
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
                edge_latencies[((r, c), (r + 1, c))] = random_latency()

    return NetworkCongestionGame(
        graph, (0, 0), (rows - 1, cols - 1), num_players,
        edge_latencies=edge_latencies, max_paths=max_paths,
        strategy_mode=strategy_mode, num_paths=num_paths,
        path_rng=path_rng if path_rng is not None else gen,
        sparse_incidence=sparse_incidence, name=name, validate=False,
    )


def series_parallel_network_game(
    num_players: int,
    *,
    blocks: int = 2,
    links_per_block: int = 3,
    degree: int = 1,
    coefficient_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
    max_paths: Optional[int] = 10_000,
    strategy_mode: str = "enumerate",
    num_paths: Optional[int] = None,
    path_rng: RngLike = None,
    sparse_incidence: Optional[bool] = None,
    name: str = "series-parallel",
) -> NetworkCongestionGame:
    """A chain of ``blocks`` parallel-link bundles in series.

    Every player traverses one link out of each bundle, so the number of
    strategies is ``links_per_block ** blocks`` and every strategy has
    ``blocks`` resources.  A standard stress topology for multi-resource
    strategies.  The connectors are
    :class:`~repro.games.latency.ZeroLatency` structural helper edges
    (exactly zero contribution, excluded from ``l_min``).
    """
    if blocks < 1 or links_per_block < 1:
        raise GameDefinitionError("blocks and links_per_block must be positive")
    gen = ensure_rng(rng)
    import networkx as nx

    graph = nx.DiGraph()
    edge_latencies: dict[Edge, LatencyFunction] = {}

    def random_latency() -> LatencyFunction:
        a = float(gen.uniform(*coefficient_range))
        if degree == 1:
            return LinearLatency(a, 0.0)
        return MonomialLatency(a, float(degree))

    nodes = ["s"] + [f"v{idx}" for idx in range(1, blocks)] + ["t"]
    for block in range(blocks):
        u, v = nodes[block], nodes[block + 1]
        for link in range(links_per_block):
            middle = f"{u}-{v}-{link}"
            graph.add_edge(u, middle)
            graph.add_edge(middle, v)
            edge_latencies[(u, middle)] = random_latency()
            edge_latencies[(middle, v)] = ZeroLatency()

    return NetworkCongestionGame(
        graph, "s", "t", num_players,
        edge_latencies=edge_latencies, max_paths=max_paths,
        strategy_mode=strategy_mode, num_paths=num_paths,
        path_rng=path_rng if path_rng is not None else gen,
        sparse_incidence=sparse_incidence, name=name, validate=False,
    )

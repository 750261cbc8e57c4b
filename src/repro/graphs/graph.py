"""A simple weighted undirected graph.

This is the substrate underneath every construction in the paper: the base
graph ``H``, the fixed constructions ``G`` and ``F``, the per-input families
``G_x`` and ``F_x``, and the networks fed to the CONGEST simulator.

Design notes
------------
* Nodes are arbitrary hashable objects.  The gadget modules use structured
  tuples (e.g. ``("A", i, m)`` for clique nodes) so that node identity
  encodes its role in the construction.
* Node weights default to ``1`` — matching the paper, where all nodes have
  weight 1 except clique nodes that carry weight ``ell``.
* The graph is *simple*: no self loops, no parallel edges.  Self loops are
  rejected with :class:`~repro.graphs.errors.SelfLoopError` because they
  would silently corrupt independence arguments.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)

Node = Hashable
Edge = Tuple[Node, Node]
Weight = float


def edge_key(u: Node, v: Node) -> FrozenSet[Node]:
    """Canonical undirected key for the edge ``{u, v}``."""
    return frozenset((u, v))


class WeightedGraph:
    """An undirected graph with weighted nodes.

    Parameters
    ----------
    nodes:
        Optional iterable of nodes, or mapping ``node -> weight``.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints that are not
        already present are added with weight 1.
    """

    __slots__ = ("_adj", "_weights", "_derived_cache")

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self._weights: Dict[Node, Weight] = {}
        self._derived_cache: Optional[Dict[str, object]] = None
        if nodes is not None:
            if isinstance(nodes, Mapping):
                for node, weight in nodes.items():
                    self.add_node(node, weight=weight)
            else:
                for node in nodes:
                    self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def add_node(self, node: Node, weight: Weight = 1, exist_ok: bool = True) -> None:
        """Add ``node`` with the given weight.

        If the node already exists, its weight is updated when
        ``exist_ok`` is true, otherwise :class:`DuplicateNodeError` is
        raised.
        """
        if node in self._adj:
            if not exist_ok:
                raise DuplicateNodeError(node)
            self._weights[node] = weight
            self._derived_cache = None
            return
        self._adj[node] = set()
        self._weights[node] = weight
        self._derived_cache = None

    def add_nodes(self, nodes: Iterable[Node], weight: Weight = 1) -> None:
        """Add every node in ``nodes`` with a common weight."""
        for node in nodes:
            self.add_node(node, weight=weight)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every edge incident to it."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
        del self._adj[node]
        del self._weights[node]
        self._derived_cache = None

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._adj

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    def node_list(self) -> List[Node]:
        """Return the nodes as a list, in insertion order."""
        return list(self._adj)

    def node_set(self) -> Set[Node]:
        """Return the nodes as a fresh set."""
        return set(self._adj)

    @property
    def num_nodes(self) -> int:
        """The number of nodes."""
        return len(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    def weight(self, node: Node) -> Weight:
        """Return the weight of ``node``."""
        try:
            return self._weights[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def set_weight(self, node: Node, weight: Weight) -> None:
        """Set the weight of an existing node."""
        if node not in self._weights:
            raise NodeNotFoundError(node)
        self._weights[node] = weight
        self._derived_cache = None

    def weights(self) -> Dict[Node, Weight]:
        """Return a copy of the node-weight mapping."""
        return dict(self._weights)

    def total_weight(self, nodes: Optional[Iterable[Node]] = None) -> Weight:
        """Return ``w(U)`` — the sum of weights over ``nodes``.

        With no argument, sums over the whole graph.  This is the
        ``w(U) = sum_{v in U} w(v)`` notation used throughout the paper.
        """
        if nodes is None:
            return sum(self._weights.values())
        total: Weight = 0
        for node in nodes:
            total += self.weight(node)
        return total

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, creating missing endpoints.

        Adding an existing edge is a no-op; self loops raise
        :class:`SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        if u not in self._adj:
            self.add_node(u)
        if v not in self._adj:
            self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._derived_cache = None

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        if v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._derived_cache = None

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Node] = set()
        for u in self._adj:
            for v in self._adj[u]:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def edge_set(self) -> Set[FrozenSet[Node]]:
        """Return the set of edges as frozensets (canonical form)."""
        return {edge_key(u, v) for u, v in self.edges()}

    @property
    def num_edges(self) -> int:
        """The number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adj.values()) // 2

    def neighbors(self, node: Node) -> Set[Node]:
        """Return a fresh set with the neighbors of ``node``."""
        try:
            return set(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def max_degree(self) -> int:
        """Return the maximum degree Δ (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def nodes_by_degree(self) -> Dict[int, List[Node]]:
        """Return degree buckets: ``degree -> nodes of that degree``.

        Buckets preserve insertion order within a degree, and the dict
        itself is keyed in ascending degree, so iterating the buckets
        visits low-degree nodes first — the processing order the MaxIS
        kernelization wants (degree-0/1/2 rules fire before anything
        else).
        """
        buckets: Dict[int, List[Node]] = {}
        for node, neighbors in self._adj.items():
            buckets.setdefault(len(neighbors), []).append(node)
        return {degree: buckets[degree] for degree in sorted(buckets)}

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------

    def is_independent_set(self, nodes: Iterable[Node]) -> bool:
        """Return whether ``nodes`` is an independent set.

        Every node must exist; an empty set is independent.
        """
        node_list = list(nodes)
        for node in node_list:
            if node not in self._adj:
                raise NodeNotFoundError(node)
        node_set = set(node_list)
        for node in node_set:
            if self._adj[node] & node_set:
                return False
        return True

    def is_clique(self, nodes: Iterable[Node]) -> bool:
        """Return whether ``nodes`` induces a complete subgraph."""
        node_list = list(set(nodes))
        for node in node_list:
            if node not in self._adj:
                raise NodeNotFoundError(node)
        for i, u in enumerate(node_list):
            adjacency = self._adj[u]
            for v in node_list[i + 1:]:
                if v not in adjacency:
                    return False
        return True

    def is_connected(self) -> bool:
        """Return whether the graph is connected (empty graph counts)."""
        if not self._adj:
            return True
        start = next(iter(self._adj))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in self._adj[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._adj)

    def connected_components(self) -> List[Set[Node]]:
        """Return the connected components as a list of node sets."""
        seen: Set[Node] = set()
        components: List[Set[Node]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                for neighbor in self._adj[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.add(neighbor)
                        stack.append(neighbor)
            components.append(component)
        return components

    def diameter(self) -> int:
        """Return the diameter (max eccentricity) of a connected graph.

        Raises :class:`ValueError` on disconnected or empty graphs.
        Runs BFS from every node; intended for the small gadget graphs.
        """
        if not self._adj:
            raise ValueError("diameter of an empty graph is undefined")
        best = 0
        for source in self._adj:
            distances = self.bfs_distances(source)
            if len(distances) != len(self._adj):
                raise ValueError("diameter of a disconnected graph is undefined")
            best = max(best, max(distances.values()))
        return best

    def bfs_distances(self, source: Node) -> Dict[Node, int]:
        """Return hop distances from ``source`` to every reachable node."""
        if source not in self._adj:
            raise NodeNotFoundError(source)
        distances = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[Node] = []
            for node in frontier:
                for neighbor in self._adj[node]:
                    if neighbor not in distances:
                        distances[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "WeightedGraph":
        """Return a deep structural copy.

        The adjacency sets and the weight map are copied wholesale, not
        edge by edge: ``apply_inputs`` copies the fixed gadget graph for
        every instance.  The copy starts with an empty derived cache.
        """
        other = WeightedGraph()
        other._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        other._weights = dict(self._weights)
        return other

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """Return the subgraph induced by ``nodes`` (weights preserved)."""
        node_set = set(nodes)
        for node in node_set:
            if node not in self._adj:
                raise NodeNotFoundError(node)
        other = WeightedGraph()
        for node in self._adj:
            if node in node_set:
                other.add_node(node, weight=self._weights[node])
        for u, v in self.edges():
            if u in node_set and v in node_set:
                other.add_edge(u, v)
        return other

    def complement(self) -> "WeightedGraph":
        """Return the complement graph on the same node/weight set."""
        other = WeightedGraph()
        node_list = list(self._adj)
        for node in node_list:
            other.add_node(node, weight=self._weights[node])
        for i, u in enumerate(node_list):
            adjacency = self._adj[u]
            for v in node_list[i + 1:]:
                if v not in adjacency:
                    other.add_edge(u, v)
        return other

    def relabeled(self, mapping: Mapping[Node, Node]) -> "WeightedGraph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their name.  The mapping must
        be injective on the node set.
        """
        new_names = [mapping.get(node, node) for node in self._adj]
        if len(set(new_names)) != len(new_names):
            raise ValueError("relabeling mapping is not injective on the node set")
        other = WeightedGraph()
        for node in self._adj:
            other.add_node(mapping.get(node, node), weight=self._weights[node])
        for u, v in self.edges():
            other.add_edge(mapping.get(u, u), mapping.get(v, v))
        return other

    def disjoint_union(self, other: "WeightedGraph") -> "WeightedGraph":
        """Return the disjoint union; node sets must not overlap."""
        overlap = self.node_set() & other.node_set()
        if overlap:
            raise ValueError(f"node sets overlap on {len(overlap)} nodes, e.g. {next(iter(overlap))!r}")
        result = self.copy()
        for node in other.nodes():
            result.add_node(node, weight=other.weight(node))
        for u, v in other.edges():
            result.add_edge(u, v)
        return result

    # ------------------------------------------------------------------
    # Comparison / hashing helpers
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self._weights == other._weights
            and self.edge_set() == other.edge_set()
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def structural_signature(self) -> Tuple[int, int, int]:
        """Return a cheap (nodes, edges, total weight) fingerprint."""
        return (self.num_nodes, self.num_edges, int(self.total_weight()))

    def __getstate__(self) -> Tuple[Dict[Node, Set[Node]], Dict[Node, Weight]]:
        # The derived cache is rebuildable scratch state: drop it from
        # pickles so payloads stay small and cache objects never travel
        # between processes.
        return (self._adj, self._weights)

    def __setstate__(
        self, state: Tuple[Dict[Node, Set[Node]], Dict[Node, Weight]]
    ) -> None:
        self._adj, self._weights = state
        self._derived_cache = None

    def __repr__(self) -> str:
        return (
            f"WeightedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, total_weight={self.total_weight()})"
        )

    # ------------------------------------------------------------------
    # Dense exports (for solvers)
    # ------------------------------------------------------------------

    def to_index_form(
        self, order: Optional[Iterable[Node]] = None
    ) -> Tuple[List[Node], List[Weight], List[int]]:
        """Export as (nodes, weights, adjacency bitmasks).

        ``masks[i]`` has bit ``j`` set iff nodes ``i`` and ``j`` are
        adjacent.  This is the input format for the bitset MaxIS solver.

        ``order``, when given, must be a permutation of the node set and
        fixes the index assignment.  Building the bitmasks directly in
        the requested order is how the solver avoids remapping adjacency
        masks bit by bit after sorting.
        """
        if order is None:
            node_list = list(self._adj)
        else:
            node_list = list(order)
            if len(node_list) != len(self._adj) or any(
                node not in self._adj for node in node_list
            ) or len(set(node_list)) != len(node_list):
                raise ValueError("order must be a permutation of the node set")
        index = {node: i for i, node in enumerate(node_list)}
        weights = [self._weights[node] for node in node_list]
        masks = [0] * len(node_list)
        for u, v in self.edges():
            i, j = index[u], index[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return node_list, weights, masks

    def derived_cache(self) -> Dict[str, object]:
        """Scratch cache for structures derived from the graph.

        The dict is dropped wholesale on *any* mutation (node/edge/weight
        change), so entries can never go stale; callers key their own
        namespaced entries (e.g. ``"maxis.kernelization"``) and must
        treat cached values as immutable.  It never pickles
        (:meth:`__getstate__` drops it).
        """
        cache = self._derived_cache
        if cache is None:
            cache = self._derived_cache = {}
        return cache

    def solver_index_form(
        self,
    ) -> Tuple[List[Node], List[Weight], List[int], Dict[Node, int]]:
        """Weight-ordered index form for the MaxIS solver, cached.

        Returns ``(order, weights, masks, index)``: nodes heaviest-first
        (ties broken by descending degree, then insertion order — the
        solver's branching order), their weights and adjacency bitmasks
        in that order, and the node → position map.  Building the masks
        directly in branching order replaces the seed solver's per-bit
        adjacency remap.  The tuple is cached via :meth:`derived_cache`
        until the graph mutates; callers must not modify the lists.
        """
        cache = self.derived_cache()
        form = cache.get("graph.solver_index_form")
        if form is None:
            adj = self._adj
            wmap = self._weights
            order = sorted(
                adj, key=lambda node: (-wmap[node], -len(adj[node]))
            )
            index = {node: i for i, node in enumerate(order)}
            weights = [wmap[node] for node in order]
            masks = []
            append = masks.append
            for node in order:
                mask = 0
                for neighbor in adj[node]:
                    mask |= 1 << index[neighbor]
                append(mask)
            form = (order, weights, masks, index)
            cache["graph.solver_index_form"] = form
        return form

"""Exact maximum-weight independent set.

Every upper-bound claim in the paper (Claims 2, 5, 7) says "*any*
independent set has weight at most ...".  We verify those claims by
actually computing the optimum on concrete gadget instances, so the
solver has to be exact, and fast on the gadget shape: dense graphs that
are near-unions of cliques.

The pipeline is kernelize-then-branch: :mod:`repro.maxis.kernel` shrinks
the instance with exactness-preserving reduction rules (the witness is
lifted back through the fold log afterwards), then a bitset
branch-and-bound with a greedy weighted clique-cover upper bound solves
the kernel.  A clique contributes at most its heaviest member to any
independent set, so the cover bound collapses to almost the true optimum
on clique-structured graphs — exactly our instances.

The cover is built one clique at a time (:func:`_clique_cover`): the
lowest remaining vertex opens a clique, and the clique grows by the
lowest vertex of a pool that is intersected with each new member's
adjacency mask.  That is exactly the first-fit cover (each vertex, in
index order, joins the first clique it is fully adjacent to), at one
mask AND per vertex instead of a scan over every clique.  Covers are
*inherited* down the search tree and rebuilt once the candidate set has
shrunk below ``_COVER_REBUILD_RATIO`` (0.8) of its size at the last
build; cheap rebuilds made rebuilding that often pay (measured table in
``docs/SOLVER.md``).  A plain exponential brute force
(:mod:`repro.maxis.brute_force`) cross-checks everything in tests, and
``--no-kernel`` (or ``kernel=False``) falls back to branch-and-bound on
the raw graph.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graphs import Node, WeightedGraph
from ..obs import get_recorder
from .kernel import kernel_default_enabled, kernelize
from .result import IndependentSetResult

_obs = get_recorder()

#: A search node rebuilds the clique cover once its candidate set has
#: shrunk below this fraction of the size at the last build.  1.0 would
#: rebuild at every node (tightest bounds, a rebuild per node), 0.0 would
#: keep the root cover forever (stale bounds blow up the tree on larger
#: gadgets).  With first-fit rebuilds costing O(n·k) the best was 0.5;
#: mask-intersection rebuilds are cheap enough that rebuilding sooner
#: wins.  Exact-search time over the 476 solves of the benchmark sweep's
#: seeds 1-14 (2-vCPU Xeon, CPython 3.11): first-fit at 0.5 → 6.9 s;
#: mask intersection at 0.5 → 2.8 s, 0.6 → 1.1 s, 0.7 / 0.8 → 0.77 s,
#: 0.9 → 1.1 s, 1.0 → 1.2 s; 0.8 is also the best at t=6 (full table in
#: docs/SOLVER.md).  Witnesses do not depend on it (see
#: :func:`_solve_ordered_masks`).
_COVER_REBUILD_RATIO = 0.8


class BranchAndBoundStats:
    """Search statistics for benchmarking the solver."""

    __slots__ = ("nodes_expanded", "bound_prunes")

    def __init__(self) -> None:
        self.nodes_expanded = 0
        self.bound_prunes = 0

    def __repr__(self) -> str:
        return (
            f"BranchAndBoundStats(nodes_expanded={self.nodes_expanded}, "
            f"bound_prunes={self.bound_prunes})"
        )


def _validate_weights(graph: WeightedGraph) -> None:
    # Validated straight off the weight map, before any index-form or
    # kernel structure is built or touched.
    for weight in graph.weights().values():
        if weight < 0:
            raise ValueError("negative node weights are not supported")


def max_weight_independent_set(
    graph: WeightedGraph,
    stats: Optional[BranchAndBoundStats] = None,
    kernel: Optional[bool] = None,
) -> IndependentSetResult:
    """Return a maximum-weight independent set of ``graph``.

    Exact.  Intended for instances up to a few hundred nodes when they
    are dense (the gadget regime); see the solver bench for measured
    scaling.

    ``kernel`` selects the kernelized path (reduction rules + fold-log
    witness lifting, see :mod:`repro.maxis.kernel`); it defaults to the
    ambient kernel switch (on unless ``--no-kernel`` /
    :func:`repro.maxis.kernel.using_kernel` turned it off).  Both paths
    return the same optimum; the witness *node set* is deterministic per
    path (fixed branching order, strict-improvement updates), and on
    instances the kernel leaves untouched the two paths run the
    identical search, so their witnesses coincide exactly — the
    regression pins compare sorted witness lists kernel-on vs -off.

    Optima are memoized as witness node sets under ``maxis.solution``
    when the result store is configured.  The key covers the kernel flag
    and fingerprints the kernel module, so cached witnesses can never
    alias across kernel on/off or across kernel-rule changes.  A cached
    witness is re-wrapped in :class:`IndependentSetResult`, whose
    constructor re-validates independence and recomputes the weight
    against the *live* graph, so a hit can never return an invalid set —
    at worst a stale entry falls through to a fresh solve.
    """
    from ..store import MAXIS_MODULES, MISS, get_store

    use_kernel = kernel_default_enabled() if kernel is None else bool(kernel)
    store = get_store()
    if store is None:
        return _solve(graph, stats, use_kernel)
    key = store.key_for(
        "maxis.solution", {"graph": graph, "kernel": use_kernel}, MAXIS_MODULES
    )
    nodes = store.get(key)
    if nodes is not MISS:
        try:
            return IndependentSetResult(graph, nodes)
        except (KeyError, ValueError):
            pass  # witness doesn't fit this graph: recompute below
    result = _solve(graph, stats, use_kernel)
    store.put(key, "maxis.solution", "node_list", list(result.nodes))
    return result


def _solve(
    graph: WeightedGraph,
    stats: Optional[BranchAndBoundStats],
    use_kernel: bool,
) -> IndependentSetResult:
    _validate_weights(graph)
    if use_kernel:
        return _kernelized_branch_and_bound(graph, stats)
    return _branch_and_bound(graph, stats)


def _kernelized_branch_and_bound(
    graph: WeightedGraph,
    stats: Optional[BranchAndBoundStats] = None,
) -> IndependentSetResult:
    kern = kernelize(graph)
    labels, weights, masks = kern.reduced_index_form()
    stats = stats or BranchAndBoundStats()
    with _obs.span("maxis.exact.search", n=len(labels)):
        best_weight, best_set = _solve_ordered_masks(weights, masks, stats)
    _record_solve(stats)
    reduced_chosen = [
        labels[pos] for pos in range(len(labels)) if (best_set >> pos) & 1
    ]
    if kern.is_identity:
        # No rule fired: the "kernel witness" already names original
        # nodes; skip replaying the (empty) fold log.
        return IndependentSetResult(graph, reduced_chosen)
    return IndependentSetResult(graph, kern.lift(reduced_chosen))


def _branch_and_bound(
    graph: WeightedGraph,
    stats: Optional[BranchAndBoundStats] = None,
) -> IndependentSetResult:
    # The cached solver index form is already in branching order
    # (descending weight, then degree) with masks built against it — no
    # per-bit remap pass, and repeat solves on the same graph skip the
    # build entirely.
    node_list, weights, masks, _ = graph.solver_index_form()
    n = len(node_list)
    if n == 0:
        return IndependentSetResult(graph, [])
    stats = stats or BranchAndBoundStats()
    with _obs.span("maxis.exact.search", n=n):
        best_weight, best_set = _solve_ordered_masks(weights, masks, stats)
    _record_solve(stats)
    return IndependentSetResult(
        graph, [node_list[pos] for pos in range(n) if (best_set >> pos) & 1]
    )


def _record_solve(stats: BranchAndBoundStats) -> None:
    if _obs.enabled:
        _obs.incr("maxis.exact.solves")
        _obs.incr("maxis.exact.nodes_expanded", stats.nodes_expanded)
        _obs.incr("maxis.exact.bound_prunes", stats.bound_prunes)


def _clique_cover(
    candidates: int, masks: List[int], weights: List[float]
) -> Tuple[List[int], float]:
    """Greedy weighted clique cover of ``candidates``, one clique at a time.

    Each clique starts at the lowest remaining bit (its heaviest member,
    since ``weights`` is non-increasing), whose weight joins the bound;
    it then grows by repeatedly taking the lowest bit of ``pool``, the
    remaining vertices adjacent to every member so far.  This is exactly
    the first-fit cover (each vertex, in index order, joins the first
    clique whose members are all its neighbours): under first-fit, ``u``
    lands in clique ``j`` iff it missed cliques ``0..j-1`` and is
    adjacent to every lower-index member of clique ``j`` — the test
    ``pool`` applies.  Same cliques, same order, same bound summed in
    the same order; but a rebuild costs one mask AND per member instead
    of a scan over all cliques per candidate.
    """
    cliques: List[int] = []
    bound = 0.0
    remaining = candidates
    while remaining:
        head = remaining & -remaining
        index = head.bit_length() - 1
        bound += weights[index]
        clique = head
        pool = remaining & masks[index]
        while pool:
            low = pool & -pool
            clique |= low
            pool &= masks[low.bit_length() - 1]
        cliques.append(clique)
        remaining ^= clique
    return cliques, bound


def _solve_ordered_masks(
    weights: List[float],
    masks: List[int],
    stats: BranchAndBoundStats,
) -> Tuple[float, int]:
    """Branch and bound over a *pre-ordered* index form.

    Precondition: ``weights`` is non-increasing.  :func:`_clique_cover`
    opens each clique at its lowest index, so each clique's first
    member is its heaviest and the cover bound is a first-member weight
    sum; when the cover is reused to bound a *subset* of the set it was
    built for, ``(clique & subset) & -(clique & subset)`` picks the
    heaviest surviving member.  That reuse is the core of the cost
    model: a cover is built at the root and *inherited* down the tree,
    rebuilt at a node only once the candidate set has shrunk below
    ``_COVER_REBUILD_RATIO`` of its size at the previous build.  Fresh
    covers prune at rebuild nodes; inherited covers bound children with
    an early-exit scan that stops as soon as the bound clears the
    pruning threshold.

    Returns ``(best_weight, best_set_bitmask)``.  ``best_set`` is the
    first optimum in DFS order (include branch first); because updates
    happen only on strict improvement, any *sound* pruning strategy —
    however strong — leaves it unchanged, so tuning the rebuild ratio
    can never change a witness.  The kernel-on/off determinism pins
    rely on this.
    """
    n = len(weights)
    if n == 0:
        return 0.0, 0
    best_weight = -1.0
    best_set = 0
    nodes_expanded = 0
    bound_prunes = 0

    def search(
        candidates: int,
        current_weight: float,
        current_set: int,
        cliques: List[int],
        built_at: float,
    ) -> None:
        nonlocal best_weight, best_set, nodes_expanded, bound_prunes
        nodes_expanded += 1
        if candidates.bit_count() <= built_at:
            cliques, bound = _clique_cover(candidates, masks, weights)
            if current_weight + bound <= best_weight:
                bound_prunes += 1
                return
            built_at = candidates.bit_count() * _COVER_REBUILD_RATIO
        low = candidates & -candidates
        v = low.bit_length() - 1
        # Branch 1: include v (drop v and its neighbors from candidates).
        child = candidates & ~(low | masks[v])
        child_weight = current_weight + weights[v]
        if not child:
            if child_weight > best_weight:
                best_weight = child_weight
                best_set = current_set | low
        else:
            need = best_weight - child_weight
            bound = 0.0
            for clique_mask in cliques:
                alive = clique_mask & child
                if alive:
                    bound += weights[(alive & -alive).bit_length() - 1]
                    if bound > need:
                        break
            if bound > need:
                search(child, child_weight, current_set | low, cliques, built_at)
            else:
                bound_prunes += 1
        # Branch 2: exclude v.
        child = candidates ^ low
        if not child:
            if current_weight > best_weight:
                best_weight = current_weight
                best_set = current_set
        else:
            need = best_weight - current_weight
            bound = 0.0
            for clique_mask in cliques:
                alive = clique_mask & child
                if alive:
                    bound += weights[(alive & -alive).bit_length() - 1]
                    if bound > need:
                        break
            if bound > need:
                search(child, current_weight, current_set, cliques, built_at)
            else:
                bound_prunes += 1

    # built_at = n forces a cover build at the root.
    search((1 << n) - 1, 0.0, 0, [], float(n))
    stats.nodes_expanded += nodes_expanded
    stats.bound_prunes += bound_prunes
    return best_weight, best_set


def max_independent_set_weight(graph: WeightedGraph) -> float:
    """Return only the optimal weight (``OPT`` in the paper)."""
    return max_weight_independent_set(graph).weight


def max_weight_clique(
    graph: WeightedGraph, stats: Optional[BranchAndBoundStats] = None
):
    """Return a maximum-weight clique, via MaxIS on the complement.

    A clique in ``G`` is an independent set in ``G``'s complement, so
    this inherits the exactness (and the test coverage) of the MaxIS
    solver.  Best on *sparse* inputs, where the complement is dense —
    the regime the clique-cover bound likes.
    """
    complement = graph.complement()
    result = max_weight_independent_set(complement, stats=stats)
    # Re-validate against the original graph: the chosen set must be a clique.
    if not graph.is_clique(result.nodes):
        raise AssertionError("complement MaxIS returned a non-clique")
    return result

"""The canonical node order of ``repro.graphs.serialize``, against a reference.

The reference below is the straightforward form of the order: it calls
``json.dumps`` on every comparison of the node and edge sorts.
``graph_to_dict`` computes each node's sort text once instead; it must
give the same nodes, the same edge orientation and the same edge order,
and so must the cache keys and node lists built on it.

An edge may name a node by an equal value of another type (``1.0`` or
``True`` for node ``1``); the graph stores that spelling in the
neighbour set.  ``graph_to_dict`` spells every endpoint as its node, so
such a graph flattens like the same graph built with the nodes' own
spellings, whatever the insertion order.  The reference encodes the
stored spelling, so the comparison runs on the respelled graph.
"""

import json
from typing import Any, Dict

from hypothesis import given
from hypothesis import strategies as st

from repro.gadgets import GadgetParameters, LinearConstruction
from repro.graphs import WeightedGraph, encode_node, graph_to_dict, graph_to_json
from repro.graphs.serialize import encode_nodes_sorted
from repro.store import canonical_graph_dict


def _sort_key(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True)


def _reference_edges(graph: WeightedGraph) -> list:
    edges = []
    for u, v in graph.edges():
        left, right = encode_node(u), encode_node(v)
        if _sort_key(left) > _sort_key(right):
            left, right = right, left
        edges.append([left, right])
    edges.sort(key=lambda pair: (_sort_key(pair[0]), _sort_key(pair[1])))
    return edges


def reference_graph_to_dict(graph: WeightedGraph) -> Dict[str, Any]:
    nodes = sorted(
        (
            {"id": encode_node(node), "weight": graph.weight(node)}
            for node in graph.nodes()
        ),
        key=lambda entry: _sort_key(entry["id"]),
    )
    return {"nodes": nodes, "edges": _reference_edges(graph)}


def reference_canonical_graph_dict(graph: WeightedGraph) -> Dict[str, Any]:
    nodes = sorted(
        ([encode_node(node), graph.weight(node)] for node in graph.nodes()),
        key=lambda entry: _sort_key(entry[0]),
    )
    return {"nodes": nodes, "edges": _reference_edges(graph)}


_leaves = st.one_of(st.integers(-20, 20), st.text(max_size=3))
_node_ids = st.recursive(
    _leaves, lambda children: st.lists(children, max_size=3).map(tuple), max_leaves=5
)


def _aliases(node: Any) -> st.SearchStrategy:
    """Values equal to ``node``: any int in it may become a float or bool."""
    if isinstance(node, tuple):
        return st.tuples(*map(_aliases, node))
    if type(node) is int:
        spellings = [node, float(node)] + ([bool(node)] if node in (0, 1) else [])
        return st.sampled_from(spellings)
    return st.just(node)


@st.composite
def mixed_graphs(draw) -> WeightedGraph:
    nodes = draw(st.lists(_node_ids, max_size=12, unique=True))
    graph = WeightedGraph()
    for node in nodes:
        graph.add_node(node, weight=draw(st.integers(1, 9) | st.floats(0.5, 4.0)))
    if len(nodes) > 1:
        index = st.integers(0, len(nodes) - 1)
        for i, j in draw(st.lists(st.tuples(index, index), max_size=30)):
            if i != j:
                graph.add_edge(draw(_aliases(nodes[i])), draw(_aliases(nodes[j])))
    return graph


def _respelled(graph: WeightedGraph) -> WeightedGraph:
    """``graph`` with every edge endpoint spelled as its node."""
    own = {node: node for node in graph.nodes()}
    respelled = WeightedGraph()
    for node in graph.nodes():
        respelled.add_node(node, weight=graph.weight(node))
    for u, v in graph.edges():
        respelled.add_edge(own[u], own[v])
    return respelled


@given(mixed_graphs())
def test_graph_to_dict_matches_the_reference(graph):
    expected = reference_graph_to_dict(_respelled(graph))
    assert graph_to_dict(graph) == expected
    assert graph_to_json(graph) == json.dumps(expected, sort_keys=True)


@given(mixed_graphs())
def test_canonical_graph_dict_matches_the_reference(graph):
    expected = reference_canonical_graph_dict(_respelled(graph))
    assert canonical_graph_dict(graph) == expected


def test_an_alias_spelled_edge_keys_like_its_node():
    plain = WeightedGraph()
    plain.add_edges([(1, 2), (0, 2)])
    for one, zero in ((1.0, False), (True, 0.0)):
        aliased = WeightedGraph()
        aliased.add_nodes([2, 1, 0])
        aliased.add_edges([(2, one), (2, zero)])
        assert graph_to_json(aliased) == graph_to_json(plain)
        assert canonical_graph_dict(aliased) == canonical_graph_dict(plain)


@given(st.lists(_node_ids, max_size=12))
def test_encode_nodes_sorted_matches_the_reference(nodes):
    expected = sorted((encode_node(node) for node in nodes), key=_sort_key)
    assert encode_nodes_sorted(nodes) == expected


def test_graph_to_json_dumps_each_node_once(monkeypatch):
    graph = LinearConstruction(GadgetParameters(ell=2, alpha=1, t=2)).graph
    calls = []
    dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    graph_to_json(graph)
    assert graph.num_edges > 0
    assert len(calls) <= graph.num_nodes + 1

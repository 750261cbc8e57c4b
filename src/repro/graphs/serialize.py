"""JSON-safe (de)serialization of weighted graphs.

Gadget node ids are nested tuples, which JSON has no native type for;
the codec encodes tuples as tagged lists (``["__tuple__", ...]``) so a
round trip restores node identity exactly.  Used to snapshot hard
instances for external tools and to regression-pin constructions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .graph import Node, WeightedGraph

_TUPLE_TAG = "__tuple__"


def _encode_node(node: Node) -> Any:
    if isinstance(node, tuple):
        return [_TUPLE_TAG] + [_encode_node(part) for part in node]
    if isinstance(node, (str, int, float, bool)) or node is None:
        return node
    raise TypeError(f"cannot serialize node of type {type(node).__name__}: {node!r}")


def _decode_node(data: Any) -> Node:
    if isinstance(data, list):
        if not data or data[0] != _TUPLE_TAG:
            raise ValueError(f"malformed encoded node: {data!r}")
        return tuple(_decode_node(part) for part in data[1:])
    return data


def encode_node(node: Node) -> Any:
    """The JSON-safe encoding of one node id (tuples become tagged lists)."""
    return _encode_node(node)


def decode_node(data: Any) -> Node:
    """Inverse of :func:`encode_node`."""
    return _decode_node(data)


def _sort_text(encoded: Any) -> str:
    """The canonical sort key of an encoded node id: its JSON text."""
    return json.dumps(encoded, sort_keys=True)


def encode_nodes_sorted(nodes: Iterable[Node]) -> List[Any]:
    """Encode ``nodes`` and list them in the canonical order.

    The one canonical order sorts encoded ids by their JSON text.  Graph
    payloads, graph cache keys (both via :func:`graph_to_dict`), the
    store's ``node_list`` payloads and MaxIS witnesses all follow it.
    """
    return sorted(map(_encode_node, nodes), key=_sort_text)


def graph_to_dict(graph: WeightedGraph) -> Dict[str, Any]:
    """Flatten a graph to a JSON-safe dictionary, canonically ordered.

    Nodes and edges are sorted (and each edge oriented) by the JSON text
    of their encoded ids, so the same graph built in any insertion order
    — or rebuilt from a decoded payload — flattens to identical bytes.
    The store's graph codec and the serve responses rely on this: a warm
    cache hit re-encodes to exactly the payload that was stored cold.

    Each node is encoded and its sort text computed once; ``nodes`` and
    ``edges`` share the encoded id lists, so an edge added under an equal
    value of another type (``1.0`` for node ``1``) is spelled as its node.
    """
    ids: Dict[Node, Any] = {}
    text: Dict[Node, str] = {}
    for node in graph.nodes():
        ids[node] = encoded = _encode_node(node)
        text[node] = _sort_text(encoded)
    nodes = [
        {"id": ids[node], "weight": graph.weight(node)}
        for node in sorted(text, key=text.__getitem__)
    ]
    pairs = []
    for u, v in graph.edges():
        if text[u] > text[v]:
            u, v = v, u
        pairs.append((u, v))
    pairs.sort(key=lambda pair: (text[pair[0]], text[pair[1]]))
    return {"nodes": nodes, "edges": [[ids[u], ids[v]] for u, v in pairs]}


def graph_from_dict(data: Dict[str, Any]) -> WeightedGraph:
    """Inverse of :func:`graph_to_dict`."""
    graph = WeightedGraph()
    for entry in data["nodes"]:
        graph.add_node(_decode_node(entry["id"]), weight=entry["weight"])
    for u, v in data["edges"]:
        graph.add_edge(_decode_node(u), _decode_node(v))
    return graph


def graph_to_json(graph: WeightedGraph, indent: int = None) -> str:
    """Serialize a graph to a JSON document."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> WeightedGraph:
    """Parse a graph serialized by :func:`graph_to_json`."""
    return graph_from_dict(json.loads(text))

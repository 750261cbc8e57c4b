"""Canonical cache-key derivation.

A key is the SHA-256 of one canonical JSON blob holding the job kind,
the canonicalized parameters, the combined code fingerprint of the
modules the computation depends on, and the store schema version.  Two
calls that describe the same computation — regardless of dict ordering,
tuple-vs-list spelling, or graph construction order — derive the same
key; any difference in semantics derives a different one.

Graphs canonicalize structurally (sorted node/weight pairs plus sorted
undirected edges, in the canonical order of
:mod:`repro.graphs.serialize`), so a gadget instance built in a
different insertion order still hits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

#: Bumped whenever key derivation or a codec's payload shape changes;
#: folded into every key so old on-disk entries become misses instead
#: of decode errors.
STORE_SCHEMA_VERSION = 1


def encode_for_key(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-native structure.

    Supported: ``None``, booleans, numbers, strings, lists/tuples
    (both become lists), string-keyed dicts, and
    :class:`~repro.graphs.graph.WeightedGraph` (via
    :func:`canonical_graph_dict`).  Anything else raises ``TypeError``
    loudly — a silently unstable key is worse than no cache.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_for_key(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"cache-key dicts need string keys, got {key!r}"
                )
        return {key: encode_for_key(value[key]) for key in sorted(value)}
    from ..graphs.graph import WeightedGraph

    if isinstance(value, WeightedGraph):
        return {"__graph__": canonical_graph_dict(value)}
    raise TypeError(
        f"cannot derive a cache key from {type(value).__name__}: {value!r}"
    )


def canonical_graph_dict(graph: Any) -> Dict[str, Any]:
    """A graph as sorted ``[id, weight]`` node pairs plus sorted edges.

    A reshape of :func:`repro.graphs.serialize.graph_to_dict`, so keys
    and graph payloads share one canonical order: the same graph built
    in any order (or decoded from a cached payload) keys identically.
    """
    from ..graphs.serialize import graph_to_dict

    flat = graph_to_dict(graph)
    return {
        "nodes": [[entry["id"], entry["weight"]] for entry in flat["nodes"]],
        "edges": flat["edges"],
    }


def derive_key(kind: str, params: Any, fingerprint: str) -> str:
    """The content address of one computation (64 hex chars)."""
    blob = json.dumps(
        {
            "fingerprint": fingerprint,
            "kind": kind,
            "params": encode_for_key(params),
            "schema": STORE_SCHEMA_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

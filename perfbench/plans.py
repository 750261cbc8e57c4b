"""The seeded request plan of the ``serve_hits`` workload.

A plan is built once per seed, before any timing starts, and the same
seed always gives the same plan (bodies, order and arrival times).
Each phase has exact request-type counts and asks for every key of a
type equally often; only the order and the arrival times come from the
seed.  Arrival
times are a Poisson process conditioned on the phase's request count:
sorted uniform draws over the phase's duration, so the offered rate is
exactly ``count / duration``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Nominal phase layout at the benchmark's ``run_seconds``; phase lengths
#: scale with ``--seconds`` so short development runs stay short.
NOMINAL_SECONDS = 48.0

#: An unmeasured warm-up at the low rate, so lazy caches fill first.
WARM_S = 1.0
#: Fixed rates (requests/s), sized for 1000 samples each at the nominal
#: length, and the rate ladder climbed above them until a rung fails.
LOW_RPS, HIGH_RPS = 50.0, 60.0
LOW_S, HIGH_S = 20.0, 1000 / 60.0
LADDER_RPS = (80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0, 220.0)
RUNG_S = 2.0

#: Gadget keys of the mix: ``(construction, ell, t)`` with alpha = 1.
#: Quadratic ell=3, t=3 (a 55 KB body) is left out: bodies stay 5.9-30.6 KB.
GADGETS = [
    (construction, ell, t)
    for construction in ("linear", "quadratic")
    for ell in (2, 3)
    for t in (2, 3)
    if (construction, ell, t) != ("quadratic", 3, 3)
]
#: Linear claim parameter points ``(ell, t)`` and the quadratic one.
LINEAR_CLAIMS = ((3, 2), (4, 3))
QUADRATIC_CLAIMS = ((2, 2),)
CLAIM_SAMPLES = 2
#: Gadget graphs the mix solves over ``/v1/maxis``, in both modes.
MAXIS_GRAPHS = (("linear", 2, 2), ("linear", 2, 3))

@dataclass
class Request:
    """One planned request and what a correct answer must satisfy."""

    method: str
    path: str
    body: bytes = b""
    #: ``gadget`` | ``claim`` | ``maxis`` | ``health`` — the check to run.
    kind: str = "health"
    #: Names the store key the request asks for.
    key: str = ""
    #: For ``maxis``: index into :attr:`Plan.graphs`, and the exact
    #: optimum the client solved for (``None`` for greedy requests).
    graph: int = -1
    expected_weight: Optional[float] = None


@dataclass
class Phase:
    name: str
    requests: List[Request]
    #: Due offsets (s) from the phase start.
    offsets: List[float]

    @property
    def rate(self) -> float:
        """Offered rate: arrivals per second between the first and last."""
        return (len(self.offsets) - 1) / (self.offsets[-1] - self.offsets[0])


@dataclass
class Graph:
    """A graph sent to ``/v1/maxis`` in the client's checking form."""

    weights: Dict[str, float]
    edges: List[Tuple[str, str]]


@dataclass
class Plan:
    phases: List[Phase]
    #: Every key of the mix, sent once, cold, during set-up.
    prewarm: List[Request]
    graphs: List[Graph]

    def digest(self) -> str:
        """SHA-256 over every request and arrival time, in plan order."""
        h = hashlib.sha256()
        for phase in self.phases:
            h.update(phase.name.encode())
            h.update(json.dumps([round(x, 9) for x in phase.offsets]).encode())
            for request in phase.requests:
                h.update(f"{request.method} {request.path}\n".encode())
                h.update(request.body)
        return h.hexdigest()


def _node_id(encoded: Any) -> str:
    return json.dumps(encoded, separators=(",", ":"))


def _graph_body(graph: Any, mode: str) -> Tuple[bytes, Graph]:
    """A ``/v1/maxis`` body, in graph iteration order, plus its check form.

    The service decodes any node order, so the client skips the
    canonical sort of ``graph_to_dict``; the store key is canonical
    either way.
    """
    from repro.graphs.serialize import encode_node

    ids = {node: encode_node(node) for node in graph.nodes()}
    nodes = [{"id": ids[node], "weight": graph.weight(node)} for node in graph.nodes()]
    edges = [[ids[u], ids[v]] for u, v in graph.edges()]
    body = json.dumps({"graph": {"nodes": nodes, "edges": edges}, "mode": mode})
    check = Graph(
        weights={_node_id(ids[node]): graph.weight(node) for node in graph.nodes()},
        edges=[(_node_id(ids[u]), _node_id(ids[v])) for u, v in graph.edges()],
    )
    return body.encode(), check


def _json(document: Dict[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True).encode()


def _arrivals(rng: random.Random, count: int, seconds: float) -> List[float]:
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count - 1))
    return offsets + [seconds]


def _shuffled(rng: random.Random, groups: Sequence[Tuple[float, List[Any]]], count: int) -> List[Any]:
    """``count`` items in exact shares of ``(share, choices)`` groups.

    Within a group the choices take turns, so every key is asked for
    equally often; then the whole list is shuffled.
    """
    items: List[Any] = []
    for index, (share, choices) in enumerate(groups):
        n = round(share * count) if index < len(groups) - 1 else count - len(items)
        items.extend(choices[i % len(choices)] for i in range(n))
    rng.shuffle(items)
    return items


def _scaled(seconds: float, nominal: float) -> float:
    return nominal * seconds / NOMINAL_SECONDS


def hits_plan(seed: int, seconds: float) -> Plan:
    """Warm traffic: every key is prewarmed, then replayed at fixed rates."""
    from repro.core import QUADRATIC_CLAIM_NAMES, linear_claim_names
    from repro.gadgets import GadgetParameters, LinearConstruction
    from repro.maxis import max_weight_independent_set

    rng = random.Random(seed)
    gadgets = [
        Request(
            "POST", "/v1/gadgets", kind="gadget", key=f"gadget:{c}:{ell}:{t}",
            body=_json({"construction": c, "params": {"ell": ell, "alpha": 1, "t": t}}),
        )
        for c, ell, t in GADGETS
    ]
    claims = []
    for family, points in (("linear", LINEAR_CLAIMS), ("quadratic", QUADRATIC_CLAIMS)):
        for ell, t in points:
            params = {"ell": ell, "alpha": 1, "t": t}
            names = (
                linear_claim_names(GadgetParameters(ell, 1, t))
                if family == "linear"
                else QUADRATIC_CLAIM_NAMES
            )
            for name in names:
                claims.append(
                    Request(
                        "POST", "/v1/claims", kind="claim",
                        key=f"claim:{family}:{ell}:{t}:{name}",
                        body=_json({"family": family, "name": name, "params": params,
                                    "num_samples": CLAIM_SAMPLES}),
                    )
                )
    graphs: List[Graph] = []
    solves = []
    for _, ell, t in MAXIS_GRAPHS:
        graph = LinearConstruction(GadgetParameters(ell, 1, t)).graph
        exact = max_weight_independent_set(graph).weight
        for mode in ("exact", "greedy"):
            body, check = _graph_body(graph, mode)
            graphs.append(check)
            solves.append(
                Request(
                    "POST", "/v1/maxis", body=body, kind="maxis",
                    key=f"maxis:{ell}:{t}:{mode}", graph=len(graphs) - 1,
                    expected_weight=exact if mode == "exact" else None,
                )
            )
    health = [Request("GET", "/health"), Request("GET", "/metrics")]
    groups = [(0.35, gadgets), (0.45, claims), (0.10, solves), (0.10, health)]
    phases = []
    rungs = [("warm", LOW_RPS, WARM_S), ("low", LOW_RPS, LOW_S), ("high", HIGH_RPS, HIGH_S)]
    rungs += [(f"ladder{int(rps)}", rps, RUNG_S) for rps in LADDER_RPS]
    for name, rps, duration in rungs:
        count = max(2, round(rps * _scaled(seconds, duration)))
        phases.append(Phase(name, _shuffled(rng, groups, count), _arrivals(rng, count, count / rps)))
    return Plan(phases=phases, prewarm=gadgets + claims + solves, graphs=graphs)

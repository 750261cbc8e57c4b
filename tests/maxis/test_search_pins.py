"""Witness pins for the exact MaxIS search.

Each instance below is solved with the kernel on and off, and the
optimum weight and the sorted witness must match the pinned values.
``best_set`` is the first optimum in DFS order and is replaced only on
a strict improvement, so any sound bound — a cheaper clique cover, a
different rebuild ratio — must leave every pin untouched.  A change to
the search that moves a pin changed *which* optimum is reported (or
the optimum itself), not merely how fast it was found.

The instances are the sweep's shapes: ``theorem1`` at t = 2..5,
``theorem2`` at its t <= 4 points, the Claim 7 quadratic case at
ell = 4, t = 3 (each with seeded disjoint and intersecting inputs), plus
a few seeded ``random_graph``s.  Every pin is independent of
``PYTHONHASHSEED``: the branching order depends only on weights,
degrees and insertion order, never on set iteration order.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

import pytest

from repro.commcc import pairwise_disjoint_inputs, uniquely_intersecting_inputs
from repro.gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    QuadraticMaxISFamily,
    smallest_meaningful_linear_parameters,
)
from repro.graphs import WeightedGraph, random_graph
from repro.maxis import max_weight_independent_set

_SAMPLERS = {
    "disjoint": pairwise_disjoint_inputs,
    "intersecting": uniquely_intersecting_inputs,
}


def _linear(t: int, side: str, seed: int) -> Callable[[], WeightedGraph]:
    def build() -> WeightedGraph:
        params = smallest_meaningful_linear_parameters(t)
        inputs = _SAMPLERS[side](params.k, t, rng=random.Random(seed))
        return LinearMaxISFamily(params).build(inputs)

    return build


def _quadratic(ell: int, t: int, side: str, seed: int) -> Callable[[], WeightedGraph]:
    def build() -> WeightedGraph:
        params = GadgetParameters(ell=ell, alpha=1, t=t)
        inputs = _SAMPLERS[side](params.k * params.k, t, rng=random.Random(seed))
        return QuadraticMaxISFamily(params).build(inputs)

    return build


def _random(n: int, p: float, seed: int) -> Callable[[], WeightedGraph]:
    def build() -> WeightedGraph:
        return random_graph(n, p, rng=random.Random(seed), weight_range=(1, 9))

    return build


INSTANCES: Dict[str, Callable[[], WeightedGraph]] = {}
for _t in (2, 3, 4, 5):
    for _side in _SAMPLERS:
        INSTANCES[f"theorem1/t={_t}/{_side}"] = _linear(_t, _side, 100 + _t)
for _ell, _t in ((2, 2), (3, 2), (2, 3), (2, 4)):
    for _side in _SAMPLERS:
        INSTANCES[f"theorem2/ell={_ell},t={_t}/{_side}"] = _quadratic(
            _ell, _t, _side, 200 + 10 * _ell + _t
        )
for _side in _SAMPLERS:
    INSTANCES[f"claim7/ell=4,t=3/{_side}"] = _quadratic(4, 3, _side, 307)
for _n, _p, _seed in ((30, 0.2, 11), (45, 0.3, 12), (60, 0.5, 13), (80, 0.7, 14)):
    INSTANCES[f"random/n={_n},p={_p}"] = _random(_n, _p, _seed)


#: ``name -> (optimum weight, sorted witness)``; both kernel paths agree.
PINS = {
    "theorem1/t=2/disjoint": (
        12,
        [("A", 0, 1), ("A", 1, 1), ("C", 0, 0, 1), ("C", 0, 1, 1),
         ("C", 0, 2, 1), ("C", 0, 3, 1), ("C", 1, 0, 1), ("C", 1, 1, 1),
         ("C", 1, 2, 1), ("C", 1, 3, 1)],
    ),
    "theorem1/t=2/intersecting": (
        14,
        [("A", 0, 1), ("A", 1, 1), ("C", 0, 0, 1), ("C", 0, 1, 1),
         ("C", 0, 2, 1), ("C", 0, 3, 1), ("C", 1, 0, 1), ("C", 1, 1, 1),
         ("C", 1, 2, 1), ("C", 1, 3, 1)],
    ),
    "theorem1/t=3/disjoint": (
        21,
        [("A", 0, 1), ("A", 1, 1), ("A", 2, 1), ("C", 0, 0, 1), ("C", 0, 1, 1),
         ("C", 0, 2, 1), ("C", 0, 3, 1), ("C", 0, 4, 1), ("C", 1, 0, 1),
         ("C", 1, 1, 1), ("C", 1, 2, 1), ("C", 1, 3, 1), ("C", 1, 4, 1),
         ("C", 2, 0, 1), ("C", 2, 1, 1), ("C", 2, 2, 1), ("C", 2, 3, 1),
         ("C", 2, 4, 1)],
    ),
    "theorem1/t=3/intersecting": (
        27,
        [("A", 0, 3), ("A", 1, 3), ("A", 2, 3), ("C", 0, 0, 3), ("C", 0, 1, 3),
         ("C", 0, 2, 3), ("C", 0, 3, 3), ("C", 0, 4, 3), ("C", 1, 0, 3),
         ("C", 1, 1, 3), ("C", 1, 2, 3), ("C", 1, 3, 3), ("C", 1, 4, 3),
         ("C", 2, 0, 3), ("C", 2, 1, 3), ("C", 2, 2, 3), ("C", 2, 3, 3),
         ("C", 2, 4, 3)],
    ),
    "theorem1/t=4/disjoint": (
        37,
        [("A", 0, 4), ("A", 1, 4), ("A", 2, 4), ("A", 3, 4), ("C", 0, 0, 4),
         ("C", 0, 1, 4), ("C", 0, 2, 4), ("C", 0, 3, 4), ("C", 0, 4, 4),
         ("C", 0, 5, 4), ("C", 0, 6, 4), ("C", 1, 0, 4), ("C", 1, 1, 4),
         ("C", 1, 2, 4), ("C", 1, 3, 4), ("C", 1, 4, 4), ("C", 1, 5, 4),
         ("C", 1, 6, 4), ("C", 2, 0, 4), ("C", 2, 1, 4), ("C", 2, 2, 4),
         ("C", 2, 3, 4), ("C", 2, 4, 4), ("C", 2, 5, 4), ("C", 2, 6, 4),
         ("C", 3, 0, 4), ("C", 3, 1, 4), ("C", 3, 2, 4), ("C", 3, 3, 4),
         ("C", 3, 4, 4), ("C", 3, 5, 4), ("C", 3, 6, 4)],
    ),
    "theorem1/t=4/intersecting": (
        52,
        [("A", 0, 0), ("A", 1, 0), ("A", 2, 0), ("A", 3, 0), ("C", 0, 0, 0),
         ("C", 0, 1, 0), ("C", 0, 2, 0), ("C", 0, 3, 0), ("C", 0, 4, 0),
         ("C", 0, 5, 0), ("C", 0, 6, 0), ("C", 1, 0, 0), ("C", 1, 1, 0),
         ("C", 1, 2, 0), ("C", 1, 3, 0), ("C", 1, 4, 0), ("C", 1, 5, 0),
         ("C", 1, 6, 0), ("C", 2, 0, 0), ("C", 2, 1, 0), ("C", 2, 2, 0),
         ("C", 2, 3, 0), ("C", 2, 4, 0), ("C", 2, 5, 0), ("C", 2, 6, 0),
         ("C", 3, 0, 0), ("C", 3, 1, 0), ("C", 3, 2, 0), ("C", 3, 3, 0),
         ("C", 3, 4, 0), ("C", 3, 5, 0), ("C", 3, 6, 0)],
    ),
    "theorem1/t=5/disjoint": (
        45,
        [("A", 0, 1), ("A", 1, 1), ("A", 2, 1), ("A", 3, 1), ("A", 4, 1),
         ("C", 0, 0, 1), ("C", 0, 1, 1), ("C", 0, 2, 1), ("C", 0, 3, 1),
         ("C", 0, 4, 1), ("C", 0, 5, 1), ("C", 0, 6, 1), ("C", 1, 0, 1),
         ("C", 1, 1, 1), ("C", 1, 2, 1), ("C", 1, 3, 1), ("C", 1, 4, 1),
         ("C", 1, 5, 1), ("C", 1, 6, 1), ("C", 2, 0, 1), ("C", 2, 1, 1),
         ("C", 2, 2, 1), ("C", 2, 3, 1), ("C", 2, 4, 1), ("C", 2, 5, 1),
         ("C", 2, 6, 1), ("C", 3, 0, 1), ("C", 3, 1, 1), ("C", 3, 2, 1),
         ("C", 3, 3, 1), ("C", 3, 4, 1), ("C", 3, 5, 1), ("C", 3, 6, 1),
         ("C", 4, 0, 1), ("C", 4, 1, 1), ("C", 4, 2, 1), ("C", 4, 3, 1),
         ("C", 4, 4, 1), ("C", 4, 5, 1), ("C", 4, 6, 1)],
    ),
    "theorem1/t=5/intersecting": (
        65,
        [("A", 0, 4), ("A", 1, 4), ("A", 2, 4), ("A", 3, 4), ("A", 4, 4),
         ("C", 0, 0, 4), ("C", 0, 1, 4), ("C", 0, 2, 4), ("C", 0, 3, 4),
         ("C", 0, 4, 4), ("C", 0, 5, 4), ("C", 0, 6, 4), ("C", 1, 0, 4),
         ("C", 1, 1, 4), ("C", 1, 2, 4), ("C", 1, 3, 4), ("C", 1, 4, 4),
         ("C", 1, 5, 4), ("C", 1, 6, 4), ("C", 2, 0, 4), ("C", 2, 1, 4),
         ("C", 2, 2, 4), ("C", 2, 3, 4), ("C", 2, 4, 4), ("C", 2, 5, 4),
         ("C", 2, 6, 4), ("C", 3, 0, 4), ("C", 3, 1, 4), ("C", 3, 2, 4),
         ("C", 3, 3, 4), ("C", 3, 4, 4), ("C", 3, 5, 4), ("C", 3, 6, 4),
         ("C", 4, 0, 4), ("C", 4, 1, 4), ("C", 4, 2, 4), ("C", 4, 3, 4),
         ("C", 4, 4, 4), ("C", 4, 5, 4), ("C", 4, 6, 4)],
    ),
    "theorem2/ell=2,t=2/disjoint": (
        18,
        [("A", 0, 0, 0), ("A", 1, 0, 0), ("A", 1, 1, 1), ("C", 0, 0, 0, 0),
         ("C", 0, 0, 1, 0), ("C", 0, 0, 2, 0), ("C", 0, 1, 0, 1),
         ("C", 0, 1, 1, 1), ("C", 0, 1, 2, 1), ("C", 1, 0, 0, 0),
         ("C", 1, 0, 1, 0), ("C", 1, 0, 2, 0), ("C", 1, 1, 0, 1),
         ("C", 1, 1, 1, 1), ("C", 1, 1, 2, 1)],
    ),
    "theorem2/ell=2,t=2/intersecting": (
        20,
        [("A", 0, 0, 0), ("A", 0, 1, 1), ("A", 1, 0, 0), ("A", 1, 1, 1),
         ("C", 0, 0, 0, 0), ("C", 0, 0, 1, 0), ("C", 0, 0, 2, 0),
         ("C", 0, 1, 0, 1), ("C", 0, 1, 1, 1), ("C", 0, 1, 2, 1),
         ("C", 1, 0, 0, 0), ("C", 1, 0, 1, 0), ("C", 1, 0, 2, 0),
         ("C", 1, 1, 0, 1), ("C", 1, 1, 1, 1), ("C", 1, 1, 2, 1)],
    ),
    "theorem2/ell=3,t=2/disjoint": (
        25,
        [("A", 0, 0, 3), ("A", 1, 0, 3), ("A", 1, 1, 1), ("C", 0, 0, 0, 3),
         ("C", 0, 0, 1, 3), ("C", 0, 0, 2, 3), ("C", 0, 0, 3, 3),
         ("C", 0, 1, 0, 1), ("C", 0, 1, 1, 1), ("C", 0, 1, 2, 1),
         ("C", 0, 1, 3, 1), ("C", 1, 0, 0, 3), ("C", 1, 0, 1, 3),
         ("C", 1, 0, 2, 3), ("C", 1, 0, 3, 3), ("C", 1, 1, 0, 1),
         ("C", 1, 1, 1, 1), ("C", 1, 1, 2, 1), ("C", 1, 1, 3, 1)],
    ),
    "theorem2/ell=3,t=2/intersecting": (
        28,
        [("A", 0, 0, 2), ("A", 0, 1, 0), ("A", 1, 0, 2), ("A", 1, 1, 0),
         ("C", 0, 0, 0, 2), ("C", 0, 0, 1, 2), ("C", 0, 0, 2, 2),
         ("C", 0, 0, 3, 2), ("C", 0, 1, 0, 0), ("C", 0, 1, 1, 0),
         ("C", 0, 1, 2, 0), ("C", 0, 1, 3, 0), ("C", 1, 0, 0, 2),
         ("C", 1, 0, 1, 2), ("C", 1, 0, 2, 2), ("C", 1, 0, 3, 2),
         ("C", 1, 1, 0, 0), ("C", 1, 1, 1, 0), ("C", 1, 1, 2, 0),
         ("C", 1, 1, 3, 0)],
    ),
    "theorem2/ell=2,t=3/disjoint": (
        26,
        [("A", 0, 0, 0), ("A", 1, 1, 1), ("A", 2, 0, 0), ("A", 2, 1, 1),
         ("C", 0, 0, 0, 0), ("C", 0, 0, 1, 0), ("C", 0, 0, 2, 0),
         ("C", 0, 1, 0, 1), ("C", 0, 1, 1, 1), ("C", 0, 1, 2, 1),
         ("C", 1, 0, 0, 0), ("C", 1, 0, 1, 0), ("C", 1, 0, 2, 0),
         ("C", 1, 1, 0, 1), ("C", 1, 1, 1, 1), ("C", 1, 1, 2, 1),
         ("C", 2, 0, 0, 0), ("C", 2, 0, 1, 0), ("C", 2, 0, 2, 0),
         ("C", 2, 1, 0, 1), ("C", 2, 1, 1, 1), ("C", 2, 1, 2, 1)],
    ),
    "theorem2/ell=2,t=3/intersecting": (
        30,
        [("A", 0, 0, 1), ("A", 0, 1, 2), ("A", 1, 0, 1), ("A", 1, 1, 2),
         ("A", 2, 0, 1), ("A", 2, 1, 2), ("C", 0, 0, 0, 1), ("C", 0, 0, 1, 1),
         ("C", 0, 0, 2, 1), ("C", 0, 1, 0, 2), ("C", 0, 1, 1, 2),
         ("C", 0, 1, 2, 2), ("C", 1, 0, 0, 1), ("C", 1, 0, 1, 1),
         ("C", 1, 0, 2, 1), ("C", 1, 1, 0, 2), ("C", 1, 1, 1, 2),
         ("C", 1, 1, 2, 2), ("C", 2, 0, 0, 1), ("C", 2, 0, 1, 1),
         ("C", 2, 0, 2, 1), ("C", 2, 1, 0, 2), ("C", 2, 1, 1, 2),
         ("C", 2, 1, 2, 2)],
    ),
    "theorem2/ell=2,t=4/disjoint": (
        34,
        [("A", 0, 0, 0), ("A", 1, 0, 0), ("A", 1, 1, 0), ("A", 2, 0, 0),
         ("A", 3, 0, 0), ("C", 0, 0, 0, 0), ("C", 0, 0, 1, 0),
         ("C", 0, 0, 2, 0), ("C", 0, 1, 0, 0), ("C", 0, 1, 1, 0),
         ("C", 0, 1, 2, 0), ("C", 1, 0, 0, 0), ("C", 1, 0, 1, 0),
         ("C", 1, 0, 2, 0), ("C", 1, 1, 0, 0), ("C", 1, 1, 1, 0),
         ("C", 1, 1, 2, 0), ("C", 2, 0, 0, 0), ("C", 2, 0, 1, 0),
         ("C", 2, 0, 2, 0), ("C", 2, 1, 0, 0), ("C", 2, 1, 1, 0),
         ("C", 2, 1, 2, 0), ("C", 3, 0, 0, 0), ("C", 3, 0, 1, 0),
         ("C", 3, 0, 2, 0), ("C", 3, 1, 0, 0), ("C", 3, 1, 1, 0),
         ("C", 3, 1, 2, 0)],
    ),
    "theorem2/ell=2,t=4/intersecting": (
        40,
        [("A", 0, 0, 0), ("A", 0, 1, 1), ("A", 1, 0, 0), ("A", 1, 1, 1),
         ("A", 2, 0, 0), ("A", 2, 1, 1), ("A", 3, 0, 0), ("A", 3, 1, 1),
         ("C", 0, 0, 0, 0), ("C", 0, 0, 1, 0), ("C", 0, 0, 2, 0),
         ("C", 0, 1, 0, 1), ("C", 0, 1, 1, 1), ("C", 0, 1, 2, 1),
         ("C", 1, 0, 0, 0), ("C", 1, 0, 1, 0), ("C", 1, 0, 2, 0),
         ("C", 1, 1, 0, 1), ("C", 1, 1, 1, 1), ("C", 1, 1, 2, 1),
         ("C", 2, 0, 0, 0), ("C", 2, 0, 1, 0), ("C", 2, 0, 2, 0),
         ("C", 2, 1, 0, 1), ("C", 2, 1, 1, 1), ("C", 2, 1, 2, 1),
         ("C", 3, 0, 0, 0), ("C", 3, 0, 1, 0), ("C", 3, 0, 2, 0),
         ("C", 3, 1, 0, 1), ("C", 3, 1, 1, 1), ("C", 3, 1, 2, 1)],
    ),
    "claim7/ell=4,t=3/disjoint": (
        46,
        [("A", 0, 0, 1), ("A", 1, 0, 1), ("A", 2, 0, 1), ("A", 2, 1, 3),
         ("C", 0, 0, 0, 1), ("C", 0, 0, 1, 1), ("C", 0, 0, 2, 1),
         ("C", 0, 0, 3, 1), ("C", 0, 0, 4, 1), ("C", 0, 1, 0, 3),
         ("C", 0, 1, 1, 3), ("C", 0, 1, 2, 3), ("C", 0, 1, 3, 3),
         ("C", 0, 1, 4, 3), ("C", 1, 0, 0, 1), ("C", 1, 0, 1, 1),
         ("C", 1, 0, 2, 1), ("C", 1, 0, 3, 1), ("C", 1, 0, 4, 1),
         ("C", 1, 1, 0, 3), ("C", 1, 1, 1, 3), ("C", 1, 1, 2, 3),
         ("C", 1, 1, 3, 3), ("C", 1, 1, 4, 3), ("C", 2, 0, 0, 1),
         ("C", 2, 0, 1, 1), ("C", 2, 0, 2, 1), ("C", 2, 0, 3, 1),
         ("C", 2, 0, 4, 1), ("C", 2, 1, 0, 3), ("C", 2, 1, 1, 3),
         ("C", 2, 1, 2, 3), ("C", 2, 1, 3, 3), ("C", 2, 1, 4, 3)],
    ),
    "claim7/ell=4,t=3/intersecting": (
        54,
        [("A", 0, 0, 4), ("A", 0, 1, 0), ("A", 1, 0, 4), ("A", 1, 1, 0),
         ("A", 2, 0, 4), ("A", 2, 1, 0), ("C", 0, 0, 0, 4), ("C", 0, 0, 1, 4),
         ("C", 0, 0, 2, 4), ("C", 0, 0, 3, 4), ("C", 0, 0, 4, 4),
         ("C", 0, 1, 0, 0), ("C", 0, 1, 1, 0), ("C", 0, 1, 2, 0),
         ("C", 0, 1, 3, 0), ("C", 0, 1, 4, 0), ("C", 1, 0, 0, 4),
         ("C", 1, 0, 1, 4), ("C", 1, 0, 2, 4), ("C", 1, 0, 3, 4),
         ("C", 1, 0, 4, 4), ("C", 1, 1, 0, 0), ("C", 1, 1, 1, 0),
         ("C", 1, 1, 2, 0), ("C", 1, 1, 3, 0), ("C", 1, 1, 4, 0),
         ("C", 2, 0, 0, 4), ("C", 2, 0, 1, 4), ("C", 2, 0, 2, 4),
         ("C", 2, 0, 3, 4), ("C", 2, 0, 4, 4), ("C", 2, 1, 0, 0),
         ("C", 2, 1, 1, 0), ("C", 2, 1, 2, 0), ("C", 2, 1, 3, 0),
         ("C", 2, 1, 4, 0)],
    ),
    "random/n=30,p=0.2": (
        79,
        [0, 1, 2, 3, 4, 7, 10, 15, 18, 27, 28],
    ),
    "random/n=45,p=0.3": (
        72,
        [0, 3, 4, 5, 11, 12, 33, 37, 39, 44],
    ),
    "random/n=60,p=0.5": (
        44,
        [24, 36, 40, 44, 45, 49],
    ),
    "random/n=80,p=0.7": (
        41,
        [35, 41, 47, 61, 64],
    ),
}


def test_every_instance_is_pinned():
    assert list(PINS) == list(INSTANCES)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_witness_pinned(name, kernel):
    weight, witness = PINS[name]
    result = max_weight_independent_set(INSTANCES[name](), kernel=kernel)
    assert result.weight == weight
    assert sorted(result.nodes) == witness

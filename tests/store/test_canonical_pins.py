"""Byte pins for canonical graph payloads and store keys.

A graph's JSON payload (``graph_to_json``) is what the store's graph
codec writes and what ``/v1/gadgets`` returns; a store key is the
SHA-256 of the canonical parameters, graphs included.  Both follow one
canonical node order, so any change to how that order is computed must
leave every byte below untouched.  The serve goldens normalise keys to
ordinals, so these are the only byte-for-byte key pins.

Keys are derived under a fixed fingerprint string: the real
``combined_fingerprint`` hashes the source of the modules a job depends
on and so changes with every edit to them.  Nothing here depends on
``PYTHONHASHSEED``.

The values were computed once at the commit before the canonical order
was memoized, by evaluating each helper below there, and were left
untouched since; regenerate none of them to match changed bytes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict

import pytest

from repro.graphs import WeightedGraph, random_graph
from repro.graphs.serialize import graph_to_json
from repro.parallel.jobs import execute_unit
from repro.store import derive_key, get_codec

FINGERPRINT = "fixed-fingerprint"


def _gadget_params(construction: str, ell: int, t: int) -> Dict[str, Any]:
    return {"construction": construction, "ell": ell, "alpha": 1, "t": t, "k": None}


def _gadget(construction: str, ell: int, t: int) -> WeightedGraph:
    return execute_unit("gadget_graph", _gadget_params(construction, ell, t))


def _mixed_node(i: int) -> Any:
    """Ints, strings and nested tuples, so JSON text order mixes types."""
    if i % 3 == 0:
        return i
    if i % 3 == 1:
        return f"v{i}"
    return ("g", i % 5, (i, "x"))


def _mixed(n: int, p: float, seed: int) -> Callable[[], WeightedGraph]:
    def build() -> WeightedGraph:
        return random_graph(
            n,
            p,
            rng=random.Random(seed),
            weight_range=(1, 9),
            node_factory=_mixed_node,
        )

    return build


GRAPHS: Dict[str, Callable[[], WeightedGraph]] = {}
for _construction in ("linear", "quadratic"):
    for _ell in (2, 3):
        for _t in (2, 3):
            GRAPHS[f"{_construction}/ell={_ell},t={_t}"] = (
                lambda c=_construction, e=_ell, t=_t: _gadget(c, e, t)
            )
for _n, _p, _seed in ((12, 0.4, 21), (30, 0.25, 22), (45, 0.5, 23)):
    GRAPHS[f"mixed/n={_n},p={_p}"] = _mixed(_n, _p, _seed)


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _gadget_key(name: str) -> str:
    construction, _, shape = name.partition("/")
    ell, t = (int(part.split("=")[1]) for part in shape.split(","))
    return derive_key(
        "parallel.gadget_graph", _gadget_params(construction, ell, t), FINGERPRINT
    )


def _maxis_key(name: str, mode: str) -> str:
    return derive_key(
        "parallel.maxis_solve", {"graph": GRAPHS[name](), "mode": mode}, FINGERPRINT
    )


def _maxis_payload(name: str, mode: str) -> str:
    value = execute_unit("maxis_solve", {"graph": GRAPHS[name](), "mode": mode})
    return get_codec("json").encode(value).decode("utf-8")


NODE_LIST = [("g", 2, (7, "x")), 3, "v10", ("g", 0, (5, "x")), 0, "v1", ("a",), 12]

GRAPH_JSON_SHA256 = {
    "linear/ell=2,t=2": "95555bfcd4ee52aaa741a295233460ccd6e3144a3d4dcde0b0d281ae746e5047",
    "linear/ell=2,t=3": "e528ea082839ddee7215e53b1b6b5b43344a050fa2a2880f400e87367cc503c7",
    "linear/ell=3,t=2": "dddcef0c84d82aaad2f030f0ced00ec9fc54f9693c345fb2ada9767e646927c6",
    "linear/ell=3,t=3": "945471fca57f66ddb42229d31f2f29797e420a437712dde8ac65398c036bd40c",
    "quadratic/ell=2,t=2": "4932db5d363892e9baf55cb0bebbf9f62b81b3796cfc94b446f306994e96b526",
    "quadratic/ell=2,t=3": "4011f64aa32fbaa1286cd38ffe35fede6dcb5ec7087f11f98e5e8f76d6a68dd8",
    "quadratic/ell=3,t=2": "d9d2f77c14292327e125019f027089e1ccdf50578dbb19b10359eeafec8722b9",
    "quadratic/ell=3,t=3": "b142231220c8809dc0071a9112c41903ad56a0d4c4e6e77939caf29d450c1e07",
    "mixed/n=12,p=0.4": "dbb547dbf82ffc96e861f82515248b4a953e915dff4eb933a4985a9709aa8478",
    "mixed/n=30,p=0.25": "435a4a865f5f06b4e5d9a4f4b67971a433f253131b24accd2800877407055daf",
    "mixed/n=45,p=0.5": "0f8de20606b5a02e4889afca90aa8d5d191c28b6d3ce84c0ad4e732ee0af885b",
}

GADGET_KEYS = {
    "linear/ell=2,t=2": "d958453de631b56d7787c8a04fdc208adfeee9198c1d149ee45c4298f64fafdf",
    "linear/ell=2,t=3": "f244b94c4769c421e376f11414a84ca34f5ef850feceb9740d8298e464f4326c",
    "linear/ell=3,t=2": "75672873799ee62c4c088c8e0930d162229601f476713f4825d5581a4f814100",
    "linear/ell=3,t=3": "298e3b008f1a265be9248c2392dff0b1c2f591182491c00a0c17ffdaaccb5bb5",
    "quadratic/ell=2,t=2": "64187e262c2ad9ce902d788b7220d6cfd0d3307bd5132645ac819c9a579c8d4a",
    "quadratic/ell=2,t=3": "a43af8a3c28095301fe66ca0d75845a19d11431083a855d14f1c757880734c64",
    "quadratic/ell=3,t=2": "3cdc0f90f28befa549788bc92c14fdd62a62374c4f47d8bcf4f7e571d9105491",
    "quadratic/ell=3,t=3": "30b0c18cae3485b5ba8f6596bee050c773f7a0527710ff891792d393b86cc15d",
}

MAXIS_KEYS = {
    ("linear/ell=2,t=2", "exact"): "4b21c7ae05dc01d0825c69a2d3eda9c3584b6533a40638c9723da5edede2a9da",
    ("linear/ell=2,t=2", "greedy"): "8ce7fa391da6b6ece5a1834a7ed863e482b6980e7b5b11d35f5da023817944f1",
    ("linear/ell=2,t=3", "exact"): "7d5fa24ff26ca52a163075ff911e25edf3e227ccd51141b1e0b118b72972cd99",
    ("linear/ell=2,t=3", "greedy"): "3cef52c0e0fe15e6575c054bb8b24f4e2eb574930973f241ae8b126f24ee7699",
}

MAXIS_PAYLOAD_SHA256 = {
    ("linear/ell=2,t=2", "exact"): "4e07ddbf434047091230d03842a245459aac51a48552126fcf118c06c28d23fa",
    ("linear/ell=2,t=2", "greedy"): "129371f09a7c6a78703f9effcf78c90d897e1d095eb2455588077189fa7daf97",
    ("linear/ell=2,t=3", "exact"): "0272b83db2a3a1f1e017f2f9282860ba7b41f2de9beea69e777ddb1fbe0139b2",
    ("linear/ell=2,t=3", "greedy"): "65d4c79cd9546447573192a0f39e2999fe62abddd94c9ed8c6354f41a1df3c66",
}

MIXED_GRAPH_KEYS = {
    "mixed/n=12,p=0.4": "87e5815b5afb844eab6faf0c2d7b2e3d8d9a449ac1d1f7000621a6e87d2f4fd7",
    "mixed/n=30,p=0.25": "389d98944742e9d329a616bead5de7d3ad54efea545a93c5efecb1fa69873297",
    "mixed/n=45,p=0.5": "38e944000370a99796b0c1cc80816fbf873f616a13e77902b3548191aa9a8633",
}

NODE_LIST_PAYLOAD = b'["v1","v10",0,12,3,["__tuple__","a"],["__tuple__","g",0,["__tuple__",5,"x"]],["__tuple__","g",2,["__tuple__",7,"x"]]]'


@pytest.mark.parametrize("name", sorted(GRAPH_JSON_SHA256))
def test_graph_json_bytes(name):
    assert _sha(graph_to_json(GRAPHS[name]())) == GRAPH_JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(GADGET_KEYS))
def test_gadget_graph_key(name):
    assert _gadget_key(name) == GADGET_KEYS[name]


@pytest.mark.parametrize("name,mode", sorted(MAXIS_KEYS))
def test_maxis_solve_key(name, mode):
    assert _maxis_key(name, mode) == MAXIS_KEYS[(name, mode)]


@pytest.mark.parametrize("name,mode", sorted(MAXIS_PAYLOAD_SHA256))
def test_maxis_solve_payload(name, mode):
    assert _sha(_maxis_payload(name, mode)) == MAXIS_PAYLOAD_SHA256[(name, mode)]


@pytest.mark.parametrize("name", sorted(MIXED_GRAPH_KEYS))
def test_mixed_graph_key(name):
    key = derive_key("graph", {"graph": GRAPHS[name]()}, FINGERPRINT)
    assert key == MIXED_GRAPH_KEYS[name]


def test_node_list_payload():
    assert get_codec("node_list").encode(NODE_LIST) == NODE_LIST_PAYLOAD


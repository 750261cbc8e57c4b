"""Satellite: serve payloads round-trip the store codecs byte for byte.

Every JSON endpoint embeds its ``result`` as the parsed form of the
store codec's canonical payload: re-dumping the response's ``result``
with ``sort_keys=True`` and the codec's separators must reproduce the
exact bytes the codec stores.  The compact codecs (claim_check, report,
node_list) use ``separators=(",", ":")``; the graph codec stores
``graph_to_json`` output, which keeps the default separators.  That is
what makes a response auditable against the cache — and what makes a
warm (``cache_hit``) response byte-identical to the cold (``computed``)
one that populated it.

The second half pins the failure plane: malformed request bodies come
back as structured 400 JSON documents, never tracebacks.
"""

import json

import pytest

from repro import store
from repro.gadgets import GadgetParameters
from repro.graphs.serialize import decode_node, graph_to_dict
from repro.parallel.jobs import execute_unit
from repro.store import get_codec

PARAMS = {"ell": 2, "alpha": 1, "t": 3}


def canonical_bytes(document):
    """Re-dump a response ``result`` exactly as the codecs serialize."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class TestByteDeterminism:
    def test_gadget_result_is_the_graph_codec_payload(self, served):
        _, document, _ = served.post(
            "/v1/gadgets", {"construction": "linear", "params": PARAMS}
        )
        expected = execute_unit(
            "gadget_graph", dict(PARAMS, construction="linear", k=None)
        )
        redumped = json.dumps(document["result"], sort_keys=True).encode("utf-8")
        assert redumped == get_codec("graph").encode(expected)

    def test_graph_codec_is_stable_under_decode_reencode(self):
        codec = get_codec("graph")
        graph = execute_unit(
            "gadget_graph", dict(PARAMS, construction="linear", k=None)
        )
        payload = codec.encode(graph)
        assert codec.encode(codec.decode(payload)) == payload

    def test_claim_result_is_the_claim_check_codec_payload(self, served):
        from repro.core import linear_claim_names

        params = GadgetParameters(**PARAMS)
        name = linear_claim_names(params)[0]
        _, document, _ = served.post(
            "/v1/claims",
            {"family": "linear", "name": name, "params": PARAMS, "num_samples": 2},
        )
        expected = execute_unit(
            "linear_claim", dict(PARAMS, k=None, name=name, num_samples=2)
        )
        assert canonical_bytes(document["result"]) == get_codec(
            "claim_check"
        ).encode(expected)

    def test_maxis_witness_matches_the_node_list_codec(self, served):
        graph = execute_unit(
            "gadget_graph", dict(PARAMS, construction="linear", k=None)
        )
        _, document, _ = served.post(
            "/v1/maxis", {"graph": graph_to_dict(graph), "mode": "exact"}
        )
        witness = document["result"]["witness"]
        nodes = [decode_node(item) for item in witness]
        assert canonical_bytes(witness) == get_codec("node_list").encode(nodes)

    def test_sweep_results_are_report_codec_payloads(self, served):
        from tests.serve.test_endpoints import wait_for_job

        _, submitted, _ = served.post(
            "/v1/sweeps",
            {"sweep": "theorem2", "max_t": 2, "num_samples": 1, "seed": 0},
        )
        finished = wait_for_job(served, submitted["job_id"])
        expected = execute_unit(
            "theorem2_point", {"ell": 2, "t": 2, "num_samples": 1, "seed": 0}
        )
        assert canonical_bytes(finished["result"][0]) == get_codec(
            "report"
        ).encode(expected)

    def test_warm_response_is_byte_identical_to_cold(self, served):
        body = {"construction": "quadratic", "params": {"ell": 2, "alpha": 1, "t": 2}}
        with store.using_store("memory"):
            _, cold, _ = served.post("/v1/gadgets", body)
            _, warm, _ = served.post("/v1/gadgets", body)
        assert cold["disposition"] == "computed"
        assert warm["disposition"] == "cache_hit"
        assert canonical_bytes(cold["result"]) == canonical_bytes(warm["result"])
        assert cold["key"] == warm["key"]


class TestMalformedBodies:
    """Every malformed body is a structured 400 — never a traceback."""

    def assert_structured_400(self, response):
        status, document, _ = response
        assert status == 400
        assert isinstance(document, dict)
        assert "error" in document
        assert "Traceback" not in json.dumps(document)
        return document

    @pytest.mark.parametrize("path", ["/v1/claims", "/v1/gadgets", "/v1/maxis", "/v1/sweeps"])
    def test_empty_body(self, served, path):
        document = self.assert_structured_400(served.post(path, None, raw=b""))
        assert document["error"] == "request body must be a JSON object"

    @pytest.mark.parametrize("path", ["/v1/claims", "/v1/gadgets", "/v1/maxis", "/v1/sweeps"])
    def test_invalid_json(self, served, path):
        document = self.assert_structured_400(
            served.post(path, None, raw=b"{not json")
        )
        assert document["error"] == "request body is not valid JSON"
        assert "reason" in document["detail"]

    def test_json_array_body(self, served):
        document = self.assert_structured_400(
            served.post("/v1/gadgets", [1, 2, 3])
        )
        assert document["detail"] == {"got": "list"}

    def test_missing_params(self, served):
        self.assert_structured_400(
            served.post("/v1/gadgets", {"construction": "linear"})
        )

    def test_non_integer_parameter(self, served):
        document = self.assert_structured_400(
            served.post(
                "/v1/gadgets",
                {"construction": "linear", "params": {"ell": "two", "alpha": 1, "t": 3}},
            )
        )
        assert "'ell'" in document["error"]
        assert document["detail"] == {"got": "two"}

    def test_boolean_is_not_an_integer(self, served):
        self.assert_structured_400(
            served.post(
                "/v1/gadgets",
                {"construction": "linear", "params": {"ell": True, "alpha": 1, "t": 3}},
            )
        )

    def test_unknown_parameter_field(self, served):
        document = self.assert_structured_400(
            served.post(
                "/v1/gadgets",
                {
                    "construction": "linear",
                    "params": {"ell": 2, "alpha": 1, "t": 3, "bogus": 9},
                },
            )
        )
        assert document["detail"] == {"fields": ["bogus"]}

    def test_bad_family(self, served):
        document = self.assert_structured_400(
            served.post("/v1/claims", {"family": "cubic", "params": PARAMS})
        )
        assert document["detail"] == {"got": "cubic"}

    def test_bad_maxis_mode(self, served):
        document = self.assert_structured_400(
            served.post("/v1/maxis", {"graph": {}, "mode": "quantum"})
        )
        assert document["detail"] == {"got": "quantum"}

    def test_malformed_graph_payload(self, served):
        document = self.assert_structured_400(
            served.post(
                "/v1/maxis",
                {"graph": {"nodes": [{"id": 1}], "edges": []}, "mode": "exact"},
            )
        )
        assert document["error"] == "malformed graph payload"

    def test_graph_must_be_an_object(self, served):
        self.assert_structured_400(
            served.post("/v1/maxis", {"graph": "not-a-graph", "mode": "exact"})
        )

    def test_bad_sweep_name(self, served):
        document = self.assert_structured_400(
            served.post("/v1/sweeps", {"sweep": "theorem9", "max_t": 3})
        )
        assert document["detail"] == {"got": "theorem9"}

    def test_num_samples_must_be_positive(self, served):
        self.assert_structured_400(
            served.post(
                "/v1/sweeps", {"sweep": "theorem1", "max_t": 3, "num_samples": 0}
            )
        )

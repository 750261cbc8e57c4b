"""The compute endpoints: payloads, validation, async sweep jobs."""

import time

import pytest

from repro import obs
from repro.core import QUADRATIC_CLAIM_NAMES, linear_claim_names
from repro.gadgets import GadgetParameters
from repro.graphs.serialize import graph_from_dict, graph_to_dict
from repro.parallel.jobs import execute_unit

PARAMS = {"ell": 2, "alpha": 1, "t": 3}


def wait_for_job(client, job_id, timeout_s=60):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, document = client.get_json(f"/v1/jobs/{job_id}")
        assert status == 200
        if document["status"] in ("done", "failed"):
            return document
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout_s}s")


class TestGadgets:
    def test_linear_gadget_round_trips_to_a_graph(self, served):
        status, document, _ = served.post(
            "/v1/gadgets", {"construction": "linear", "params": PARAMS}
        )
        assert status == 200
        assert document["serve_schema_version"] == 1
        assert document["kind"] == "gadget_graph"
        assert document["codec"] == "graph"
        assert document["disposition"] == "computed"
        assert len(document["key"]) == 64
        from repro.store import get_codec

        graph = graph_from_dict(document["result"])
        expected = execute_unit(
            "gadget_graph", dict(PARAMS, construction="linear", k=None)
        )
        codec = get_codec("graph")
        assert codec.encode(graph) == codec.encode(expected)

    def test_quadratic_gadget(self, served):
        status, document, _ = served.post(
            "/v1/gadgets",
            {"construction": "quadratic", "params": {"ell": 2, "alpha": 1, "t": 2}},
        )
        assert status == 200
        assert len(list(graph_from_dict(document["result"]).nodes())) > 0


class TestClaims:
    def test_linear_claim_verifies(self, served):
        params = GadgetParameters(ell=2, alpha=1, t=3)
        name = linear_claim_names(params)[0]
        status, document, _ = served.post(
            "/v1/claims",
            {"family": "linear", "name": name, "params": PARAMS, "num_samples": 2},
        )
        assert status == 200
        assert document["kind"] == "linear_claim"
        assert document["codec"] == "claim_check"
        assert document["result"]["holds"] is True

    def test_quadratic_claim_verifies(self, served):
        status, document, _ = served.post(
            "/v1/claims",
            {
                "family": "quadratic",
                "name": QUADRATIC_CLAIM_NAMES[0],
                "params": {"ell": 2, "alpha": 1, "t": 2},
                "num_samples": 2,
            },
        )
        assert status == 200
        assert document["kind"] == "quadratic_claim"
        assert document["result"]["holds"] is True

    def test_unknown_claim_name_lists_valid_names(self, served):
        status, document, _ = served.post(
            "/v1/claims", {"family": "linear", "name": "nope", "params": PARAMS}
        )
        assert status == 400
        assert document["error"] == "unknown linear claim name"
        params = GadgetParameters(ell=2, alpha=1, t=3)
        assert document["detail"]["valid"] == list(linear_claim_names(params))


class TestMaxis:
    @pytest.fixture(scope="class")
    def gadget_document(self):
        graph = execute_unit(
            "gadget_graph", dict(PARAMS, construction="linear", k=None)
        )
        return graph_to_dict(graph)

    def test_exact_solve_returns_weight_and_witness(self, served, gadget_document):
        status, document, _ = served.post(
            "/v1/maxis", {"graph": gadget_document, "mode": "exact"}
        )
        assert status == 200
        assert document["kind"] == "maxis_solve"
        result = document["result"]
        assert result["mode"] == "exact"
        assert result["weight"] == 12
        assert len(result["witness"]) == 12

    def test_greedy_solve(self, served, gadget_document):
        status, document, _ = served.post(
            "/v1/maxis", {"graph": gadget_document, "mode": "greedy"}
        )
        assert status == 200
        assert document["result"]["mode"] == "greedy"
        assert document["result"]["weight"] <= 12

    def test_mode_defaults_to_exact(self, served, gadget_document):
        status, document, _ = served.post(
            "/v1/maxis", {"graph": gadget_document}
        )
        assert status == 200
        assert document["result"]["mode"] == "exact"


class TestSweeps:
    def test_sweep_job_lifecycle(self, served):
        status, document, _ = served.post(
            "/v1/sweeps", {"sweep": "theorem2", "max_t": 2, "num_samples": 1}
        )
        assert status == 202
        assert document["status"] in ("queued", "running")
        assert document["units"] == 2  # theorem2 grid at max_t=2: (2,2), (3,2)
        assert document["disposition"] == "submitted"
        job_id = document["job_id"]
        assert document["href"] == f"/v1/jobs/{job_id}"

        finished = wait_for_job(served, job_id)
        assert finished["status"] == "done"
        assert len(finished["result"]) == 2
        report = finished["result"][0]
        assert report["parameters"]["t"] == 2
        assert finished["finished_unix_s"] >= finished["submitted_unix_s"]

    def test_sweep_job_leaves_no_recorder_spans(self, served):
        recorder = obs.get_recorder()
        with obs.recording():
            before = len(recorder.spans)
            status, document, _ = served.post(
                "/v1/sweeps", {"sweep": "theorem1", "max_t": 3, "num_samples": 1}
            )
            assert status == 202
            assert wait_for_job(served, document["job_id"])["status"] == "done"
            assert len(recorder.spans) == before

    def test_jobs_listing(self, served):
        status, document, _ = served.post(
            "/v1/sweeps", {"sweep": "theorem2", "max_t": 2, "num_samples": 1}
        )
        job_id = document["job_id"]
        status, listing = served.get_json("/v1/jobs")
        assert status == 200
        assert any(job["job_id"] == job_id for job in listing["jobs"])
        wait_for_job(served, job_id)

    def test_unknown_job_is_404(self, served):
        status, document = served.get_json("/v1/jobs/job-999")
        assert status == 404
        assert "unknown job" in document["error"]

    def test_identical_inflight_sweeps_coalesce_onto_one_job(self, served):
        import threading

        # Hold the dispatch queue so the first job is still in flight
        # when the duplicate submission arrives.
        release = threading.Event()
        served.app.dispatcher.submit(lambda: release.wait(timeout=30))
        body = {"sweep": "theorem1", "max_t": 3, "num_samples": 1, "seed": 7}
        status_a, first, _ = served.post("/v1/sweeps", body)
        status_b, second, _ = served.post("/v1/sweeps", body)
        release.set()
        assert status_a == status_b == 202
        assert first["job_id"] == second["job_id"]
        assert second["disposition"] == "coalesced"
        wait_for_job(served, first["job_id"])
        # Once finished the key is released: a resubmission is a new job
        # (and a warm one, if the store is configured).
        _, third, _ = served.post("/v1/sweeps", body)
        assert third["job_id"] != first["job_id"]
        wait_for_job(served, third["job_id"])

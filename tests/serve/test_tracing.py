"""End-to-end request tracing through the serve stack.

The tentpole acceptance path: a request with a client-supplied
``traceparent`` yields a retained span tree whose dispatch-queue,
store-lookup, and solver spans all share that trace id; coalesced
duplicates link to the leader's trace; malformed headers degrade to a
fresh mint (never a 500); and the Chrome-trace export of a stored
trace is byte-deterministic.
"""

import concurrent.futures
import json
import threading
import time

import pytest

from repro import obs, store
from repro.parallel import jobs
from repro.parallel.jobs import execute_unit
from repro.graphs.serialize import graph_to_dict

GADGET_BODY = {"construction": "linear", "params": {"ell": 2, "alpha": 1, "t": 3}}
CLIENT_TRACE_ID = "ab" * 16
CLIENT_SPAN_ID = "cd" * 8
CLIENT_TRACEPARENT = f"00-{CLIENT_TRACE_ID}-{CLIENT_SPAN_ID}-01"


def _maxis_body(mode="greedy"):
    graph = execute_unit(
        "gadget_graph",
        {"construction": "linear", "ell": 2, "alpha": 1, "t": 2, "k": None},
    )
    return {"graph": graph_to_dict(graph), "mode": mode}


class TestTraceparentPropagation:
    def test_client_trace_id_is_adopted_and_echoed(self, served):
        status, document, headers = served.post(
            "/v1/gadgets", GADGET_BODY,
            headers={"traceparent": CLIENT_TRACEPARENT},
        )
        assert status == 200
        echoed = headers["traceparent"]
        version, trace_id, span_id, flags = echoed.split("-")
        assert version == "00"
        assert trace_id == CLIENT_TRACE_ID
        assert span_id != CLIENT_SPAN_ID  # a fresh server-side span
        assert flags == "01"

    def test_fresh_trace_minted_without_header(self, served):
        _, _, headers_a = served.get("/health")
        _, _, headers_b = served.get("/health")
        trace_a = headers_a["traceparent"].split("-")[1]
        trace_b = headers_b["traceparent"].split("-")[1]
        assert trace_a != trace_b
        assert len(trace_a) == 32

    @pytest.mark.parametrize(
        "header",
        [
            "garbage",
            "00",
            f"00-{CLIENT_TRACE_ID}",
            f"00-{CLIENT_TRACE_ID}-{CLIENT_SPAN_ID}",
            f"01-{CLIENT_TRACE_ID}-{CLIENT_SPAN_ID}-01",
            f"00-{CLIENT_TRACE_ID[:-4]}-{CLIENT_SPAN_ID}-01",
            f"00-{'0' * 32}-{CLIENT_SPAN_ID}-01",
            f"00-{CLIENT_TRACE_ID.upper()}-{CLIENT_SPAN_ID}-01",
            f"00-{CLIENT_TRACE_ID}-{CLIENT_SPAN_ID}-01-extra",
        ],
    )
    def test_malformed_header_never_fails_request(self, served, header):
        status, document, headers = served.post(
            "/v1/gadgets", GADGET_BODY, headers={"traceparent": header}
        )
        assert status == 200
        assert document["disposition"] in ("computed", "cache_hit")
        # The response still carries a *valid*, freshly minted context.
        echoed = headers["traceparent"]
        parts = echoed.split("-")
        assert len(parts) == 4 and parts[0] == "00"
        assert parts[1] != CLIENT_TRACE_ID
        assert len(parts[1]) == 32 and len(parts[2]) == 16


class TestTraceTree:
    def test_compute_request_span_tree(self, served):
        with store.using_store("memory"):
            status, _, headers = served.post(
                "/v1/maxis", _maxis_body(),
                headers={"traceparent": CLIENT_TRACEPARENT},
            )
        assert status == 200
        trace_id = headers["traceparent"].split("-")[1]
        assert trace_id == CLIENT_TRACE_ID
        status, tree = served.get_json(f"/v1/traces/{trace_id}")
        assert status == 200
        assert tree["trace_id"] == CLIENT_TRACE_ID
        assert tree["endpoint"] == "POST /v1/maxis"
        assert tree["disposition"] == "computed"
        assert tree["remote_parent_span_id"] == CLIENT_SPAN_ID
        names = [span["name"] for span in tree["spans"]]
        assert names[0] == "request"
        assert "dispatch.queue" in names
        assert "store.lookup" in names
        assert "execute.maxis_solve" in names
        assert "store.write" in names
        # Tree is well-formed: every non-root parent exists.
        ids = {span["span_id"] for span in tree["spans"]}
        for span in tree["spans"][1:]:
            assert span["parent_id"] in ids
        lookup = next(s for s in tree["spans"] if s["name"] == "store.lookup")
        assert lookup["attrs"]["outcome"] == "miss"

    def test_cache_hit_trace_shape(self, served):
        with store.using_store("memory"):
            served.post("/v1/gadgets", GADGET_BODY)
            _, _, headers = served.post("/v1/gadgets", GADGET_BODY)
            trace_id = headers["traceparent"].split("-")[1]
            _, tree = served.get_json(f"/v1/traces/{trace_id}")
        assert tree["disposition"] == "cache_hit"
        lookup = next(s for s in tree["spans"] if s["name"] == "store.lookup")
        assert lookup["attrs"]["outcome"] == "hit"
        names = [span["name"] for span in tree["spans"]]
        assert "execute.gadget_graph" not in names

    def test_store_off_lookup_outcome(self, served):
        _, _, headers = served.post("/v1/gadgets", GADGET_BODY)
        trace_id = headers["traceparent"].split("-")[1]
        _, tree = served.get_json(f"/v1/traces/{trace_id}")
        lookup = next(s for s in tree["spans"] if s["name"] == "store.lookup")
        assert lookup["attrs"]["outcome"] == "off"

    def test_recorder_spans_graft_into_trace_and_trim(self, served):
        recorder = obs.get_recorder()
        with obs.recording():
            _, _, headers = served.post("/v1/maxis", _maxis_body(mode="exact"))
            trace_id = headers["traceparent"].split("-")[1]
            _, tree = served.get_json(f"/v1/traces/{trace_id}")
            names = [span["name"] for span in tree["spans"]]
            # The solver's own recorder spans appear under execute.*.
            assert any(name.startswith("maxis.") for name in names)
            execute = next(
                s for s in tree["spans"] if s["name"] == "execute.maxis_solve"
            )
            grafted = [
                s for s in tree["spans"] if s["name"].startswith("maxis.")
            ]
            by_id = {s["span_id"]: s for s in tree["spans"]}
            for span in grafted:
                parent = span
                while parent["parent_id"] is not None:
                    parent = by_id[parent["parent_id"]]
                    if parent["span_id"] == execute["span_id"]:
                        break
                assert parent["span_id"] == execute["span_id"]
            # Captured spans were trimmed from the process recorder.
            assert not any(
                record.name.startswith("serve.maxis_solve")
                for record in recorder.spans
            )

    def test_trace_listing_and_404(self, served):
        served.get("/health")
        status, listing = served.get_json("/v1/traces")
        assert status == 200
        assert listing["buffer"]["capacity"] >= 1
        assert listing["traces"], "completed request should be retained"
        summary = listing["traces"][0]
        assert {"trace_id", "endpoint", "status", "duration_ms"} <= set(summary)
        status, document = served.get_json(f"/v1/traces/{'ee' * 16}")
        assert status == 404
        assert "unknown trace" in document["error"]


class TestChromeExport:
    def test_byte_deterministic_and_loadable(self, served):
        _, _, headers = served.post(
            "/v1/gadgets", GADGET_BODY,
            headers={"traceparent": CLIENT_TRACEPARENT},
        )
        trace_id = headers["traceparent"].split("-")[1]
        _, first, _ = served.get(f"/v1/traces/{trace_id}?format=chrome")
        _, second, _ = served.get(f"/v1/traces/{trace_id}?format=chrome")
        assert first == second
        document = json.loads(first)
        assert document["displayTimeUnit"] == "ms"
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["name"] == "request"
        assert all("ts" in e and "dur" in e for e in complete)
        # Only an exact ``format=chrome`` parameter selects the export.
        for query in ("?format=chromeless", "?xformat=chrome"):
            status, tree = served.get_json(f"/v1/traces/{trace_id}{query}")
            assert status == 200
            assert "traceEvents" not in tree
            assert tree["trace_id"] == trace_id
            assert tree["spans"][0]["name"] == "request"


class TestCoalescedLinks:
    N = 4

    def test_followers_link_to_leader_trace(self, served, monkeypatch):
        gate_started = threading.Event()
        gate_release = threading.Event()
        real = jobs.JOB_KINDS["gadget_graph"]

        def gated(**kwargs):
            gate_started.set()
            assert gate_release.wait(timeout=30)
            return real(**kwargs)

        monkeypatch.setitem(jobs.JOB_KINDS, "gadget_graph", gated)
        recorder = obs.get_recorder()
        leader_tp = f"00-{'11' * 16}-{'22' * 8}-01"
        follower_tps = [
            f"00-{format(index + 3, '02x') * 16}-{'44' * 8}-01"
            for index in range(self.N - 1)
        ]
        with obs.recording():
            with concurrent.futures.ThreadPoolExecutor(self.N) as pool:
                leader_future = pool.submit(
                    served.post, "/v1/gadgets", GADGET_BODY,
                    headers={"traceparent": leader_tp},
                )
                assert gate_started.wait(timeout=30)
                follower_futures = [
                    pool.submit(
                        served.post, "/v1/gadgets", GADGET_BODY,
                        headers={"traceparent": tp},
                    )
                    for tp in follower_tps
                ]
                deadline = time.monotonic() + 30
                while recorder.counters.get("serve.coalesced", 0) < self.N - 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                gate_release.set()
                leader_future.result()
                for future in follower_futures:
                    future.result()
        leader_trace_id = "11" * 16
        for tp in follower_tps:
            follower_trace_id = tp.split("-")[1]
            status, tree = served.get_json(f"/v1/traces/{follower_trace_id}")
            assert status == 200
            assert tree["disposition"] == "coalesced"
            assert {
                "trace_id": leader_trace_id,
                "span_id": next(
                    link["span_id"] for link in tree["links"]
                ),
                "relation": "coalesced_with",
            } in tree["links"]
            names = [span["name"] for span in tree["spans"]]
            assert "serve.coalesced_wait" in names
            # Followers never touch the dispatcher queue or the store.
            assert "dispatch.queue" not in names
            assert "store.lookup" not in names
        status, leader_tree = served.get_json(f"/v1/traces/{leader_trace_id}")
        assert status == 200
        assert leader_tree["disposition"] == "computed"


class TestTailSampling:
    def test_errored_request_survives_routine_flood(self):
        from repro.obs.reqtrace import TraceBuffer
        from repro.serve import Application, BackgroundServer

        app = Application(traces=TraceBuffer(capacity=4, slow_ms=10_000.0))
        server = BackgroundServer(app.dispatch).start()
        try:
            from tests.serve.conftest import Client

            client = Client(app, server)
            status, _, headers = client.post(
                "/v1/gadgets", {"construction": "nope"}
            )
            assert status == 400
            bad_trace = headers["traceparent"].split("-")[1]

            def boom(**kwargs):
                raise RuntimeError("solver exploded")

            original = jobs.JOB_KINDS["gadget_graph"]
            jobs.JOB_KINDS["gadget_graph"] = boom
            try:
                status, _, headers = client.post("/v1/gadgets", GADGET_BODY)
            finally:
                jobs.JOB_KINDS["gadget_graph"] = original
            assert status == 500
            errored_trace = headers["traceparent"].split("-")[1]
            for _ in range(20):
                client.get("/health")
            # The 500 is interesting (tail-sampled in); the 400 is routine
            # and may be evicted by the health flood.
            status, tree = client.get_json(f"/v1/traces/{errored_trace}")
            assert status == 200
            assert tree["status"] == 500
            assert "solver exploded" in tree["error"]
            assert bad_trace != errored_trace
        finally:
            server.close()
            app.close()


class TestHealthParity:
    def test_health_metrics_and_manifest_agree_on_provenance(self, served):
        from repro.obs.manifest import run_provenance

        provenance = run_provenance()
        status, health = served.get_json("/health")
        assert status == 200
        assert health["provenance"]["git_sha"] == provenance["git_sha"]
        assert (
            health["provenance"]["python_version"]
            == provenance["python_version"]
        )
        status, body, _ = served.get("/metrics")
        assert status == 200
        text = body.decode()
        assert f'git_sha="{provenance["git_sha"]}"' in text
        assert f'python_version="{provenance["python_version"]}"' in text

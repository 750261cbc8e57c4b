"""Unit tests for the request-tracing core (repro.obs.reqtrace)."""

import json

import pytest

from repro.obs.export import chrome_trace, dump_trace
from repro.obs.recorder import SpanRecord
from repro.obs.reqtrace import (
    RequestTrace,
    TraceBuffer,
    current_trace,
    format_traceparent,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    using_trace,
)

VALID_TRACE_ID = "af" * 16
VALID_SPAN_ID = "b7" * 8
VALID = f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01"


class TestParseTraceparent:
    def test_valid_header_parses(self):
        context = parse_traceparent(VALID)
        assert context is not None
        assert context.trace_id == VALID_TRACE_ID
        assert context.span_id == VALID_SPAN_ID
        assert context.sampled is True

    def test_unsampled_flags(self):
        context = parse_traceparent(f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-00")
        assert context is not None
        assert context.sampled is False

    def test_surrounding_whitespace_tolerated(self):
        assert parse_traceparent(f"  {VALID}  ") is not None

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00",
            f"00-{VALID_TRACE_ID}",
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}",  # missing flags
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01-extra",
            f"01-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01",  # wrong version
            f"ff-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01",
            f"00-{VALID_TRACE_ID[:-2]}-{VALID_SPAN_ID}-01",  # truncated trace
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID[:-2]}-01",  # truncated span
            f"00-{VALID_TRACE_ID.upper()}-{VALID_SPAN_ID}-01",  # uppercase
            f"00-{'g' * 32}-{VALID_SPAN_ID}-01",  # non-hex
            f"00-{'0' * 32}-{VALID_SPAN_ID}-01",  # all-zero trace id
            f"00-{VALID_TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-0",  # short flags
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-zz",  # non-hex flags
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_format_round_trips(self):
        header = format_traceparent(VALID_TRACE_ID, VALID_SPAN_ID)
        context = parse_traceparent(header)
        assert (context.trace_id, context.span_id) == (
            VALID_TRACE_ID,
            VALID_SPAN_ID,
        )

    def test_minted_ids_parse(self):
        header = format_traceparent(mint_trace_id(), mint_span_id())
        assert parse_traceparent(header) is not None


class TestRequestTrace:
    def test_root_span_and_finish(self):
        trace = RequestTrace(endpoint="GET /health", method="GET", path="/health")
        trace.finish(status=200, disposition="cache_hit")
        assert trace.status == 200
        assert trace.disposition == "cache_hit"
        root = trace.to_document()["spans"][0]
        assert root["name"] == "request"
        assert root["attrs"]["status"] == 200
        assert not trace.is_error

    def test_finish_is_idempotent(self):
        trace = RequestTrace()
        trace.finish(status=200)
        trace.finish(status=500, error="late")
        assert trace.status == 200
        assert trace.error is None

    def test_child_spans_default_to_root_parent(self):
        trace = RequestTrace()
        with trace.span("store.lookup") as span:
            span.params["outcome"] = "miss"
        record = trace.to_document()["spans"][-1]
        assert record["parent_id"] == trace.root_span_id
        assert record["attrs"]["outcome"] == "miss"
        assert record["duration_s"] >= 0.0

    def test_explicit_parent_nesting(self):
        trace = RequestTrace()
        with trace.span("execute.maxis_solve") as outer:
            search = SpanRecord(0, None, 0, "maxis.exact.search", {}, 0.0, 0.5)
            trace.graft([search], parent=outer)
        by_name = {span["name"]: span for span in trace.to_document()["spans"]}
        assert (
            by_name["maxis.exact.search"]["parent_id"]
            == by_name["execute.maxis_solve"]["span_id"]
        )

    def test_graft_recorder_spans_rebases_parents(self):
        trace = RequestTrace()
        with trace.span("execute.gadget_graph") as execute:
            pass
        # A recorder run opened under a wrapper span (index 6) that
        # stays behind: its parent lies outside the grafted run.
        records = [
            SpanRecord(7, 6, 1, "outer", {"a": 1}, 1.0, 2.0),
            SpanRecord(8, 7, 2, "inner", {}, 1.5, 0.5),
        ]
        trace.graft(records, parent=execute)
        spans = trace.to_document()["spans"]
        by_name = {span["name"]: span for span in spans}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["parent_id"] == by_name["execute.gadget_graph"]["span_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"] == {"a": 1}
        assert (outer["start_s"], outer["duration_s"]) == (1.0, 2.0)
        # Grafted copies: the recorder's records are left untouched.
        assert records[0].index == 7 and records[0].parent == 6
        depths = {event.name: event.depth for event in trace.span_events()}
        assert depths == {
            "request": 0, "execute.gadget_graph": 1, "outer": 2, "inner": 3,
        }

    def test_span_total_ms_matches_prefix(self):
        trace = RequestTrace()
        trace.add_span("dispatch.queue", start_s=0.0, duration_s=0.25)
        assert trace.span_total_ms("dispatch.queue") == pytest.approx(250.0)
        assert trace.span_total_ms("missing") is None

    def test_links_surface_in_summary_and_document(self):
        trace = RequestTrace()
        trace.link("ab" * 16, "cd" * 8, "coalesced_with")
        trace.finish(status=200)
        assert trace.summary()["links"] == [
            {"trace_id": "ab" * 16, "span_id": "cd" * 8,
             "relation": "coalesced_with"}
        ]
        assert trace.to_document()["links"] == trace.summary()["links"]

    def test_is_error_classification(self):
        errored = RequestTrace()
        errored.finish(status=500, error="boom")
        assert errored.is_error
        client_error = RequestTrace()
        client_error.finish(status=404)
        assert not client_error.is_error

    def test_span_events_are_chrome_exportable_and_deterministic(self):
        trace = RequestTrace(endpoint="POST /v1/maxis", method="POST",
                             path="/v1/maxis")
        with trace.span("execute.maxis_solve"):
            pass
        trace.finish(status=200, disposition="computed")
        one = dump_trace(chrome_trace(trace.span_events()))
        two = dump_trace(chrome_trace(trace.span_events()))
        assert one == two
        document = json.loads(one)
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert "request" in names and "execute.maxis_solve" in names


class TestAmbientContext:
    def test_current_trace_defaults_to_none(self):
        assert current_trace() is None

    def test_using_trace_binds_and_restores(self):
        trace = RequestTrace()
        with using_trace(trace):
            assert current_trace() is trace
            with using_trace(None):
                assert current_trace() is None
            assert current_trace() is trace
        assert current_trace() is None


def _finished(duration_ms=1.0, status=200, error=None):
    trace = RequestTrace()
    trace._root.duration_s = duration_ms / 1000.0
    trace._finished = True
    trace.status = status
    trace.error = error
    return trace


class TestTraceBuffer:
    def test_lookup_by_id(self):
        buffer = TraceBuffer(capacity=4, slow_ms=100.0)
        trace = _finished()
        buffer.admit(trace)
        assert buffer.get(trace.trace_id) is trace
        assert buffer.get("nope" * 8) is None

    def test_routine_traffic_cannot_evict_interesting(self):
        buffer = TraceBuffer(capacity=2, slow_ms=100.0)
        slow = _finished(duration_ms=250.0)
        errored = _finished(status=500)
        buffer.admit(slow)
        buffer.admit(errored)
        for _ in range(50):
            buffer.admit(_finished(duration_ms=1.0))
        assert buffer.get(slow.trace_id) is slow
        assert buffer.get(errored.trace_id) is errored
        stats = buffer.stats()
        assert stats["routine"] == 2
        assert stats["interesting"] == 2
        assert stats["evicted"] == 48

    def test_interesting_tier_is_bounded_too(self):
        buffer = TraceBuffer(capacity=3, slow_ms=0.0)  # everything is slow
        traces = [_finished(duration_ms=10.0) for _ in range(5)]
        for trace in traces:
            buffer.admit(trace)
        assert buffer.get(traces[0].trace_id) is None
        assert buffer.get(traces[-1].trace_id) is traces[-1]

    def test_summaries_newest_first(self):
        buffer = TraceBuffer(capacity=8)
        first, second = _finished(), _finished()
        second.started_unix_s = first.started_unix_s + 10.0
        buffer.admit(first)
        buffer.admit(second)
        ids = [s["trace_id"] for s in buffer.summaries()]
        assert ids == [second.trace_id, first.trace_id]
        assert len(buffer.summaries(limit=1)) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

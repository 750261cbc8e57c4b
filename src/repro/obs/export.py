"""Chrome-trace / Perfetto export of recorded span trees.

A recorded run — live on a :class:`~repro.obs.recorder.Recorder` or
replayed from a ``--profile-json`` JSONL file — converts losslessly to
the Chrome trace event format (the JSON ``chrome://tracing`` and
https://ui.perfetto.dev both load): one complete (``"ph": "X"``) event
per span, timestamps and durations in microseconds, and one process
row per span *track*.

Tracks map to rows as follows: the in-process lane (``track`` is
``None``) is pid 1, named after the trace; every other track label —
the work-unit ids the parallel engine stamps on grafted worker
snapshots — gets the next pid in first-appearance order, so a
multi-process sweep renders as parallel tracks and the assignment is
stable across reruns.  Worker clocks are process-local
(``perf_counter`` origins differ per process), so cross-track
timestamps show relative, not absolute, alignment.

The export is a pure function of the span events: serializing the
same spans always produces byte-identical JSON (sorted keys, fixed
float handling, no timestamps of its own), which is what lets CI diff
trace artifacts.

Nothing here imports the rest of :mod:`repro`; the CLI glue lives in
``repro.cli`` (``--trace-out`` on profiled commands and on ``repro
stats``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from .recorder import Recorder, SpanRecord

#: pid of the in-process (``track is None``) lane.
MAIN_PID = 1

#: Reserved ``args`` keys that carry the span-tree structure through
#: the trace (Chrome trace has no native parent links), making the
#: export lossless: the original span tree is recoverable from
#: ``args["repro.index"]`` / ``args["repro.parent"]``.
_STRUCTURE_KEYS = ("repro.index", "repro.parent", "repro.depth", "repro.track")


def _track_pids(records: List[SpanRecord]) -> Dict[Optional[str], int]:
    """``track label -> pid`` in first-appearance order (main lane first).

    The main lane keeps pid 1 even when every span came from workers,
    so the numbering never depends on whether a parent span was
    recorded.
    """
    pids: Dict[Optional[str], int] = {None: MAIN_PID}
    for record in records:
        if record.track is not None and record.track not in pids:
            pids[record.track] = MAIN_PID + len(pids)
    return pids


def trace_events(
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]],
    trace_name: str = "repro",
) -> List[Dict[str, Any]]:
    """Convert spans to Chrome-trace events (metadata rows first).

    Emits one ``process_name`` metadata event per track followed by
    one complete (``"X"``) event per span, in span order.  Span
    parameters become the event's ``args`` alongside the reserved
    ``repro.*`` structure keys.
    """
    records = [
        span if isinstance(span, SpanRecord) else SpanRecord.from_dict(span)
        for span in spans
    ]
    pids = _track_pids(records)
    out: List[Dict[str, Any]] = []
    for track, pid in pids.items():
        name = trace_name if track is None else str(track)
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for record in records:
        args: Dict[str, Any] = dict(record.params)
        args["repro.index"] = record.index
        args["repro.parent"] = record.parent
        args["repro.depth"] = record.depth
        args["repro.track"] = record.track
        out.append(
            {
                "ph": "X",
                "name": record.name,
                "cat": "span",
                "pid": pids[record.track],
                "tid": MAIN_PID,
                "ts": round(record.start_s * 1e6, 3),
                "dur": round(record.duration_s * 1e6, 3),
                "args": args,
            }
        )
    return out


def chrome_trace(
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]],
    trace_name: str = "repro",
) -> Dict[str, Any]:
    """The full Chrome-trace document for a span collection."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events(spans, trace_name=trace_name),
    }


def trace_from_recorder(
    recorder: Recorder, trace_name: str = "repro"
) -> Dict[str, Any]:
    """The Chrome-trace document for everything a recorder holds."""
    return chrome_trace(recorder.spans, trace_name=trace_name)


def trace_from_events(
    events: Iterable[Mapping[str, Any]], trace_name: str = "repro"
) -> Dict[str, Any]:
    """Build a trace from replayed JSONL events (non-span lines skipped).

    This is the ``repro stats events.jsonl --trace-out`` path: the
    span events a :class:`~repro.obs.sinks.JsonlSink` wrote round-trip
    into a trace without the original recorder.
    """
    spans = [event for event in events if event.get("type") == "span"]
    return chrome_trace(spans, trace_name=trace_name)


def dump_trace(trace: Dict[str, Any]) -> str:
    """Serialize a trace document deterministically (sorted keys)."""
    return json.dumps(trace, indent=2, sort_keys=True) + "\n"


def write_chrome_trace(
    path: Union[str, pathlib.Path],
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]],
    trace_name: str = "repro",
) -> pathlib.Path:
    """Write the spans' Chrome-trace JSON to ``path``; return the path."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_trace(chrome_trace(spans, trace_name=trace_name)))
    return path

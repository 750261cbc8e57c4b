"""Golden pins for every external span output.

Four outputs are pinned against committed goldens in ``golden/``:

* the ``GET /v1/traces/<id>`` span-tree document and
* its ``?format=chrome`` export, for a fixed request sequence — a cold
  exact ``/v1/maxis`` solve (solver spans grafted from the recorder), a
  warm ``/v1/gadgets`` hit, a leader plus two coalesced duplicates, and
  a request with the cache off;
* the ``access.jsonl`` lines that sequence writes;
* the events JSONL (schema v3) and Chrome trace of one profiled CLI run.

Trace ids, span ids and store keys are random or source-derived by
contract, so each is renamed to its first-appearance ordinal
(``<trace-1>``, ``<span-1>``, ``<key-1>``); timestamps, durations,
timer statistics and build provenance become fixed placeholders.
Before normalizing, every raw body is checked to equal its own
canonical re-serialization, so the comparison covers every other byte.

Regenerate the goldens (after an *intended* output change) with::

    PYTHONPATH=src:. python tests/serve/test_golden_outputs.py
"""

import concurrent.futures
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

from repro import obs, store
from repro.graphs.serialize import graph_to_dict
from repro.obs.export import dump_trace
from repro.parallel.jobs import execute_unit
from repro.serve import AccessLog, Application, BackgroundServer
from repro.store import JOB_SPECS
from tests.serve.conftest import Client

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The engine kwargs ``/v1/gadgets`` derives from ``GADGET_BODY``.
GADGET_KWARGS = {"construction": "linear", "ell": 2, "alpha": 1, "t": 3, "k": 3}
GADGET_BODY = {"construction": "linear", "params": {"ell": 2, "alpha": 1, "t": 3}}
CLIENT_TRACEPARENT = f"00-{'ab' * 16}-{'cd' * 8}-01"

#: Keys whose numeric values are wall-clock readings or durations.
TIME_KEYS = frozenset(
    {
        "dur",
        "duration_ms",
        "duration_s",
        "finished_unix_s",
        "handler_ms",
        "queue_wait_ms",
        "start_s",
        "started_unix_s",
        "submitted_unix_s",
        "ts",
        "unix_s",
        "uptime_s",
        "wait_ms",
    }
)

#: Hex ids by length: store keys, trace ids, span ids.
_ID_KINDS = {64: "key", 32: "trace", 16: "span"}
_HEX_TOKEN = re.compile(r"\b(?:[0-9a-f]{64}|[0-9a-f]{32}|[0-9a-f]{16})\b")


class Normalizer:
    """Rename ids to first-appearance ordinals; pin times to a marker."""

    def __init__(self):
        self.ordinals = {}
        self.counts = {}

    def _rename(self, match):
        token = match.group(0)
        if token not in self.ordinals:
            kind = _ID_KINDS[len(token)]
            self.counts[kind] = self.counts.get(kind, 0) + 1
            self.ordinals[token] = f"<{kind}-{self.counts[kind]}>"
        return self.ordinals[token]

    def __call__(self, value, key=None):
        if isinstance(value, dict):
            return {name: self(item, name) for name, item in value.items()}
        if isinstance(value, list):
            return [self(item) for item in value]
        if isinstance(value, str):
            return _HEX_TOKEN.sub(self._rename, value)
        if key in TIME_KEYS and isinstance(value, (int, float)):
            return "<time>"
        return value

    def event(self, event):
        """One JSONL event; timer statistics are durations too."""
        if event.get("type") == "timer":
            event = {
                name: item if name in ("type", "name", "count") else "<time>"
                for name, item in event.items()
            }
        if event.get("type") == "access_meta":
            event = dict(event, provenance="<provenance>")
        return self(event)


def canonical_json(body):
    """Parse a ``json_response`` body, checking it is canonical JSON."""
    text = body.decode("utf-8")
    document = json.loads(text)
    assert json.dumps(document, sort_keys=True) == text
    return document


def canonical_chrome(body):
    """Parse a Chrome export, checking it is ``dump_trace`` output."""
    text = body.decode("utf-8") if isinstance(body, bytes) else body
    document = json.loads(text)
    assert dump_trace(document) == text
    return document


def canonical_jsonl(text):
    """Parse JSONL, checking each line is its sort-keys serialization."""
    events = []
    for line in text.splitlines():
        event = json.loads(line)
        assert json.dumps(event, sort_keys=True, default=str) == line
        events.append(event)
    return events


def _maxis_body(mode):
    graph = execute_unit(
        "gadget_graph",
        {"construction": "linear", "ell": 2, "alpha": 1, "t": 2, "k": None},
    )
    return {"graph": graph_to_dict(graph), "mode": mode}


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def _trace_id(headers):
    return headers["traceparent"].split("-")[1]


def collect_serve_outputs(log_path):
    """Run the fixed request sequence; return the normalized outputs."""
    app = Application(access_log=AccessLog(log_path))
    server = BackgroundServer(app.dispatch).start()
    client = Client(app, server)
    recorder = obs.get_recorder()
    labelled = []
    try:
        with obs.recording():
            with store.using_store("memory") as memory:
                # Warm the gadget entry outside any request.
                memory.put(
                    app.request_key("gadget_graph", GADGET_KWARGS),
                    "parallel.gadget_graph",
                    JOB_SPECS["gadget_graph"].codec,
                    execute_unit("gadget_graph", GADGET_KWARGS),
                )
                status, _, headers = client.post(
                    "/v1/maxis", _maxis_body("exact"),
                    headers={"traceparent": CLIENT_TRACEPARENT},
                )
                assert status == 200
                labelled.append(("cold maxis exact", _trace_id(headers)))
                status, document, headers = client.post("/v1/gadgets", GADGET_BODY)
                assert status == 200 and document["disposition"] == "cache_hit"
                labelled.append(("warm gadgets hit", _trace_id(headers)))

                # Hold the dispatcher so the duplicates find the leader
                # in flight; send them one at a time for a fixed order.
                gate = threading.Event()
                app.dispatcher.submit(lambda: gate.wait(30))
                body = _maxis_body("greedy")
                with concurrent.futures.ThreadPoolExecutor(3) as pool:
                    leader = pool.submit(client.post, "/v1/maxis", body)
                    _wait_until(lambda: app.dispatcher.stats()["pending"] == 2)
                    followers = []
                    for count in (1, 2):
                        followers.append(pool.submit(client.post, "/v1/maxis", body))
                        _wait_until(
                            lambda: recorder.counters.get("serve.coalesced", 0)
                            == count
                        )
                    gate.set()
                    for label, future in [("coalesced leader", leader)] + [
                        (f"coalesced follower {n}", f)
                        for n, f in enumerate(followers, 1)
                    ]:
                        status, _, headers = future.result()
                        assert status == 200
                        labelled.append((label, _trace_id(headers)))
            status, document, headers = client.post("/v1/maxis", _maxis_body("exact"))
            assert status == 200 and document["disposition"] == "computed"
            labelled.append(("cache off", _trace_id(headers)))

        normalize = Normalizer()
        outputs = []
        for label, trace_id in labelled:
            status, body, _ = client.get(f"/v1/traces/{trace_id}")
            assert status == 200
            document = normalize(canonical_json(body))
            status, body, _ = client.get(f"/v1/traces/{trace_id}?format=chrome")
            assert status == 200
            chrome = normalize(canonical_chrome(body))
            outputs.append({"request": label, "trace": document, "chrome": chrome})
    finally:
        server.close()
        app.close()
    access = [
        normalize.event(event)
        for event in canonical_jsonl(pathlib.Path(log_path).read_text())
    ]
    return {"requests": outputs, "access_log": access}


def collect_cli_outputs(work_dir):
    """One profiled ``theorem1`` run: its events JSONL and Chrome trace."""
    work_dir = pathlib.Path(work_dir)
    events_path = work_dir / "events.jsonl"
    trace_path = work_dir / "trace.json"
    subprocess.run(
        [
            sys.executable, "-m", "repro", "theorem1",
            "--max-t", "2", "--samples", "1",
            "--profile-json", str(events_path), "--trace-out", str(trace_path),
        ],
        cwd=work_dir,
        # Branch-and-bound counters follow set iteration order, which
        # string hashing randomizes per process; pin the seed.
        env=dict(
            os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(REPO_ROOT / "src")
        ),
        check=True,
        capture_output=True,
    )
    normalize = Normalizer()
    return {
        "events": [
            normalize.event(event)
            for event in canonical_jsonl(events_path.read_text())
        ],
        "chrome": normalize(canonical_chrome(trace_path.read_text())),
    }


def _dump(outputs):
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def _check(name, outputs):
    golden = (GOLDEN_DIR / name).read_text()
    assert _dump(outputs) == golden, f"{name} differs from its golden"


def test_serve_trace_documents_chrome_exports_and_access_log(tmp_path):
    _check("serve_traces.json", collect_serve_outputs(tmp_path / "access.jsonl"))


def test_profiled_cli_events_and_chrome_trace(tmp_path):
    _check("cli_profile.json", collect_cli_outputs(tmp_path))


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        serve = collect_serve_outputs(pathlib.Path(scratch) / "access.jsonl")
        (GOLDEN_DIR / "serve_traces.json").write_text(_dump(serve))
        cli = collect_cli_outputs(scratch)
        (GOLDEN_DIR / "cli_profile.json").write_text(_dump(cli))
    print(f"goldens written to {GOLDEN_DIR}")

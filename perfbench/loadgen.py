"""One-process HTTP load generator: an open loop on a seeded schedule.

All requests travel over at most :data:`CONNECTIONS` keep-alive
connections.  In an open loop a generator task releases each request at
its due time into a queue the connections drain, so a slow server makes
requests wait in the client; latency is timed from the due time.  The
generator's own lateness (how far past the due time it released a
request) is recorded separately: when it is large the client, not the
server, fell behind and the run is invalid.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from plans import Graph, Phase, Request

CONNECTIONS = 2


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int
    ok: bool
    disposition: str
    #: Why the answer failed its check, for the failure report.
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class PhaseResult:
    name: str
    outcomes: List[Outcome]
    #: Largest generator lateness, in ms.
    late_max_ms: float
    wall_s: float
    offered_rps: float
    #: CPU time the server used during the phase (set by the caller).
    server_cpu_s: float = 0.0


class Connection:
    """A minimal HTTP/1.1 keep-alive client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, request: Request) -> Tuple[int, bytes]:
        assert self.reader is not None and self.writer is not None
        head = (
            f"{request.method} {request.path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(request.body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + request.body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length)
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Checker:
    """Per-response correctness checks (see the benchmark README)."""

    def __init__(self, graphs: List[Graph]) -> None:
        self.graphs = graphs
        #: ``request key -> result bytes`` of each gadget's cold answer.
        self.cold_gadgets: Dict[str, bytes] = {}

    def check(self, request: Request, status: int, body: bytes, cold: bool = False) -> Tuple[bool, str, str]:
        """Return ``(ok, disposition, error)`` for one answer."""
        if status != 200:
            return False, "", f"status {status}"
        if request.kind == "health":
            return True, "", ""
        document = json.loads(body)
        disposition = document.get("disposition", "")
        if request.kind == "gadget":
            # Keys are sorted, so the result runs from its key to the end.
            result_bytes = body[body.index(b'"result": '):]
            if cold:
                self.cold_gadgets[request.key] = result_bytes
            elif self.cold_gadgets.get(request.key) != result_bytes:
                return False, disposition, "gadget body differs from its cold body"
            return True, disposition, ""
        result = document["result"]
        if request.kind == "claim":
            return bool(result.get("holds")), disposition, "" if result.get("holds") else "claim does not hold"
        graph = self.graphs[request.graph]
        witness = [json.dumps(node, separators=(",", ":")) for node in result["witness"]]
        chosen = set(witness)
        if len(chosen) != len(witness) or not chosen <= graph.weights.keys():
            return False, disposition, "witness names unknown or repeated nodes"
        if any(u in chosen and v in chosen for u, v in graph.edges):
            return False, disposition, "witness is not independent"
        weight = sum(graph.weights[node] for node in witness)
        if abs(weight - result["weight"]) > 1e-9:
            return False, disposition, "reported weight is not the witness sum"
        if request.expected_weight is not None and abs(weight - request.expected_weight) > 1e-9:
            return False, disposition, "weight differs from the client's exact solve"
        return True, disposition, ""


async def _connections(host: str, port: int) -> List[Connection]:
    connections = [Connection(host, port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()
    return connections


async def _send(connection: Connection, request: Request, due: float) -> Tuple[Outcome, bytes]:
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        status, body = await connection.request(request)
    except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as error:
        return Outcome(due, sent, loop.time(), 0, False, "", repr(error)), b""
    return Outcome(due, sent, loop.time(), status, False, ""), body


def _judge(checker: Checker, request: Request, outcome: Outcome, body: bytes, cold: bool = False) -> None:
    """Fill in the outcome's check result (after timing, off the hot path)."""
    if outcome.error:
        return
    try:
        outcome.ok, outcome.disposition, outcome.error = checker.check(request, outcome.status, body, cold)
    except (ValueError, KeyError, TypeError) as exc:
        outcome.error = f"unreadable answer: {exc!r}"


async def open_loop(host: str, port: int, phase: Phase, checker: Checker) -> PhaseResult:
    """Release each request at its due time; connections drain the queue.

    The client's garbage collector is off while the phase runs, and
    answers are checked after it, so neither delays a measured request.
    """
    loop = asyncio.get_running_loop()
    connections = await _connections(host, port)
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    sent: Dict[int, Tuple[Outcome, bytes]] = {}
    late_max = 0.0
    start = loop.time() + 0.05

    async def generator() -> None:
        nonlocal late_max
        for index, offset in enumerate(phase.offsets):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late_max = max(late_max, loop.time() - due)
            queue.put_nowait((index, due))
        for _ in connections:
            queue.put_nowait(None)

    async def drain(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent[index] = await _send(connection, phase.requests[index], due)

    gc.collect()
    gc.disable()
    try:
        await asyncio.gather(generator(), *(drain(c) for c in connections))
    finally:
        gc.enable()
        for connection in connections:
            await connection.close()
    outcomes = []
    for index, request in enumerate(phase.requests):
        outcome, body = sent[index]
        _judge(checker, request, outcome, body)
        outcomes.append(outcome)
    return PhaseResult(phase.name, outcomes, late_max * 1000.0, max(o.done for o in outcomes) - start, phase.rate)


async def sequential(host: str, port: int, requests: List[Request], checker: Checker) -> List[Outcome]:
    """Send requests one at a time on one connection (used for prewarm)."""
    loop = asyncio.get_running_loop()
    connection = Connection(host, port)
    await connection.open()
    outcomes = []
    try:
        for request in requests:
            outcome, body = await _send(connection, request, loop.time())
            _judge(checker, request, outcome, body, cold=True)
            outcomes.append(outcome)
    finally:
        await connection.close()
    return outcomes

"""The two workloads: ``sweep`` and ``serve_hits``.

Each workload function runs the program for about ``seconds`` seconds
and returns a :class:`Run`: the raw measurements, the operation counts,
the correctness failures and, when traced, the layer accumulators.
``run.py`` turns a ``Run`` into the reported metrics.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

import loadgen
import plans
import reference
from server import Server, program_env
from sweep_child import commands

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: At least this many sweeps per run, however short ``seconds`` is.
MIN_SWEEPS = 3
#: Sweep ``i`` of the run with seed ``s`` uses theorem seed ``s * stride + i``.
SWEEP_SEED_STRIDE = 1000
#: ``max_rps``: a rung passes when its p99 is within this limit ...
LADDER_P99_LIMIT_MS = 150.0
#: ... at least this share of the offered rate completes ...
LADDER_MIN_ACHIEVED = 0.97
#: ... and the send backlog grows by no more than this from the rung's
#: first quarter to its last.
LADDER_MAX_BACKLOG_GROWTH_MS = 50.0
#: The phases ``cpu_ms_per_op`` counts on ``serve_hits``.
FIXED_PHASES = ("low", "high")
#: Generator lateness above this means the client fell behind: the phase
#: is measured again, and a second miss makes the run invalid.
LATE_LIMIT_MS = 50.0

#: Operations (``repro`` commands) in one sweep.
SWEEP_COMMANDS = 3
#: Reports a sweep prints: theorem1 at t = 2..5 and theorem2's four points;
#: then the claims command's checks.
SWEEP_REPORTS, SWEEP_CHECKS = 8, 8

GOLDEN = Path(__file__).with_name("golden") / "sweep_seed0.txt"


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    #: Wrong answers and broken invariants: any entry makes the run incorrect.
    wrong: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    prewarm_s: List[float] = field(default_factory=list)
    peak_rss_mb: List[float] = field(default_factory=list)
    sweep_s: List[float] = field(default_factory=list)
    #: CPU time (user + system) of each sweep process over its commands.
    sweep_cpu_s: List[float] = field(default_factory=list)
    #: CPU times of the reference loop on the program's CPU during the
    #: timed work (see ``reference.py``).
    reference_s: List[float] = field(default_factory=list)
    phases: List[loadgen.PhaseResult] = field(default_factory=list)
    #: Phase attempts discarded because the load generator fell behind.
    stalled: List[loadgen.PhaseResult] = field(default_factory=list)
    #: Merged layer accumulators (traced runs only).
    layers: Optional[Dict[str, Any]] = None
    #: Sweeps run (the per-layer normaliser for ``sweep``).
    sweeps: int = 0
    plan_digest: str = ""


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def check_sweep_output(text: str) -> List[str]:
    """Every gap claim holds and every measured cut equals its closed form."""
    problems = []
    decoder = json.JSONDecoder()
    documents = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        document, position = decoder.raw_decode(text, position)
        documents.append(document)
    reports = [d for d in documents if isinstance(d, dict)]
    checks = [c for d in documents if isinstance(d, list) for c in d]
    if len(reports) != SWEEP_REPORTS or len(checks) != SWEEP_CHECKS:
        problems.append(f"expected {SWEEP_REPORTS} theorem reports and {SWEEP_CHECKS} claim checks, "
                        f"got {len(reports)} and {len(checks)}")
    for report in reports:
        if not report["gap"]["claims_hold"]:
            problems.append(f"gap claims fail at {report['name']} {report['parameters']}")
        if report["cut"] != report["expected_cut"]:
            problems.append(f"cut {report['cut']} != closed form {report['expected_cut']}")
    for check in checks:
        if not check["holds"]:
            problems.append(f"claim fails: {check['name']}")
    return problems


def _merge(total: Optional[Dict[str, Any]], part: Dict[str, Any]) -> Dict[str, Any]:
    if total is None:
        return part
    for name in ("calls", "self_s", "wall_s", "counts"):
        for key, value in part[name].items():
            total[name][key] = total[name].get(key, 0) + value
    for key, values in part["samples"].items():
        total["samples"].setdefault(key, []).extend(values)
    return total


def sweep_seed(seed: int, index: int) -> int:
    """The theorem seed of a run's ``index``-th sweep: distinct across runs."""
    return seed * SWEEP_SEED_STRIDE + index


def sweep(root: Path, scratch: Path, seed: int, seconds: float, trace: bool, cpus: Set[int]) -> Run:
    """Fresh ``repro`` processes, one sweep each, until ``seconds`` pass.

    Each sweep samples other theorem inputs (:func:`sweep_seed`), so a
    run averages the cost of many input sets, not one seed's.
    """
    run = Run()
    gauge = reference.Gauge(cpus)
    try:
        _sweeps(root, seed, seconds, trace, cpus, run, gauge)
    finally:
        run.reference_s = gauge.stop()
    plan = [commands(sweep_seed(seed, index)) for index in range(run.sweeps)]
    run.plan_digest = hashlib.sha256(json.dumps(plan).encode()).hexdigest()
    return run


def _sweeps(root: Path, seed: int, seconds: float, trace: bool, cpus: Set[int], run: Run,
            gauge: reference.Gauge) -> None:
    """Run sweeps into ``run``, each after a reference pass, until ``seconds`` pass."""
    child = str(Path(__file__).with_name("sweep_child.py"))
    start = time.perf_counter()
    # Stop before a sweep that would likely run past ``seconds``.
    while run.sweeps < MIN_SWEEPS or time.perf_counter() - start + statistics.fmean(run.sweep_s) < seconds:
        theorem_seed = sweep_seed(seed, run.sweeps)
        gauge.sample()
        spawned = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, child, str(theorem_seed), "1" if trace else "0"],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE, text=True,
        )
        assert process.stdout is not None
        try:
            os.sched_setaffinity(process.pid, cpus)
            ready = process.stdout.readline()
            run.setup_s.append(time.perf_counter() - spawned)
            result_line = process.stdout.readline()
        except BaseException:
            process.kill()
            raise
        finally:
            process.stdout.close()
            code = process.wait()
        run.sweeps += 1
        run.attempted += SWEEP_COMMANDS
        if ready.strip() != "ready" or code != 0 or not result_line:
            run.failed += SWEEP_COMMANDS
            run.wrong.append(f"sweep process failed (exit {code})")
            break
        result = json.loads(result_line)
        run.sweep_s.append(result["sweep_s"])
        run.sweep_cpu_s.append(result["cpu_s"])
        run.peak_rss_mb.append(result["peak_rss_kb"] / 1024.0)
        if result["layers"] is not None:
            run.layers = _merge(run.layers, result["layers"])
        bad = [c for c in result["exit_codes"] if c != 0]
        problems = check_sweep_output(result["output"])
        if bad or problems:
            run.failed += max(1, len(bad))
            run.wrong.append(f"exit codes {result['exit_codes']}; " + "; ".join(problems[:3]))
        if theorem_seed == 0 and result["output"] != GOLDEN.read_text():
            run.wrong.append("theorem seed 0 sweep output differs from golden/sweep_seed0.txt")


# ----------------------------------------------------------------------
# serve_hits
# ----------------------------------------------------------------------


def _setup(root: Path, scratch: Path, cpus: Set[int], plan: plans.Plan, checker: loadgen.Checker,
           run: Run, stats_out: Optional[Path]) -> Server:
    """Start a server and send the prewarm keys.

    ``setup_s`` times spawn to the announced URL; the prewarm (cold
    computations and disk-cache writes) is timed on its own, because
    it varied far more between runs than the start-up did.
    """
    server = Server(root, scratch, cpus, stats_out)
    ready = time.perf_counter()
    run.setup_s.append(ready - server.started)
    try:
        outcomes = asyncio.run(loadgen.sequential(server.host, server.port, plan.prewarm, checker))
        run.prewarm_s.append(time.perf_counter() - ready)
        for request, outcome in zip(plan.prewarm, outcomes):
            if not outcome.ok or outcome.disposition != "computed":
                run.wrong.append(f"prewarm {request.key}: {outcome.error or outcome.disposition}")
    except BaseException:
        server.stop()
        raise
    return server


def _drive(server: Server, phase: plans.Phase, checker: loadgen.Checker) -> loadgen.PhaseResult:
    cpu_before = server.cpu_s()
    result = asyncio.run(loadgen.open_loop(server.host, server.port, phase, checker))
    result.server_cpu_s = server.cpu_s() - cpu_before
    return result


def serve_hits(root: Path, scratch: Path, seed: int, seconds: float, trace: bool, cpus: Set[int]) -> Run:
    """Set up ``SETUPS`` servers, keep the last, and drive the plan at it."""
    plan = plans.hits_plan(seed, seconds)
    run = Run(plan_digest=plan.digest())
    checker = loadgen.Checker(plan.graphs)
    stats_out = scratch / "layers.json" if trace else None
    for _ in range(SETUPS - 1):
        _setup(root, scratch, cpus, plan, checker, run, None).stop()
    server = _setup(root, scratch, cpus, plan, checker, run, stats_out)
    gauge: Optional[reference.Gauge] = None
    try:
        if trace:
            server.mark()
        for phase in plan.phases:
            if phase.name == FIXED_PHASES[0]:
                gauge = reference.Gauge(cpus, reference.INTERVAL_S)
            result = _drive(server, phase, checker)
            if result.late_max_ms > LATE_LIMIT_MS:
                # The client, not the server, stalled: measure the phase once more.
                run.stalled.append(result)
                result = _drive(server, phase, checker)
            run.phases.append(result)
            if gauge is not None and phase.name == FIXED_PHASES[-1]:
                run.reference_s = gauge.stop()
            if phase.name.startswith("ladder") and not ladder_passes(result):
                break
        run.peak_rss_mb.append(server.peak_rss_mb())
    finally:
        if gauge is not None:
            gauge.stop()
        code = server.stop()
    if code != 0:
        run.wrong.append(f"repro serve exited with {code}")
    for result in run.stalled + run.phases:
        for outcome in result.outcomes:
            run.attempted += 1
            if not outcome.ok:
                run.failed += 1
                if outcome.status == 200:
                    run.wrong.append(f"{result.name}: {outcome.error}")
    if trace:
        run.layers = json.loads(stats_out.read_text())
    return run


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def phase_latencies(result: loadgen.PhaseResult) -> List[float]:
    """Latencies from the due time; a failed request misses every limit."""
    return [o.latency_ms if o.ok else float("inf") for o in result.outcomes]


def achieved_rps(result: loadgen.PhaseResult) -> float:
    """Successful completions per second between the first and the last.

    Measured like the offered rate (:attr:`plans.Phase.rate`), so a
    server that keeps up scores about 1.0 of it whatever its latency.
    """
    done = sorted(o.done for o in result.outcomes if o.ok)
    return (len(done) - 1) / (done[-1] - done[0]) if len(done) > 1 else 0.0


def ladder_passes(result: loadgen.PhaseResult) -> bool:
    """p99 within the limit, the offered rate achieved, no growing backlog."""
    backlog = [(o.sent - o.due) * 1000.0 for o in result.outcomes]
    quarter = max(1, len(backlog) // 4)
    growth = percentile(backlog[-quarter:], 0.5) - percentile(backlog[:quarter], 0.5)
    return (
        percentile(phase_latencies(result), 0.99) <= LADDER_P99_LIMIT_MS
        and achieved_rps(result) >= LADDER_MIN_ACHIEVED * result.offered_rps
        and growth <= LADDER_MAX_BACKLOG_GROWTH_MS
    )

"""End-to-end benchmark of the reproduction: CLI sweep and ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 48 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same seed twice, untraced and then with every
layer wrapped, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``perfbench-detail {...}``) records provenance, sample counts, the
layer-coverage check and any failures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

import reference
import workloads
from workloads import Run, percentile, phase_latencies

WORKLOADS = ("sweep", "serve_hits")

#: End-to-end metrics, as declared in BENCHMARK.json.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "cpu_ms_per_op": "ms",
}
#: End-to-end metrics printed on the detail line only: the measured times
#: ``cpu_ms_per_op`` is scaled from, and figures that spread between runs
#: on a shared 2-vCPU machine further than any bound BENCHMARK.json may
#: set (see README.md).
REPORTED_ONLY = {
    "sweep_s": "s",
    "cpu_ms_per_op.raw": "ms",
    "reference_ms": "ms",
    "p50_ms.low": "ms",
    "p50_ms.high": "ms",
    "p99_ms.low": "ms",
    "p99_ms.high": "ms",
    "max_rps": "1/s",
    "prewarm_s": "s",
}

#: ``(name, unit)`` of every per-layer metric, reported on every workload.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("gadgets.construct_s", "s"),
    ("gadgets.instance_s", "s"),
    ("gadgets.instance_calls", "count"),
    ("codes.mapping_s", "s"),
    ("codes.mapping_calls", "count"),
    ("commcc.inputs_s", "s"),
    ("maxis.kernel_s", "s"),
    ("maxis.kernel_removed_ratio", "ratio"),
    ("maxis.search_s", "s"),
    ("maxis.solves", "count"),
    ("maxis.nodes_expanded", "count"),
    ("maxis.bound_prunes", "count"),
    ("framework.cut_s", "s"),
    ("parallel.overhead_s", "s"),
    ("parallel.execute_ms", "ms"),
    ("graphs.to_dict_ms", "ms"),
    ("graphs.from_dict_ms", "ms"),
    ("store.key_ms", "ms"),
    ("store.lookup_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.write_ms", "ms"),
    ("store.writes", "count"),
    ("store.codec_encode_ms", "ms"),
    ("store.codec_decode_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.dispatch_busy_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.disposition.computed", "count"),
    ("serve.disposition.cache_hit", "count"),
    ("serve.disposition.coalesced", "count"),
    ("obs.request_trace_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("client.late_max_ms", "ms"),
]

#: Layer-coverage predictions: ``(must record calls, must record none)``.
#: ``serve.dispatch`` counts submissions to the dispatcher queue.
COVERAGE = {
    "sweep": (
        ["gadgets.construct", "gadgets.instance", "codes.mapping", "commcc.inputs", "maxis.kernel",
         "maxis.search", "framework.cut", "parallel.run_units", "parallel.execute"],
        ["store.key", "store.lookup", "store.write", "store.codec_encode", "store.codec_decode",
         "serve.handler"],
    ),
    "serve_hits": (
        ["graphs.to_dict", "graphs.from_dict", "store.key", "store.lookup", "store.codec_encode",
         "store.codec_decode", "serve.handler", "serve.dispatch", "obs.request_trace"],
        ["maxis.kernel", "maxis.search", "gadgets.construct", "gadgets.instance", "store.write"],
    ),
}


def end_to_end(workload: str, run: Run) -> Dict[str, float]:
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": statistics.median(run.peak_rss_mb),
        "success_ratio": (run.attempted - run.failed) / run.attempted,
    }
    if workload == "sweep":
        # Each sweep has other inputs (see workloads.sweep): report means.
        metrics["sweep_s"] = statistics.fmean(run.sweep_s)
        raw_ms = 1000.0 * statistics.fmean(run.sweep_cpu_s) / workloads.SWEEP_COMMANDS
        return dict(metrics, **cpu_per_op(raw_ms, run))
    phases = {result.name: result for result in run.phases}
    for rate in ("low", "high"):
        latencies = phase_latencies(phases[rate])
        metrics[f"p50_ms.{rate}"] = percentile(latencies, 0.5)
        metrics[f"p99_ms.{rate}"] = percentile(latencies, 0.99)
    metrics["max_rps"] = max_rps(run)
    metrics["prewarm_s"] = statistics.median(run.prewarm_s)
    fixed = [phases[name] for name in workloads.FIXED_PHASES]
    raw_ms = 1000.0 * sum(p.server_cpu_s for p in fixed) / sum(len(p.outcomes) for p in fixed)
    return dict(metrics, **cpu_per_op(raw_ms, run))


def cpu_per_op(raw_ms: float, run: Run) -> Dict[str, float]:
    """CPU time per operation, as measured and scaled to the reference host.

    ``cpu_ms_per_op`` is the measured figure times the reference loop's
    nominal CPU time over its median time in this run (``reference.py``).
    """
    reference_s = statistics.median(run.reference_s)
    return {
        "cpu_ms_per_op": raw_ms * reference.NOMINAL_S / reference_s,
        "cpu_ms_per_op.raw": raw_ms,
        "reference_ms": 1000.0 * reference_s,
    }


def max_rps(run: Run) -> float:
    """Achieved rate of the highest rung, climbing from ``low``, that passes."""
    best = 0.0
    for result in run.phases[1:]:  # after the warm-up
        if not workloads.ladder_passes(result):
            break
        best = workloads.achieved_rps(result)
    return best


def _calls(layers: Dict[str, Any], layer: str) -> int:
    if layer == "serve.dispatch":
        return len(layers["samples"].get("serve.queue_wait_s", []))
    return layers["calls"].get(layer, 0)


def coverage(workload: str, layers: Dict[str, Any]) -> List[str]:
    """Predicted-busy layers with no calls, predicted-idle layers with calls."""
    busy, idle = COVERAGE[workload]
    problems = [f"{layer}: predicted to work, recorded no calls" for layer in busy if not _calls(layers, layer)]
    problems += [f"{layer}: predicted idle, recorded {_calls(layers, layer)} calls"
                 for layer in idle if _calls(layers, layer)]
    return problems


def per_layer(workload: str, run: Run, overhead_ratio: float) -> Dict[str, float]:
    """Layer metrics: ``*_s`` and counts per sweep (``sweep``) or per run."""
    layers = run.layers or {"calls": {}, "self_s": {}, "wall_s": {}, "counts": {}, "samples": {}}
    calls, self_s, wall_s = layers["calls"], layers["self_s"], layers["wall_s"]
    counts, samples = layers["counts"], layers["samples"]
    per = run.sweeps if workload == "sweep" else 1

    def busy_s(layer: str) -> float:
        return self_s.get(layer, 0.0) / per

    def mean_ms(layer: str, source: Dict[str, float] = self_s) -> float:
        n = calls.get(layer, 0)
        return 1000.0 * source.get(layer, 0.0) / n if n else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    outcomes = [o for result in run.phases for o in result.outcomes]
    window_s = sum(result.wall_s for result in run.phases)
    queue_ms = [1000.0 * s for s in samples.get("serve.queue_wait_s", [])]
    handler_ms = mean_ms("serve.handler", wall_s)
    dispositions = [o.disposition for o in outcomes]
    return {
        "gadgets.construct_s": busy_s("gadgets.construct"),
        "gadgets.instance_s": busy_s("gadgets.instance"),
        "gadgets.instance_calls": calls.get("gadgets.instance", 0) / per,
        "codes.mapping_s": busy_s("codes.mapping"),
        "codes.mapping_calls": calls.get("codes.mapping", 0) / per,
        "commcc.inputs_s": busy_s("commcc.inputs"),
        "maxis.kernel_s": busy_s("maxis.kernel"),
        "maxis.kernel_removed_ratio": ratio(
            counts.get("maxis.kernel_removed_nodes", 0), counts.get("maxis.kernel_initial_nodes", 0)
        ),
        "maxis.search_s": busy_s("maxis.search"),
        "maxis.solves": calls.get("maxis.search", 0) / per,
        "maxis.nodes_expanded": counts.get("maxis.nodes_expanded", 0) / per,
        "maxis.bound_prunes": counts.get("maxis.bound_prunes", 0) / per,
        "framework.cut_s": busy_s("framework.cut"),
        "parallel.overhead_s": busy_s("parallel.run_units"),
        "parallel.execute_ms": mean_ms("parallel.execute", wall_s),
        "graphs.to_dict_ms": mean_ms("graphs.to_dict"),
        "graphs.from_dict_ms": mean_ms("graphs.from_dict"),
        "store.key_ms": mean_ms("store.key"),
        "store.lookup_ms": mean_ms("store.lookup"),
        "store.hit_ratio": ratio(counts.get("store.hits", 0), calls.get("store.lookup", 0)),
        "store.write_ms": mean_ms("store.write"),
        "store.writes": calls.get("store.write", 0) / per,
        "store.codec_encode_ms": mean_ms("store.codec_encode"),
        "store.codec_decode_ms": mean_ms("store.codec_decode"),
        "serve.handler_ms": handler_ms,
        "serve.http_ms": (
            statistics.fmean((o.done - o.sent) * 1000.0 for o in outcomes) - handler_ms if outcomes else 0.0
        ),
        "serve.queue_wait_ms.p50": percentile(queue_ms, 0.5) if queue_ms else 0.0,
        "serve.queue_wait_ms.p95": percentile(queue_ms, 0.95) if queue_ms else 0.0,
        "serve.dispatch_busy_ratio": ratio(counts.get("serve.dispatch_busy_s", 0.0), window_s),
        "serve.shed": counts.get("serve.shed", 0),
        "serve.disposition.computed": dispositions.count("computed"),
        "serve.disposition.cache_hit": dispositions.count("cache_hit"),
        "serve.disposition.coalesced": dispositions.count("coalesced"),
        "obs.request_trace_ms": ratio(1000.0 * self_s.get("obs.request_trace", 0.0), calls.get("serve.handler", 0)),
        "bench.trace_overhead_ratio": overhead_ratio,
        "client.late_max_ms": max((result.late_max_ms for result in run.phases), default=0.0),
    }


def provenance(root: Path, workload: str, seed: int, run: Run) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "plan_sha256": run.plan_digest,
    }


def place() -> Set[int]:
    """Give the program the first CPU and this client the others.

    The program and its load never compete for a CPU, and the program's
    threads never hop between CPUs.  With one CPU, both share it.
    """
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        return set(available)
    os.sched_setaffinity(0, set(available[1:]))
    return {available[0]}


def _measure(root: Path, scratch: Path, args: argparse.Namespace, trace: bool, cpus: Set[int]) -> Run:
    if args.workload == "sweep":
        return workloads.sweep(root, scratch, args.seed, args.seconds, trace, cpus)
    return workloads.serve_hits(root, scratch, args.seed, args.seconds, trace, cpus)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    # A termination request unwinds like an error, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpus = place()
    try:
        runs = [_measure(root, scratch, args, False, cpus)]
        if args.trace:
            runs.append(_measure(root, scratch, args, True, cpus))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    late = max((p.late_max_ms for run in runs for p in run.phases), default=0.0)
    if late > workloads.LATE_LIMIT_MS:
        print(f"perfbench: invalid run, the load generator fell {late:.1f} ms behind its schedule",
              file=sys.stderr)
        return 3
    wrong = [message for run in runs for message in run.wrong]
    untraced = end_to_end(args.workload, runs[0]) if runs[0].attempted > runs[0].failed else {}
    if args.trace:
        traced = runs[1]
        covered = coverage(args.workload, traced.layers or {"calls": {}, "samples": {}})
        wrong += covered
        overhead = (
            end_to_end(args.workload, traced)["cpu_ms_per_op"] / untraced["cpu_ms_per_op"]
            if untraced and traced.attempted > traced.failed else 0.0
        )
        values = per_layer(args.workload, traced, overhead)
        units = dict(LAYER_METRICS)
    else:
        values = {name: value for name, value in untraced.items() if name in UNITS}
        units = UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}; no result", file=sys.stderr)
        return 4
    detail = {
        "provenance": provenance(root, args.workload, args.seed, runs[0]),
        "reported_only": {
            name: {"value": value, "unit": REPORTED_ONLY[name]}
            for name, value in untraced.items() if name in REPORTED_ONLY
        },
        "samples": {p.name: len(p.outcomes) for p in runs[0].phases} or {"sweeps": runs[0].sweeps},
        "rungs": {
            p.name: {
                "p99_ms": percentile(phase_latencies(p), 0.99),
                "achieved_rps": workloads.achieved_rps(p),
                "passes": workloads.ladder_passes(p),
            }
            for p in runs[0].phases[1:]
        },
        "errors": wrong[:20],
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    for message in wrong[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {
        "correct": not wrong and bool(values),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

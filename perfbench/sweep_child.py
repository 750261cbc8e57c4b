"""One sweep in a fresh process: the three commands a researcher runs.

Usage: ``python sweep_child.py SEED TRACE`` with ``src`` on
``PYTHONPATH``.  Prints ``ready`` once ``repro.cli`` is imported (the
parent times set-up up to that line), runs ``theorem1``, ``theorem2``
and ``claims`` through ``repro.cli.main`` with their standard output
captured, then prints one JSON line: the sweep's wall time, the
captured output, the exit codes, the peak RSS and, when TRACE is 1, the
per-layer accumulators.  The sweep's time is given twice: wall time and
the CPU time of the process (user + system).
"""

import contextlib
import io
import json
import resource
import sys
import time


def commands(seed: int) -> list:
    common = ["--json", "--workers", "1"]
    return [
        ["theorem1", "--max-t", "5", "--samples", "2", "--seed", str(seed)] + common,
        ["theorem2", "--max-t", "4", "--samples", "2", "--seed", str(seed)] + common,
        # ``claims`` takes no --seed: its samplers use fixed seeds.
        ["claims", "--ell", "4", "--t", "3", "--samples", "3", "--quadratic"] + common,
    ]


def main() -> int:
    seed, trace = int(sys.argv[1]), sys.argv[2] == "1"
    import repro.cli

    clock = None
    if trace:
        import layers

        clock = layers.LayerClock()
        layers.install(clock)
    print("ready", flush=True)
    output = io.StringIO()
    codes = []
    start, cpu_start = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(output):
        for argv in commands(seed):
            codes.append(repro.cli.main(argv))
    result = {
        "sweep_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu_start,
        "output": output.getvalue(),
        "exit_codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": clock.snapshot() if clock is not None else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

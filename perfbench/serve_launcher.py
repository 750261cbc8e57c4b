"""Run ``repro serve`` with every layer wrapped, for the traced run.

Usage: ``python serve_launcher.py STATS_OUT serve [serve flags...]``
with ``src`` on ``PYTHONPATH``.  Wraps the layers (see ``layers.py``),
then calls ``repro.cli.main`` with the remaining arguments.  A line
``mark`` on standard input snapshots the accumulators and is
acknowledged on standard error; on shutdown (SIGTERM) the accumulation
since the mark is written to STATS_OUT as JSON.
"""

import json
import sys
import threading

import layers


def main() -> int:
    stats_out, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    clock = layers.LayerClock()
    layers.install(clock)
    mark = clock.snapshot()

    def control() -> None:
        nonlocal mark
        for line in sys.stdin:
            if line.strip() == "mark":
                mark = clock.snapshot()
                print("[perfbench: marked]", file=sys.stderr, flush=True)

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    code = repro.cli.main(argv)
    with open(stats_out, "w") as handle:
        json.dump(layers.subtract(clock.snapshot(), mark), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""A fixed piece of Python work that gauges how fast a CPU runs at the moment.

The benchmark runs on a shared host whose speed drifts: a plain loop
took from 0.27 to 0.33 s of CPU time within one minute, and a run's
mean CPU time per operation moved by about as much between runs.
``cpu_ms_per_op`` is therefore scaled by the CPU time of a pass of this
work, measured on the program's CPU while the timed work runs: the
metric then follows the program, not the host.  A pass is only a fair
gauge when the CPU is otherwise idle, so ``sweep`` asks for one between
sweeps, and ``serve_hits``, whose server idles about 70% of the time at
the fixed rates, has one made every ``INTERVAL_S`` through those phases.

A pass mixes the kinds of interpreter work the program does: dict and
integer operations, allocating a working set of a few MB, and JSON
encoding and decoding.  Over five minutes of one ``sweep`` input set
repeated, the mix followed the host's drift more closely than any one
kind alone.

A :class:`Gauge` runs the work in a child process of its own, which
imports nothing of the program, so nothing the program does at import
changes its cost.  Run directly, this file is that child::

    python3 perfbench/reference.py [INTERVAL_S]

It prints the CPU seconds of one pass for each line it reads and, given
``INTERVAL_S``, after each ``INTERVAL_S`` without one, until its
standard input closes.
"""

from __future__ import annotations

import gc
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Optional, Set

#: The CPU time of one pass that ``cpu_ms_per_op`` is scaled to, about
#: a pass's median on the host the benchmark was tuned on (2 vCPUs,
#: shared).  A metric value reads as the CPU time per operation on a
#: host where one pass takes this long.
NOMINAL_S = 0.08
#: Pause between timed passes: the gauge takes under a tenth of its CPU.
INTERVAL_S = 1.0
STOP_TIMEOUT_S = 10.0


def _work() -> int:
    table: dict = {}
    total = 0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * i) % 7
        total += len(table)
    names = {i: str(i) for i in range(60_000)}
    for i in range(0, 60_000, 3):
        total += len(names[(i * 7919) % 60_000])
    document = {"nodes": [{"id": i, "w": i % 7, "nbrs": list(range(i % 13))} for i in range(1500)]}
    for _ in range(3):
        total += len(json.loads(json.dumps(document, sort_keys=True))["nodes"])
    return total


def one_pass() -> float:
    """CPU seconds of one pass of the work on this thread."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


class Gauge:
    """Passes of the work in a child process pinned to ``cpus``.

    With ``interval_s`` the child makes a pass every ``interval_s``
    seconds on its own; without it, one pass per :meth:`sample`.
    """

    def __init__(self, cpus: Set[int], interval_s: Optional[float] = None) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__] + ([str(interval_s)] if interval_s else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: List[float] = []
        try:
            # The child makes no pass before a request or a first interval.
            os.sched_setaffinity(self.process.pid, cpus)
        except BaseException:
            self.stop()
            raise

    def sample(self) -> float:
        """Have the child make one pass now, and return its CPU seconds."""
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        self.samples.append(float(self.process.stdout.readline()))
        return self.samples[-1]

    def stop(self) -> List[float]:
        """End the child and return the CPU seconds of each of its passes."""
        if self.process.returncode is None:
            try:
                out, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
            finally:
                if self.process.poll() is None:
                    self.process.kill()
                    self.process.wait()
            self.samples += [float(line) for line in out.split()]
        return self.samples


def main() -> int:
    interval_s = float(sys.argv[1]) if len(sys.argv) > 1 else None
    gc.disable()
    stdin = sys.stdin.fileno()
    passes = 0
    while True:
        # One request is one line, and the parent waits for each answer.
        if select.select([stdin], [], [], interval_s)[0] and not os.read(stdin, 4096):
            break
        print(f"{one_pass():.9f}", flush=True)
        passes += 1
    if not passes:
        # Stopped within its first interval (a short run): still one pass.
        print(f"{one_pass():.9f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

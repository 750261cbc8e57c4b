"""Start, probe and stop one ``repro serve`` process.

The untraced run starts ``python -m repro serve`` itself; the traced run
starts it through ``serve_launcher.py``.  Either way the process binds
an ephemeral port, announces ``[serve: URL]`` on standard error, and
serves from a fresh disk cache under the benchmark's scratch directory.
It runs on the program's CPUs (see ``run.py``), away from the client.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_URL = re.compile(r"\[serve: http://([^:\]]+):(\d+)\]")


def program_env(root: Path) -> Dict[str, str]:
    """The environment the program runs in: its source on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Server:
    def __init__(self, root: Path, scratch: Path, cpus: Set[int], stats_out: Optional[Path] = None) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        serve = ["serve", "--port", "0", "--workers", "1", "--cache", "disk", "--cache-dir", self.cache_dir]
        if stats_out is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = str(Path(__file__).with_name("serve_launcher.py"))
            argv = [sys.executable, launcher, str(stats_out)] + serve
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=root, env=program_env(root), stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        # Before the interpreter starts any thread, so all of them inherit it.
        os.sched_setaffinity(self.process.pid, cpus)
        self.lines: List[str] = []
        self._changed = threading.Condition()
        self._reader = threading.Thread(target=self._read_stderr, name="serve-stderr", daemon=True)
        self._reader.start()
        url = self.wait_for(_URL)
        self.host, self.port = url.group(1), int(url.group(2))

    def _read_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            with self._changed:
                self.lines.append(line)
                self._changed.notify_all()
        with self._changed:
            self._changed.notify_all()

    def wait_for(self, pattern: "re.Pattern[str]", start: int = 0) -> "re.Match[str]":
        """Block until a standard-error line from ``start`` on matches."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        with self._changed:
            while True:
                for line in self.lines[start:]:
                    match = pattern.search(line)
                    if match:
                        return match
                if self.process.poll() is not None and not self._reader.is_alive():
                    raise RuntimeError("repro serve exited early:\n" + "".join(self.lines[-20:]))
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError("repro serve did not answer in time")
                self._changed.wait(min(remaining, 0.5))

    def mark(self) -> None:
        """Ask the traced launcher to start accumulating from now."""
        assert self.process.stdin is not None
        start = len(self.lines)
        self.process.stdin.write("mark\n")
        self.process.stdin.flush()
        self.wait_for(re.compile(r"\[perfbench: marked\]"), start)

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU time (user + system, all threads) the process has used."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM, then wait; kill if the process does not stop in time."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(STOP_TIMEOUT_S)
        if self.process.stdin is not None:
            self.process.stdin.close()
        return self.process.returncode

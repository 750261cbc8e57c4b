"""Deep-profile plane: sampling profiler, memory telemetry, critical path.

Span-level observability (:mod:`repro.obs.recorder`) answers *which
phase* was slow; this module answers *which frames inside it*.  It is
stdlib-only and has three cooperating parts:

``DeepProfiler``
    A background daemon thread that walks ``sys._current_frames()``
    for the thread that called :meth:`DeepProfiler.start` at a
    configurable rate (default ``DEFAULT_HZ``), aggregating collapsed
    stacks.  Each sample is keyed by the recorder's currently-open
    span path (``span:<name>`` segments) followed by the Python frame
    labels (``module:qualname``), so samples attribute to the span
    tree.  Frames at and above the shared serial/worker entry point
    (``repro.parallel.jobs:execute_unit``) are trimmed, which is what
    keeps merged multi-worker output structurally identical to a
    serial run below the span level.

Memory telemetry
    With ``memory=True`` the profiler drives :mod:`tracemalloc`: every
    tick records the current traced size against the open span path
    (per-span peaks), and :meth:`DeepProfiler.stop` captures the
    global peak plus the top-N allocation sites.

Critical path
    :func:`critical_path` walks a recorded ``SpanRecord`` tree along
    the longest-child chain, attributing self-time (duration minus
    children) at every hop — the "where did the time go" table.

Exports are byte-deterministic: folded-stack text
(:func:`folded_lines`, one ``stack count`` line per key, sorted) and
speedscope JSON (:func:`speedscope_document` +
:func:`dump_speedscope`), both functions of the sample dict alone.

Cross-process flow: pool workers run their own profiler per unit
(armed by :func:`repro.parallel.jobs.init_deepprof` through the pool
initializer), ship :meth:`DeepProfiler.state` back alongside the obs
snapshot, and the parent calls :meth:`DeepProfiler.absorb` with the
currently-open span path as prefix — mirroring how worker spans are
grafted by ``Recorder.merge_snapshot``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import sys
import threading
import time
import tracemalloc
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .recorder import Recorder, SpanRecord

#: Bumped when the ``state()`` payload shape changes.
DEEPPROF_SCHEMA_VERSION = 1

#: Default sampling rate.  Prime, so the sampler cannot phase-lock
#: with periodic work running at round frequencies.
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (a runaway recursion should
#: not make folded keys unbounded).
DEFAULT_MAX_DEPTH = 64

#: How many allocation sites ``stop()`` keeps from the tracemalloc
#: snapshot.
DEFAULT_TOP_ALLOCATIONS = 10

#: Folded-key segments that name spans rather than frames.
SPAN_PREFIX = "span:"

#: Sampled stacks are cut at (and above) these frame labels so the
#: serial path (cli -> engine -> execute_unit -> job) and the worker
#: path (pool plumbing -> execute_chunk -> execute_unit -> job)
#: collapse to the same keys below the shared entry point.
TRIM_ANCHORS = frozenset({"repro.parallel.jobs:execute_unit"})

#: Span key used for memory attribution when no span is open.
ROOT_SPAN_KEY = SPAN_PREFIX + "(root)"

#: This module's own file, excluded from sampled stacks (an exact
#: match — a suffix test would also swallow e.g. ``test_deepprof.py``).
_SELF_FILE = __file__


def _clean_segment(name: str) -> str:
    """Make ``name`` safe as one folded-key segment."""
    return name.replace(";", ",").replace(" ", "_")


def _frame_label(frame: Any) -> str:
    """``module:qualname`` for one Python frame."""
    code = frame.f_code
    module = frame.f_globals.get("__name__") or pathlib.Path(code.co_filename).stem
    function = getattr(code, "co_qualname", None) or code.co_name
    return _clean_segment(f"{module}:{function}")


def _trim_stack(labels: List[str]) -> List[str]:
    """Drop everything at and above the deepest trim anchor.

    ``labels`` is outermost-first.  When no anchor is present (pure
    in-process runs that never enter the parallel engine) the stack is
    returned unchanged.
    """
    for index in range(len(labels) - 1, -1, -1):
        if labels[index] in TRIM_ANCHORS:
            return labels[index + 1 :]
    return labels


def _short_site(filename: str, lineno: int) -> str:
    """A stable, readable allocation-site label (last 2 path parts)."""
    parts = pathlib.PurePath(filename).parts
    return "/".join(parts[-2:]) + f":{lineno}"


class DeepProfiler:
    """Background sampling profiler with optional memory telemetry.

    Samples the thread that called :meth:`start` — from a daemon
    thread, so the profiled code runs unmodified.  All aggregation
    state is plain JSON-native data; :meth:`state` is the wire format
    shipped from pool workers, :meth:`absorb` the parent-side merge.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        sample_stacks: bool = True,
        memory: bool = False,
        recorder: Optional[Recorder] = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        top_allocations: int = DEFAULT_TOP_ALLOCATIONS,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.sample_stacks = bool(sample_stacks)
        self.memory = bool(memory)
        self.max_depth = int(max_depth)
        self.top_allocations = int(top_allocations)
        self._recorder = recorder
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self.duration_s = 0.0
        self.merged_profiles = 0
        self._span_mem_peak: Dict[str, int] = {}
        self._mem_current = 0
        self._mem_peak = 0
        self._allocations: Dict[str, List[int]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._pause_depth = 0
        self._pause_lock = threading.Lock()
        self._target_thread_id: Optional[int] = None
        self._started_tracing = False
        self._started_at: Optional[float] = None

    # -- configuration plumbing (pool initializer channel) ------------

    def config(self) -> Dict[str, Any]:
        """Picklable constructor arguments for worker-side clones."""
        return {
            "hz": self.hz,
            "sample_stacks": self.sample_stacks,
            "memory": self.memory,
            "max_depth": self.max_depth,
            "top_allocations": self.top_allocations,
        }

    @classmethod
    def from_config(
        cls, config: Dict[str, Any], recorder: Optional[Recorder] = None
    ) -> "DeepProfiler":
        return cls(recorder=recorder, **config)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "DeepProfiler":
        """Begin sampling the calling thread."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_thread_id = threading.get_ident()
        if self.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracing = True
            tracemalloc.reset_peak()
        self._stop_event.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-deepprof", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "DeepProfiler":
        """Stop sampling and finalize memory telemetry."""
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        if self._started_at is not None:
            self.duration_s += time.perf_counter() - self._started_at
            self._started_at = None
        if self.memory and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._mem_current = max(self._mem_current, current)
            self._mem_peak = max(self._mem_peak, peak)
            snapshot = tracemalloc.take_snapshot().filter_traces(
                (
                    tracemalloc.Filter(False, "*/deepprof.py"),
                    tracemalloc.Filter(False, "*/tracemalloc.py"),
                )
            )
            # A site can hold only zero-byte blocks (a list resized to
            # empty); such statistics must not take a top-N slot.
            stats = [stat for stat in snapshot.statistics("lineno") if stat.size]
            for stat in stats[: self.top_allocations]:
                frame = stat.traceback[0]
                site = _short_site(frame.filename, frame.lineno)
                entry = self._allocations.setdefault(site, [0, 0])
                entry[0] += stat.size
                entry[1] += stat.count
            if self._started_tracing:
                tracemalloc.stop()
                self._started_tracing = False
        return self

    def __enter__(self) -> "DeepProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Suspend sampling (nested-safe).

        The parallel backends pause the parent profiler while a worker
        pool runs: the parent thread is only waiting on futures then,
        and counting that wait as samples would make pooled output
        differ structurally from serial output (where the same wall
        time is sampled inside the units, by the workers' own
        profilers).
        """
        with self._pause_lock:
            self._pause_depth += 1
        try:
            yield
        finally:
            with self._pause_lock:
                self._pause_depth -= 1

    # -- the sampler ---------------------------------------------------

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        next_tick = time.perf_counter() + interval
        while not self._stop_event.wait(
            max(0.0, next_tick - time.perf_counter())
        ):
            self._sample_once()
            next_tick += interval
            now = time.perf_counter()
            if next_tick < now - interval:
                # Fell behind (suspended VM, very low priority): skip
                # the backlog rather than burst-sample.
                next_tick = now + interval

    def _span_path(self) -> Tuple[str, ...]:
        if self._recorder is None:
            return ()
        # Reading a snapshot of the open-span list from another thread
        # is safe: list append/pop are atomic under the GIL, and the
        # worst case is a one-span-stale attribution.
        return tuple(
            _clean_segment(record.name) for record in list(self._recorder._stack)
        )

    def _sample_once(self) -> None:
        if self._stop_event.is_set():
            # stop() has been requested: the target thread is (or is
            # about to be) blocked joining us, and sampling that wait
            # would add a nondeterministic junk key.
            return
        with self._pause_lock:
            if self._pause_depth > 0:
                return
        span_path = self._span_path()
        span_segments = [SPAN_PREFIX + name for name in span_path]
        if self.sample_stacks:
            frame = sys._current_frames().get(self._target_thread_id)
            if frame is not None:
                labels: List[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    if frame.f_code.co_filename != _SELF_FILE:
                        labels.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                labels.reverse()
                labels = _trim_stack(labels)
                key = ";".join(span_segments + labels)
                self.samples[key] = self.samples.get(key, 0) + 1
                self.total_samples += 1
        if self.memory and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            span_key = ";".join(span_segments) or ROOT_SPAN_KEY
            if current > self._span_mem_peak.get(span_key, -1):
                self._span_mem_peak[span_key] = current
            self._mem_current = current
            self._mem_peak = max(self._mem_peak, peak)

    # -- aggregation / wire format ------------------------------------

    def state(self) -> Dict[str, Any]:
        """JSON-native aggregate, the worker -> parent wire format."""
        memory: Optional[Dict[str, Any]] = None
        if self.memory:
            memory = {
                "current_bytes": int(self._mem_current),
                "peak_bytes": int(self._mem_peak),
                "span_peak_bytes": {
                    key: int(self._span_mem_peak[key])
                    for key in sorted(self._span_mem_peak)
                },
                "top_allocations": [
                    {
                        "site": site,
                        "size_bytes": int(self._allocations[site][0]),
                        "count": int(self._allocations[site][1]),
                    }
                    for site in sorted(
                        self._allocations,
                        key=lambda s: (-self._allocations[s][0], s),
                    )[: self.top_allocations]
                ],
            }
        return {
            "schema_version": DEEPPROF_SCHEMA_VERSION,
            "hz": self.hz,
            "sample_stacks": self.sample_stacks,
            "total_samples": int(self.total_samples),
            "duration_s": round(self.duration_s, 6),
            "merged_profiles": int(self.merged_profiles),
            "samples": {key: int(self.samples[key]) for key in sorted(self.samples)},
            "memory": memory,
        }

    def absorb(
        self, state: Dict[str, Any], span_prefix: Sequence[str] = ()
    ) -> None:
        """Merge a worker's :meth:`state` into this aggregate.

        ``span_prefix`` is the parent's currently-open span path —
        the same grafting point ``Recorder.merge_snapshot`` uses for
        worker spans — so a merged 2-worker run and a serial run fold
        to the same keys.  Deterministic: callers merge snapshots in
        sorted unit order, and the operations here (sum counts, max
        peaks) commute anyway.
        """
        prefix = [SPAN_PREFIX + _clean_segment(name) for name in span_prefix]
        for key in sorted(state.get("samples") or {}):
            count = int(state["samples"][key])
            parts = prefix + ([key] if key else [])
            merged = ";".join(parts)
            self.samples[merged] = self.samples.get(merged, 0) + count
        self.total_samples += int(state.get("total_samples", 0))
        self.merged_profiles += 1
        memory = state.get("memory")
        if memory:
            self.memory = True
            self._mem_current = max(
                self._mem_current, int(memory.get("current_bytes", 0))
            )
            self._mem_peak = max(self._mem_peak, int(memory.get("peak_bytes", 0)))
            prefix_key = ";".join(prefix)
            for span_key in sorted(memory.get("span_peak_bytes") or {}):
                peak = int(memory["span_peak_bytes"][span_key])
                parts = [prefix_key, span_key] if prefix_key else [span_key]
                merged = ";".join(part for part in parts if part)
                if peak > self._span_mem_peak.get(merged, -1):
                    self._span_mem_peak[merged] = peak
            for entry in memory.get("top_allocations") or []:
                site = str(entry.get("site", "?"))
                bucket = self._allocations.setdefault(site, [0, 0])
                bucket[0] += int(entry.get("size_bytes", 0))
                bucket[1] += int(entry.get("count", 0))

    def top_frames(self, limit: int = 15) -> Dict[str, float]:
        """Leaf-frame self-sample fractions, heaviest first.

        Keys whose leaf segment is a span (no frame below it) are
        skipped — they carry no frame-level information.  Fractions
        are rounded so bench records stay compact and diff-friendly.
        """
        totals: Dict[str, int] = {}
        for key, count in self.samples.items():
            leaf = key.rsplit(";", 1)[-1]
            if leaf.startswith(SPAN_PREFIX):
                continue
            totals[leaf] = totals.get(leaf, 0) + count
        grand = sum(totals.values())
        if not grand:
            return {}
        ordered = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return {
            label: round(count / grand, 4) for label, count in ordered[:limit]
        }


# -- folded / speedscope exports --------------------------------------


def folded_lines(samples: Dict[str, int]) -> str:
    """Brendan-Gregg folded-stack text: ``stack count``, key-sorted."""
    lines = [f"{key} {int(samples[key])}" for key in sorted(samples) if samples[key]]
    return "\n".join(lines) + ("\n" if lines else "")


def span_folded(samples: Dict[str, int]) -> Dict[str, int]:
    """Collapse folded keys to their span-path prefix.

    The span-level view is worker-count-invariant by construction (the
    frame tail below a span can differ only in sampling noise); tests
    assert serial and pooled runs agree on exactly this key set.
    """
    collapsed: Dict[str, int] = {}
    for key, count in samples.items():
        span_parts = []
        for part in key.split(";"):
            if not part.startswith(SPAN_PREFIX):
                break
            span_parts.append(part)
        span_key = ";".join(span_parts)
        collapsed[span_key] = collapsed.get(span_key, 0) + count
    return {key: collapsed[key] for key in sorted(collapsed)}


def structural_span_keys(
    samples: Dict[str, int], min_share: float = 0.01
) -> "frozenset[str]":
    """The profile's span-level signature: span keys above ``min_share``.

    Spans shorter than a sampling interval appear in the folded output
    only when a tick happens to land inside them, so strict key-set
    equality between two profiles of the same workload is stochastic
    at the tail.  Everything above a share threshold is not: the
    worker-count-invariance contract (and the CI check that enforces
    it) is that serial and pooled runs of the same sweep agree on
    exactly this set.
    """
    total = sum(samples.values())
    if total <= 0:
        return frozenset()
    floor = max(1.0, min_share * total)
    return frozenset(
        key
        for key, count in span_folded(samples).items()
        if count >= floor
    )


def speedscope_document(
    samples: Dict[str, int], name: str = "repro deep profile"
) -> Dict[str, Any]:
    """A speedscope ``sampled`` profile of the aggregated stacks.

    Frame indices are assigned in first-appearance order over the
    sorted keys, so the document is a pure function of ``samples``.
    Weights are sample counts (``unit: none`` — the hz is in the
    profile name, wall attribution belongs to the span layer).
    """
    frames: List[Dict[str, str]] = []
    index: Dict[str, int] = {}
    stacks: List[List[int]] = []
    weights: List[int] = []
    for key in sorted(samples):
        if not samples[key]:
            continue
        stack_indices: List[int] = []
        for label in key.split(";"):
            if label not in index:
                index[label] = len(frames)
                frames.append({"name": label})
            stack_indices.append(index[label])
        stacks.append(stack_indices)
        weights.append(int(samples[key]))
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "activeProfileIndex": 0,
        "exporter": "repro.obs.deepprof",
        "name": name,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": stacks,
                "weights": weights,
            }
        ],
    }


def dump_speedscope(document: Dict[str, Any]) -> str:
    """Byte-deterministic speedscope JSON text."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# -- critical path -----------------------------------------------------


def critical_path(
    spans: Sequence[Union[SpanRecord, Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """The longest-child chain from the longest root, with self-time.

    Each row reports the span's total duration, its self-time
    (duration minus the sum of its children — where the time actually
    went at that level), its share of the root, and how many children
    it had.  Ties break toward record order, so the result is
    deterministic for identical inputs.
    """
    records = [
        span if isinstance(span, SpanRecord) else SpanRecord.from_dict(span)
        for span in spans
    ]
    if not records:
        return []
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in records:
        children.setdefault(record.parent, []).append(record)
    roots = children.get(None, [])
    if not roots:
        return []
    node: Optional[SpanRecord] = max(roots, key=lambda s: s.duration_s)
    total = node.duration_s
    rows: List[Dict[str, Any]] = []
    while node is not None:
        kids = children.get(node.index, [])
        child_total = sum(kid.duration_s for kid in kids)
        rows.append(
            {
                "name": node.name,
                "depth": node.depth,
                "duration_s": round(node.duration_s, 6),
                "self_s": round(max(0.0, node.duration_s - child_total), 6),
                "share": round(node.duration_s / total, 4) if total else 0.0,
                "children": len(kids),
            }
        )
        node = max(kids, key=lambda s: s.duration_s) if kids else None
    return rows


def render_critical_path(
    spans: Sequence[Union[SpanRecord, Dict[str, Any]]],
) -> str:
    """The "where did the time go" table over :func:`critical_path`."""
    from ..analysis.tables import render_table

    rows = critical_path(spans)
    if not rows:
        return "(no spans recorded)"
    body = [
        [
            "  " * row["depth"] + row["name"],
            f"{row['duration_s'] * 1e3:.1f}",
            f"{row['self_s'] * 1e3:.1f}",
            f"{row['share'] * 100:.1f}%",
            str(row["children"]),
        ]
        for row in rows
    ]
    return render_table(
        ["span", "total ms", "self ms", "of root", "children"], body
    )


# -- human-readable summaries -----------------------------------------


def render_top_frames(
    profiler: "DeepProfiler", limit: int = 10
) -> str:
    """Heaviest leaf frames by self samples, as a table."""
    from ..analysis.tables import render_table

    fractions = profiler.top_frames(limit=limit)
    if not fractions:
        return "(no stack samples collected)"
    body = [
        [label, f"{fraction * 100:.1f}%"]
        for label, fraction in fractions.items()
    ]
    return render_table(["frame (leaf)", "self samples"], body)


def render_memory(profiler: "DeepProfiler", limit: int = 10) -> str:
    """Per-span peaks and top allocation sites, as tables."""
    from ..analysis.tables import render_table

    state = profiler.state()
    memory = state.get("memory")
    if not memory:
        return "(memory telemetry disabled)"
    lines = [
        f"peak traced: {memory['peak_bytes'] / 1e6:.2f} MB"
        f" (current at stop: {memory['current_bytes'] / 1e6:.2f} MB)"
    ]
    span_peaks = memory.get("span_peak_bytes") or {}
    if span_peaks:
        ordered = sorted(span_peaks.items(), key=lambda kv: (-kv[1], kv[0]))
        body = [
            [key.replace(SPAN_PREFIX, ""), f"{peak / 1e6:.2f}"]
            for key, peak in ordered[:limit]
        ]
        lines.append(render_table(["span path", "peak MB"], body))
    sites = memory.get("top_allocations") or []
    if sites:
        body = [
            [entry["site"], f"{entry['size_bytes'] / 1e3:.1f}", str(entry["count"])]
            for entry in sites[:limit]
        ]
        lines.append(render_table(["allocation site", "KB", "blocks"], body))
    return "\n".join(lines)


# -- artifacts ---------------------------------------------------------


def profile_document(
    name: str,
    profiler: "DeepProfiler",
    spans: Sequence[Union[SpanRecord, Dict[str, Any]]] = (),
) -> Dict[str, Any]:
    """The ``DEEPPROF_<name>.json`` artifact: state + critical path."""
    document = profiler.state()
    document["kind"] = "deep_profile"
    document["name"] = name
    document["critical_path"] = critical_path(spans)
    return document


def write_artifacts(
    name: str,
    profiler: "DeepProfiler",
    out_dir: Union[str, pathlib.Path],
    spans: Sequence[Union[SpanRecord, Dict[str, Any]]] = (),
) -> Dict[str, pathlib.Path]:
    """Write the three deep-profile artifacts for one run.

    ``DEEPPROF_<name>.json`` (full document, dashboard input),
    ``<name>.folded`` (collapsed stacks for ``repro flame`` or any
    external flamegraph tool), and ``<name>.speedscope.json``.  All
    three are byte-deterministic given the profiler state.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    document = profile_document(name, profiler, spans)
    paths = {
        "document": out / f"DEEPPROF_{name}.json",
        "folded": out / f"{name}.folded",
        "speedscope": out / f"{name}.speedscope.json",
    }
    paths["document"].write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    paths["folded"].write_text(folded_lines(profiler.samples))
    paths["speedscope"].write_text(
        dump_speedscope(speedscope_document(profiler.samples, name=name))
    )
    return paths


# -- ambient profiler (parent process) --------------------------------

_PROFILER: Optional[DeepProfiler] = None


def get_profiler() -> Optional[DeepProfiler]:
    """The ambient deep profiler, if a ``--deep-profile`` run is active."""
    return _PROFILER


@contextlib.contextmanager
def using_profiler(profiler: DeepProfiler) -> Iterator[DeepProfiler]:
    """Install ``profiler`` as the ambient one for the duration."""
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    try:
        yield profiler
    finally:
        _PROFILER = previous


def ambient_config() -> Optional[Dict[str, Any]]:
    """The active profiler's worker config, or ``None``.

    The parallel backends pass this through the pool initializer so
    workers arm their own samplers exactly when the parent is deep
    profiling.
    """
    profiler = get_profiler()
    return profiler.config() if profiler is not None else None


def _clear_ambient_profiler() -> None:
    """Hard-reset hook: drop any fork-inherited ambient profiler."""
    global _PROFILER
    _PROFILER = None

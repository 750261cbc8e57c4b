"""Per-layer attribution: wrap each layer's public functions in place.

The traced run imports the program, then replaces every public entry
point listed in :data:`TARGETS` with a timing wrapper — in every
``repro.*`` module that binds the function, because callers such as
``repro.core.experiments`` bind ``max_weight_independent_set`` at import
time.  Nothing under ``src/`` changes; the wrappers live only in the
benchmark's processes.

Each wrapper records calls and *self* time: its wall time minus the
time spent in wrapped callees on the same thread.  Coroutines
(``Application.dispatch``) record wall time only, since other requests
run inside their awaits.  ``Dispatcher.submit`` is wrapped so that the
submitted callable records its queue wait and run time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: ``(module, attribute path, layer key)``.  An attribute path with a
#: dot names a method on a class.  A function is replaced wherever a
#: ``repro`` module binds the same object.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.gadgets.linear", "LinearConstruction.__init__", "gadgets.construct"),
    ("repro.gadgets.quadratic", "QuadraticConstruction.__init__", "gadgets.construct"),
    ("repro.gadgets.linear", "LinearConstruction.apply_inputs", "gadgets.instance"),
    ("repro.gadgets.quadratic", "QuadraticConstruction.apply_inputs", "gadgets.instance"),
    ("repro.gadgets.linear", "LinearMaxISFamily.build", "gadgets.instance"),
    ("repro.gadgets.quadratic", "QuadraticMaxISFamily.build", "gadgets.instance"),
    ("repro.codes.code_mapping", "code_mapping_for_parameters", "codes.mapping"),
    ("repro.codes.reed_solomon", "ReedSolomonCode.encode", "codes.mapping"),
    ("repro.commcc.inputs", "uniquely_intersecting_inputs", "commcc.inputs"),
    ("repro.commcc.inputs", "pairwise_disjoint_inputs", "commcc.inputs"),
    ("repro.maxis.kernel", "kernelize", "maxis.kernel"),
    ("repro.maxis.exact", "max_weight_independent_set", "maxis.search"),
    ("repro.framework.cut", "cut_size", "framework.cut"),
    ("repro.parallel.engine", "run_units", "parallel.run_units"),
    ("repro.parallel.jobs", "execute_unit", "parallel.execute"),
    ("repro.graphs.serialize", "graph_to_dict", "graphs.to_dict"),
    ("repro.graphs.serialize", "graph_from_dict", "graphs.from_dict"),
    ("repro.store.keys", "derive_key", "store.key"),
    ("repro.store.store", "ResultStore.get", "store.lookup"),
    ("repro.store.store", "ResultStore.put", "store.write"),
    ("repro.obs.reqtrace", "RequestTrace.finish", "obs.request_trace"),
    ("repro.obs.reqtrace", "TraceBuffer.admit", "obs.request_trace"),
    ("repro.serve.slo", "SLORegistry.observe", "obs.request_trace"),
]

#: Codec classes whose ``encode``/``decode`` are timed as the codec layer.
CODEC_MODULE = "repro.store.codecs"

class LayerClock:
    """Thread-safe call counts, self times and extra counters per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.wall_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call adds to ``layer``'s calls and self time."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self.record(layer, elapsed, elapsed)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.record(layer, elapsed - children, elapsed)

        return wrapper

    def record(self, layer: str, self_s: float, wall_s: float) -> None:
        with self._lock:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
            self.wall_s[layer] = self.wall_s.get(layer, 0.0) + wall_s

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every accumulator."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "wall_s": dict(self.wall_s),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def subtract(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """The accumulation between two snapshots of one clock."""
    out: Dict[str, Any] = {}
    for field in ("calls", "self_s", "wall_s", "counts"):
        out[field] = {
            key: value - before[field].get(key, 0)
            for key, value in after[field].items()
        }
    out["samples"] = {
        key: values[len(before["samples"].get(key, [])):]
        for key, values in after["samples"].items()
    }
    return out


def _rebind(original: Any, replacement: Any) -> None:
    """Replace ``original`` in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_stats_solver(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Count search nodes and prunes through the solver's ``stats=`` argument."""
    from repro.maxis import BranchAndBoundStats

    @functools.wraps(fn)
    def solver(graph: Any, stats: Any = None, kernel: Any = None) -> Any:
        own = stats if stats is not None else BranchAndBoundStats()
        expanded, prunes = own.nodes_expanded, own.bound_prunes
        result = fn(graph, stats=own, kernel=kernel)
        clock.count("maxis.nodes_expanded", own.nodes_expanded - expanded)
        clock.count("maxis.bound_prunes", own.bound_prunes - prunes)
        return result

    return solver


def _wrap_kernelize(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Record the kernel's node counts: removed nodes are its useful work."""

    @functools.wraps(fn)
    def kernelize(graph: Any) -> Any:
        kern = fn(graph)
        clock.count("maxis.kernel_initial_nodes", kern.stats.initial_nodes)
        clock.count("maxis.kernel_removed_nodes", kern.stats.removed_nodes)
        return kern

    return kernelize


def _wrap_lookup(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Count lookups that return a value (hits) next to all lookups."""
    from repro.store import MISS

    @functools.wraps(fn)
    def get(self: Any, key: str) -> Any:
        value = fn(self, key)
        if value is not MISS:
            clock.count("store.hits")
        return value

    return get


def _wrap_submit(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Time the dispatcher queue: submit-to-start gap, run time, sheds."""
    from repro.serve import Backpressure

    @functools.wraps(fn)
    def submit(self: Any, work: Callable[[], Any]) -> Any:
        submitted = time.perf_counter()

        def timed_work() -> Any:
            started = time.perf_counter()
            clock.sample("serve.queue_wait_s", started - submitted)
            try:
                return work()
            finally:
                clock.count("serve.dispatch_busy_s", time.perf_counter() - started)

        try:
            return fn(self, timed_work)
        except Backpressure:
            clock.count("serve.shed")
            raise

    return submit


def install(clock: LayerClock) -> None:
    """Wrap every target in place."""
    import repro.cli  # noqa: F401  (binds the command modules)
    import repro.serve  # noqa: F401

    for module_name in {target[0] for target in TARGETS} | {CODEC_MODULE}:
        importlib.import_module(module_name)
    for module_name, path, layer in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            if path == "ResultStore.get":
                original = _wrap_lookup(clock, original)
            setattr(owner, attr, clock.timed(layer, original))
            continue
        original = getattr(module, attr)
        inner = original
        if path == "max_weight_independent_set":
            inner = _wrap_stats_solver(clock, original)
        elif path == "kernelize":
            inner = _wrap_kernelize(clock, original)
        _rebind(original, clock.timed(layer, inner))
    codecs = sys.modules[CODEC_MODULE]
    for value in list(vars(codecs).values()):
        if isinstance(value, type) and issubclass(value, codecs.Codec):
            for method, layer in (("encode", "store.codec_encode"), ("decode", "store.codec_decode")):
                if method in vars(value):
                    setattr(value, method, clock.timed(layer, vars(value)[method]))
    from repro.serve import Application, Dispatcher

    Dispatcher.submit = _wrap_submit(clock, vars(Dispatcher)["submit"])
    Application.dispatch = clock.timed("serve.handler", vars(Application)["dispatch"])

"""Single-flight execution: concurrent callers of one key share one run.

A service front-end (``repro serve``) turns the store's content
addresses into request keys, and identical requests arrive together —
the classic cache-stampede shape.  :class:`SingleFlight` collapses the
stampede at the compute layer: the first caller of a key becomes the
*leader* and runs the computation; every concurrent caller of the same
key becomes a *follower* that blocks on the leader's outcome instead of
recomputing.  Followers surface as the ``cache.coalesced`` counter in
:mod:`repro.obs`.

The map holds only in-flight keys: the moment the leader finishes
(successfully or not) the entry is dropped, so completed keys cost no
memory and a failed computation is retried by the next caller rather
than poisoning the key forever.  Exceptions propagate to the leader
*and* every follower — a follower must not silently receive ``None``
for a computation that actually failed.

Thread-safe by construction: the in-flight map is guarded by one lock,
and followers wait on a per-entry :class:`threading.Event`.  The
asyncio front-end keeps its own loop-confined future map
(:mod:`repro.serve.app`); this class is the cross-thread tier that the
:class:`~repro.store.store.ResultStore` itself mounts so *any*
concurrent caller of ``get_or_compute`` — dispatcher threads, pool
write-backs, library users — shares one computation per key.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

from .. import obs
from ..obs.reqtrace import current_trace

_obs = obs.get_recorder()


class _Call:
    """One in-flight computation: its completion event and outcome.

    ``leader_trace`` remembers the leader's request-trace identity
    (``(trace_id, span_id)``) when the leader ran inside a traced
    request, so followers can *link* their traces to the computation
    that actually served them.
    """

    __slots__ = ("done", "value", "error", "leader_trace")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.leader_trace: Optional[Tuple[str, str]] = None


class SingleFlight:
    """A thread-safe in-flight map of key -> one shared computation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Call] = {}

    def in_flight(self) -> int:
        """How many keys are currently being computed."""
        with self._lock:
            return len(self._inflight)

    def do(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """Run ``fn`` once per concurrent ``key``; return ``(value, led)``.

        ``led`` is ``True`` for the caller that actually executed ``fn``
        and ``False`` for coalesced followers.  The leader's exception
        (if any) is re-raised in every caller.
        """
        trace = current_trace()
        with self._lock:
            call = self._inflight.get(key)
            if call is None:
                call = _Call()
                if trace is not None:
                    call.leader_trace = (trace.trace_id, trace.root_span_id)
                self._inflight[key] = call
                leader = True
            else:
                leader = False
        if not leader:
            _obs.incr("cache.coalesced")
            if trace is not None:
                with trace.span("store.coalesced_wait", key=key) as span:
                    if call.leader_trace is not None:
                        leader_trace_id, leader_span_id = call.leader_trace
                        trace.link(
                            leader_trace_id, leader_span_id, "coalesced_with"
                        )
                        span.params["leader_trace_id"] = leader_trace_id
                    call.done.wait()
            else:
                call.done.wait()
            if call.error is not None:
                raise call.error
            return call.value, False
        try:
            call.value = fn()
        except BaseException as error:
            call.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            call.done.set()
        return call.value, True

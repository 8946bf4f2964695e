"""Harness-side tracing: in-memory spans around calls into each layer.

Nothing under ``src/`` is edited.  A :class:`Tracer` keeps spans in
memory — name, start, end, parent span, repetition id — and
:func:`layer_proxies` temporarily replaces public methods of the layer
classes with timing proxies that open a span around the real call.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of a tree sum to the duration of its root.
Aggregates (calls, total, self per span name) are kept per repetition
and are exact; the span list itself is capped so a traced run over a
million ``try_schedule`` calls neither exhausts memory nor spends its
time writing JSON.

Spans may be opened from several threads: the in-process service
executes request handlers on worker threads while the client awaits on
the event-loop thread.  Each thread has its own span stack; a span
opened with ``request=True`` (the client side of one HTTP request)
adopts the root spans worker threads open while it is in flight — the
load is closed-loop with one client, so at most one request is open.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: spans kept for the trace file; aggregates are unaffected by the cap
SPAN_CAP = 50_000


class _ThreadState:
    """One thread's open-span stack and per-repetition aggregates."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: name -> every duration, for the names the tracer samples
        self.samples: Dict[str, List[float]] = {}


#: spans whose individual durations are kept, so the harness can report
#: their median and not only their sum
SAMPLED_SPANS = frozenset(
    {
        "service.session.submit",
        "service.session.advance",
        "service.session.what_if",
        "service.session.snapshot",
        "service.store.save",
        "cluster.simulator.fork",
    }
)


class Tracer:
    """Records spans and per-name aggregates for one traced run."""

    def __init__(self) -> None:
        #: stored spans: [name, start, end, parent_index, rep]
        self.spans: List[list] = []
        self.rep = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: the open client-side request frame worker-thread roots attach to
        self._request_frame: Optional[list] = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str, request: bool = False) -> list:
        """Open a span; returns the frame to hand back to :meth:`end`."""
        state = self._state()
        parent = state.stack[-1] if state.stack else self._request_frame
        index = -1
        if len(self.spans) < SPAN_CAP:
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent[3] if parent else -1, self.rep])
        # frame: name, start, child time, stored index, parent frame, state
        frame = [name, 0.0, 0.0, index, parent, state]
        state.stack.append(frame)
        if request:
            self._request_frame = frame
        frame[1] = perf_counter()
        return frame

    def end(self, frame: list) -> float:
        """Close ``frame``; returns the span's duration in seconds."""
        end = perf_counter()
        name, start, child, index, parent, state = frame
        duration = end - start
        state.stack.pop()
        if self._request_frame is frame:
            self._request_frame = None
        if parent is not None:
            parent[2] += duration
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name in SAMPLED_SPANS:
            state.samples.setdefault(name, []).append(duration)
        if index >= 0:
            span = self.spans[index]
            span[1] = start
            span[2] = end
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0.0) + value

    # ------------------------------------------------------------------
    # Per-repetition aggregates
    # ------------------------------------------------------------------
    def start_rep(self, rep: int) -> None:
        """Reset the aggregates; spans opened from now on carry ``rep``."""
        self.rep = rep
        with self._lock:
            for state in self._states:
                state.agg = {}
                state.counts = {}
                state.samples = {}

    def finish_rep(self) -> "RepTrace":
        """The aggregates of every thread since :meth:`start_rep`."""
        agg: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        samples: Dict[str, List[float]] = {}
        with self._lock:
            for state in self._states:
                for name, durations in state.samples.items():
                    samples.setdefault(name, []).extend(durations)
                for name, (calls, total, self_s) in state.agg.items():
                    entry = agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += self_s
                for name, value in state.counts.items():
                    counts[name] = counts.get(name, 0.0) + value
        return RepTrace(agg, counts, samples)

    def export(self) -> Dict[str, object]:
        """The stored spans in the trace-file layout."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "rep"],
            "span_cap": SPAN_CAP,
            "truncated": len(self.spans) >= SPAN_CAP,
            "spans": self.spans,
        }


class RepTrace:
    """Aggregates of one traced repetition."""

    def __init__(
        self,
        agg: Dict[str, List[float]],
        counts: Dict[str, float],
        samples: Dict[str, List[float]],
    ) -> None:
        self.agg = agg
        self.counts = counts
        self.samples = samples

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)


def span_self_times(spans: List[list]) -> List[float]:
    """Self time of every stored span (duration minus covered children)."""
    self_times = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            self_times[parent] -= span[2] - span[1]
    return self_times


# ----------------------------------------------------------------------
# Timing proxies over the layers' public methods
# ----------------------------------------------------------------------
def _proxy(tracer: Tracer, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
    # functools.wraps keeps the wrapped signature visible to
    # inspect.signature: ClusterSimulator._accepts_ctx sniffs
    # try_schedule for its ``ctx`` parameter, and a proxy that hid it
    # would silently drop the run to the slow no-context path.
    @functools.wraps(fn)
    def proxy(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return proxy


def _count_pts(tracer: Tracer, decision) -> None:
    if decision is not None:
        tracer.count("core.pts.placed")
        if decision.preempted_task_ids:
            tracer.count("core.pts.preempting")
            tracer.count("core.pts.victims", len(decision.preempted_task_ids))


def _count_admit(tracer: Tracer, admitted: bool) -> None:
    if admitted:
        tracer.count("core.sqa.admitted")


def _count_chronus(tracer: Tracer, decision) -> None:
    if decision is not None:
        tracer.count("schedulers.chronus.placed")


def _count_trace_tasks(tracer: Tracer, trace) -> None:
    tracer.count("workloads.tasks", len(trace.tasks))


def _proxy_table() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, result counter) for every proxied call."""
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.gde import GPUDemandEstimator
    from repro.core.gfs import GFSScheduler
    from repro.core.pts import PreemptiveTaskScheduler
    from repro.core.sqa import SpotQuotaAllocator
    from repro.experiments import engine
    from repro.experiments.artifacts import ArtifactCache
    from repro.runtime.journal import SweepJournal
    from repro.schedulers.chronus import ChronusScheduler
    from repro.service.session import SimulationSession
    from repro.service.store import SessionStore
    from repro.workloads.scenarios import Scenario

    return [
        (GPUDemandEstimator, "peak_demand", "core.gde.forecast", None),
        (GPUDemandEstimator, "observe", "core.gde.observe", None),
        (GPUDemandEstimator, "fit", "core.gde.fit", None),
        (SpotQuotaAllocator, "compute_quota", "core.sqa.compute_quota", None),
        (SpotQuotaAllocator, "admits", "core.sqa.admits", _count_admit),
        (PreemptiveTaskScheduler, "schedule", "core.pts.schedule", _count_pts),
        (PreemptiveTaskScheduler, "sort_queue", "core.pts.sort_queue", None),
        (GFSScheduler, "on_simulation_start", "core.gfs.on_simulation_start", None),
        (GFSScheduler, "on_tick", "core.gfs.on_tick", None),
        (GFSScheduler, "try_schedule", "core.gfs.try_schedule", None),
        (ChronusScheduler, "try_schedule", "schedulers.chronus.try_schedule", _count_chronus),
        (ChronusScheduler, "sort_queue", "schedulers.chronus.sort_queue", None),
        (ClusterSimulator, "fork", "cluster.simulator.fork", None),
        (Scenario, "build_trace", "workloads.generate_trace", _count_trace_tasks),
        (engine, "execute_job", "experiments.engine.execute_job", None),
        (ArtifactCache, "store", "experiments.artifacts.store", None),
        (ArtifactCache, "load", "experiments.artifacts.load", None),
        (SweepJournal, "record_done", "runtime.journal.record_done", None),
        (SweepJournal, "replay", "runtime.journal.replay", None),
        (SimulationSession, "submit", "service.session.submit", None),
        (SimulationSession, "advance", "service.session.advance", None),
        (SimulationSession, "what_if", "service.session.what_if", None),
        (SimulationSession, "snapshot_bytes", "service.session.snapshot", None),
        (SessionStore, "save", "service.store.save", None),
    ]


_MISSING = object()


@contextmanager
def layer_proxies(tracer: Tracer) -> Iterator[None]:
    """Install the timing proxies for the duration of the ``with`` block.

    Proxies go on the classes (and on the engine module for
    ``execute_job``), not on instances: the service pickles and
    deep-copies live schedulers after every request, which an instance
    attribute holding a closure would break.  Every attribute is put
    back on exit, inherited ones by deleting the override.
    """
    installed: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, on_result in _proxy_table():
            original = vars(owner).get(attr, _MISSING)
            setattr(owner, attr, _proxy(tracer, name, getattr(owner, attr), on_result))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

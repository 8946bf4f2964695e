"""Instrumentation core: counters, gauges, histograms, spans and channels.

The recorder is the single sink for everything the simulator, the
placement engine, the experiment engine and the service want to measure.
Two design rules keep it safe to thread through the hot path:

**Zero overhead when disabled.**  Every instrumented call site is gated
on ``recorder.enabled`` — one attribute read on the shared
:data:`NULL_RECORDER` singleton, whose methods are all no-ops.  Nothing
is allocated, formatted or timed unless a real :class:`Recorder` was
attached explicitly.

**Sim-time and wall-clock never mix.**  Deterministic simulation data
(one ``pass`` or ``tick`` record of ``(event, fields)`` per scheduling
pass or quota tick — pure functions of the seed) is the *sim channel*:
it feeds the ``sim.*`` counters and gauges and is pushed to the
recorder's ``sim_listener`` (the service's event stream, or the
:class:`SimEventLog` the Chrome-trace exporter serialises); wall-clock
data (dispatch timings, pass durations) lives in wall histograms and
only ever feeds the self-profiler and Prometheus output.  Exported
traces of two runs of the same seed are therefore byte-identical even
though their wall timings differ.

The recorder deliberately never *reads* simulation state — hook points
push values in — so attaching one cannot perturb a run: the parity suite
(``tests/test_obs_parity.py``) asserts instrumented runs produce
bit-identical :class:`~repro.cluster.metrics.SimulationMetrics`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Histogram bucket upper bounds in seconds (log scale, µs to 10 s); the
#: implicit final bucket is +Inf.  Chosen for event-dispatch and
#: scheduling-pass durations, which span ~1 µs to seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Label pairs hashed into metric keys: ``(("kind", "TASK_ARRIVAL"),)``.
LabelPairs = Tuple[Tuple[str, str], ...]


def label_pairs(labels: Optional[Dict[str, str]]) -> LabelPairs:
    """Canonical (sorted, hashable) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """A fixed-bucket histogram plus count/sum/min/max running stats."""

    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
        }


@dataclass
class EventLoopCounters:
    """Per-kind counts of *outstanding* heaped events.

    This is the single source of truth behind the simulator's O(1)
    liveness checks (``done``, tick revival, trailing-dynamics
    abandonment).
    """

    task_events: int = 0
    dynamics_events: int = 0
    tick_events: int = 0

    def count(self, is_tick: bool, is_dynamics: bool, delta: int) -> None:
        if is_tick:
            self.tick_events += delta
        elif is_dynamics:
            self.dynamics_events += delta
        else:
            self.task_events += delta


class _NullSpan:
    """Context manager that does nothing (span of a disabled recorder)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Shared as :data:`NULL_RECORDER` and attached to every simulator by
    default, so the hot path's instrumentation gates reduce to a single
    ``.enabled`` attribute read.  All mutating methods exist (same
    surface as :class:`Recorder`) so un-gated call sites still work.
    """

    enabled = False

    def count(self, name: str, value: float = 1.0, labels: Optional[Dict[str, str]] = None) -> None:
        pass

    def gauge(self, name: str, value: float, labels: Optional[Dict[str, str]] = None) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_dispatch(self, kind_name: str, seconds: float) -> None:
        pass

    def record_pass(self, fields: Dict[str, object], wall_seconds: float) -> None:
        pass

    def sample_tick(self, fields: Dict[str, object]) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False}

    def __reduce__(self):
        # Pickle back to the shared singleton so snapshots of
        # uninstrumented simulators stay tiny and restore to the default.
        return (_null_recorder, ())


def _null_recorder() -> "NullRecorder":
    return NULL_RECORDER


#: The process-wide disabled recorder (default for every simulator).
NULL_RECORDER = NullRecorder()


class _Span:
    """Wall-clock span feeding one histogram of its recorder."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.observe(self._name, time.perf_counter() - self._start)


class Recorder:
    """The live instrumentation sink (see module docstring).

    Example
    -------
    >>> rec = Recorder()
    >>> metrics = run_simulation(cluster, scheduler, tasks, recorder=rec)
    >>> rec.counters[("sim.events", (("kind", "TASK_ARRIVAL"),))]
    1036.0
    >>> with rec.span("my.phase"):
    ...     do_work()

    ``sim_listener`` is an optional observer of the sim channel: when
    set, its ``emit(event, fields)`` is called with each ``pass`` and
    ``tick`` record as it lands.  The recorder itself keeps no record,
    only the aggregates.  This is how the service's event stream taps
    the sim channel without reading any simulator state — the listener
    receives exactly the pushed values, so attaching one cannot perturb
    a run; :class:`SimEventLog` is the listener that keeps them all.
    """

    enabled = True

    def __init__(self):
        #: (name, label pairs) -> running total
        self.counters: Dict[Tuple[str, LabelPairs], float] = {}
        #: (name, label pairs) -> last value
        self.gauges: Dict[Tuple[str, LabelPairs], float] = {}
        #: name -> wall-clock histogram
        self.histograms: Dict[str, Histogram] = {}
        #: optional sim-channel observer (``emit(event, fields)``)
        self.sim_listener: Optional[object] = None

    # ------------------------------------------------------------------
    # Primitive instruments
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, labels: Optional[Dict[str, str]] = None) -> None:
        key = (name, label_pairs(labels))
        self.counters[key] = self.counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, labels: Optional[Dict[str, str]] = None) -> None:
        self.gauges[(name, label_pairs(labels))] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def span(self, name: str) -> _Span:
        """Context manager timing a wall-clock phase into a histogram."""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Simulator hook points
    # ------------------------------------------------------------------
    def record_dispatch(self, kind_name: str, seconds: float) -> None:
        """One event popped and handled by the simulator loop."""
        self.count("sim.events", 1.0, {"kind": kind_name})
        self.observe(f"sim.dispatch_s.{kind_name}", seconds)

    def record_pass(self, fields: Dict[str, object], wall_seconds: float) -> None:
        """One scheduling pass: ``pass`` counters + wall-clock histogram."""
        self.count("sim.passes")
        for name in ("examined", "scheduled", "memo_hits", "index_rejects", "searches"):
            self.count(f"sim.pass.{name}", fields[name])
        self.observe("sim.pass_wall_s", wall_seconds)
        if self.sim_listener is not None:
            self.sim_listener.emit("pass", fields)

    def sample_tick(self, fields: Dict[str, object]) -> None:
        """Gauges sampled at a quota tick from its ``tick`` record."""
        self.gauge("sim.pending_depth", fields["pending"])
        self.gauge("sim.running_tasks", fields["running"])
        self.gauge("sim.allocation_rate", fields["alloc"])
        if self.sim_listener is not None:
            self.sim_listener.emit("tick", fields)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_value(self, name: str, labels: Optional[Dict[str, str]] = None) -> float:
        return self.counters.get((name, label_pairs(labels)), 0.0)

    def snapshot(self) -> Dict[str, object]:
        """JSON-able view of every instrument (live-stats endpoints)."""

        def render_key(key: Tuple[str, LabelPairs]) -> str:
            name, pairs = key
            if not pairs:
                return name
            inner = ",".join(f"{k}={v}" for k, v in pairs)
            return f"{name}{{{inner}}}"

        return {
            "enabled": True,
            "counters": {render_key(k): v for k, v in sorted(self.counters.items())},
            "gauges": {render_key(k): v for k, v in sorted(self.gauges.items())},
            "histograms": {
                name: hist.as_dict() for name, hist in sorted(self.histograms.items())
            },
        }


class SimEventLog(list):
    """The plain sim-channel listener: every ``(event, fields)`` record, in order."""

    def emit(self, event: str, fields: Dict[str, object]) -> None:
        self.append((event, fields))

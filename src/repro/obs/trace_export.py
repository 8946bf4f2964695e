"""Chrome-trace / Perfetto JSON export of simulation runs.

Serialises a finished (or mid-flight) simulation into the Chrome
trace-event format — loadable in ``chrome://tracing``, Perfetto UI or
``speedscope`` — with two process tracks:

* **pid 1 "tasks"** — one thread per task, carrying its full lifecycle:
  ``queue`` and ``run`` complete events (phase ``"X"``) and ``finish`` /
  ``evict`` / ``kill`` instants (phase ``"i"``).
* **pid 2 "scheduler"** — one instant per ``pass`` record of the sim
  channel (trigger, tasks examined/scheduled, memo hits, index rejects,
  searches), plus ``"C"`` counter events (pending depth, running tasks,
  allocation rate) from its ``tick`` records.

Timestamps are **simulated** microseconds, never wall clock, so the
export is a pure function of the run: two runs of the same seed produce
byte-identical JSON (``tests/test_trace_export.py`` pins this and the
schema).  Wall-clock data stays in the recorder's histograms and is the
self-profiler's business (:mod:`repro.obs.profiler`).

Typical use::

    rec = Recorder()
    rec.sim_listener = events = SimEventLog()
    sim = ClusterSimulator(cluster, scheduler, recorder=rec)
    sim.submit_all(tasks); sim.run()
    write_chrome_trace("trace.json", sim.all_tasks, sim_events=events)

or from the command line: ``python -m repro.experiments.cli trace-viz
--scenario node_churn --trace-out trace.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the sim channel's records, as a :class:`~repro.obs.recorder.SimEventLog` keeps them
SimEvents = Sequence[Tuple[str, Dict[str, object]]]

#: pid of the task-lifecycle track.
TASKS_PID = 1
#: pid of the scheduler track (passes + counters).
SCHEDULER_PID = 2

#: Scale from simulated seconds to trace-event microseconds.
_US = 1_000_000.0


#: trace arg name of each sim-channel field the trace renames
_ARG_NAMES = {"pending": "pending_depth", "running": "running_tasks", "alloc": "allocation_rate"}


def _us(sim_seconds: float) -> int:
    """Simulated seconds -> integer trace microseconds (deterministic)."""
    return int(round(sim_seconds * _US))


def _meta(pid: int, name: str, tid: int = 0) -> Dict[str, object]:
    kind = "process_name" if tid == 0 else "thread_name"
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}}


def _complete(pid: int, tid: int, name: str, start: float, end: float, args: Dict) -> Dict[str, object]:
    ts = _us(start)
    return {
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "name": name,
        "cat": "task",
        "ts": ts,
        "dur": max(0, _us(end) - ts),
        "args": args,
    }


def _instant(pid: int, tid: int, name: str, when: float, args: Dict, cat: str) -> Dict[str, object]:
    return {
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": tid,
        "name": name,
        "cat": cat,
        "ts": _us(when),
        "args": args,
    }


def task_lifecycle_events(tasks: Sequence, final_time: Optional[float] = None) -> List[Dict[str, object]]:
    """Trace events for every task's arrival→queue→run→outcome lifecycle.

    Tasks map to threads of ``pid 1`` in deterministic ``task_id`` order.
    Open-ended segments (a task still queued or running when the export
    happens) are clamped to ``final_time`` when given, else dropped.
    """
    events: List[Dict[str, object]] = []
    ordered = sorted(tasks, key=lambda t: t.task_id)
    for tid, task in enumerate(ordered, start=1):
        track: List[Dict[str, object]] = []
        base = {
            "task_id": task.task_id,
            "type": "HP" if task.is_hp else "SPOT",
            "pods": task.num_pods,
            "gpus_per_pod": task.gpus_per_pod,
            "org": task.org,
        }
        queue_from: Optional[float] = task.submit_time
        for attempt, run in enumerate(task.run_logs):
            if queue_from is not None:
                track.append(
                    _complete(TASKS_PID, tid, "queue", queue_from, run.start, dict(base))
                )
                queue_from = None
            end = run.end if run.end is not None else final_time
            if end is None:
                continue
            run_args = dict(base)
            run_args.update({"attempt": attempt, "overhead_s": run.overhead})
            track.append(_complete(TASKS_PID, tid, "run", run.start, end, run_args))
            if run.killed:
                track.append(_instant(TASKS_PID, tid, "kill", end, dict(base), "lifecycle"))
                queue_from = end
            elif run.evicted:
                track.append(_instant(TASKS_PID, tid, "evict", end, dict(base), "lifecycle"))
                queue_from = end
            elif run.end is not None and task.finish_time is not None and run is task.run_logs[-1]:
                track.append(_instant(TASKS_PID, tid, "finish", end, dict(base), "lifecycle"))
        if queue_from is not None and final_time is not None and final_time > queue_from:
            # Still waiting when the export happened.
            track.append(_complete(TASKS_PID, tid, "queue", queue_from, final_time, dict(base)))
        # Chrome renders any order, but a monotonic track is easier to
        # assert on and to diff: metadata first, then by timestamp (a
        # kill can land *before* a delayed run start it cancelled, so
        # emission order alone is not sorted), instants after spans.
        track.sort(key=lambda e: (e["ts"], 0 if e["ph"] == "X" else 1))
        events.append(_meta(TASKS_PID, task.task_id, tid=tid))
        events.extend(track)
    return events


def scheduler_events(sim_events: SimEvents) -> List[Dict[str, object]]:
    """Trace events for the scheduler track: every pass, then every tick."""
    events: List[Dict[str, object]] = [
        _meta(SCHEDULER_PID, "scheduler"),
        _meta(SCHEDULER_PID, "scheduling passes", tid=1),
    ]
    for event, fields in sim_events:
        if event == "pass":
            args = {_ARG_NAMES.get(key, key): value for key, value in fields.items() if key != "t"}
            name = f"pass:{fields['trigger']}"
            events.append(_instant(SCHEDULER_PID, 1, name, fields["t"], args, "scheduler"))
    for event, fields in sim_events:
        if event == "tick":
            ts = _us(fields["t"])
            for key in ("pending", "running", "alloc"):
                name = _ARG_NAMES[key]
                args = {name: fields[key]}
                events.append({"ph": "C", "pid": SCHEDULER_PID, "tid": 0, "name": name, "ts": ts,
                               "args": args})
    return events


def build_chrome_trace(
    tasks: Optional[Iterable] = None,
    sim_events: Optional[SimEvents] = None,
    final_time: Optional[float] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the complete trace document (JSON object format).

    ``tasks`` yields the task-lifecycle track, ``sim_events`` (the sim
    channel's ``(event, fields)`` records) the scheduler track; either
    may be omitted.  ``metadata`` lands in the
    Chrome ``otherData`` field (scenario name, scheduler, seed, ...).
    """
    events: List[Dict[str, object]] = []
    if tasks is not None:
        events.extend(task_lifecycle_events(list(tasks), final_time=final_time))
    if sim_events is not None:
        events.extend(scheduler_events(sim_events))
    trace: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    return trace


def trace_to_json(trace: Dict[str, object]) -> str:
    """Deterministic serialisation (sorted keys, fixed separators)."""
    return json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_trace(
    path,
    tasks: Optional[Iterable] = None,
    sim_events: Optional[SimEvents] = None,
    final_time: Optional[float] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Build and write a trace; returns the written path."""
    trace = build_chrome_trace(
        tasks=tasks, sim_events=sim_events, final_time=final_time, metadata=metadata
    )
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(trace_to_json(trace))
    return out

"""Chrome trace-event export: schema validity and byte-determinism.

Validates the Perfetto/``chrome://tracing`` JSON produced by
:mod:`repro.obs.trace_export` against the trace-event contract — every
event carries ``ph``/``pid``/``tid``/``name``, phases are drawn from the
set the viewers accept, complete events have non-negative integer
``dur``, instants carry a scope — on a *chaos* run (node_churn) so the
export demonstrably covers evictions and kills, not just the happy
arrival→run→finish path.  Because timestamps are simulated microseconds,
two runs of the same seed must serialise to byte-identical JSON.
"""

from __future__ import annotations

import json

import pytest

from tests.test_stepping_determinism import build_sim
from repro.obs import Recorder, SimEventLog
from repro.obs.trace_export import (
    SCHEDULER_PID,
    TASKS_PID,
    build_chrome_trace,
    task_lifecycle_events,
    trace_to_json,
    write_chrome_trace,
)

#: phases this exporter may legally emit (subset of the Chrome spec)
ALLOWED_PHASES = {"M", "X", "i", "C"}


def _chaos_trace():
    """One instrumented node_churn run serialised to a trace document."""
    rec = Recorder()
    rec.sim_listener = events = SimEventLog()
    sim = build_sim("gfs", "node_churn")
    sim.obs = rec
    sim.run()
    return build_chrome_trace(
        tasks=sim.all_tasks,
        sim_events=events,
        final_time=sim.now,
        metadata={"scenario": "node_churn", "scheduler": "gfs"},
    )


@pytest.fixture(scope="module")
def chaos_trace():
    return _chaos_trace()


def test_trace_document_shape(chaos_trace):
    assert set(chaos_trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert chaos_trace["displayTimeUnit"] == "ms"
    assert chaos_trace["otherData"]["scenario"] == "node_churn"
    assert chaos_trace["traceEvents"]


def test_every_event_satisfies_chrome_schema(chaos_trace):
    for event in chaos_trace["traceEvents"]:
        assert event["ph"] in ALLOWED_PHASES, event
        assert isinstance(event["pid"], int) and event["pid"] in (TASKS_PID, SCHEDULER_PID)
        assert isinstance(event["tid"], int) and event["tid"] >= 0
        assert isinstance(event["name"], str) and event["name"]
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
            continue
        assert isinstance(event["ts"], int) and event["ts"] >= 0, event
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 0, event
        if event["ph"] == "i":
            assert event["s"] == "t", event
        json.dumps(event)  # every event must be JSON-clean on its own


def test_timestamps_monotonic_within_each_track(chaos_trace):
    tracks = {}
    for event in chaos_trace["traceEvents"]:
        if event["ph"] in ("X", "i"):
            tracks.setdefault((event["pid"], event["tid"]), []).append(event["ts"])
    assert tracks
    for key, stamps in tracks.items():
        assert stamps == sorted(stamps), f"non-monotonic track {key}"


def test_chaos_run_exports_evictions_and_kills(chaos_trace):
    names = [e["name"] for e in chaos_trace["traceEvents"] if e["ph"] == "i"]
    assert "finish" in names
    # node_churn exists to produce disruption; the export must show it.
    assert "evict" in names or "kill" in names, sorted(set(names))
    assert any(n.startswith("pass:") for n in names)


def test_task_lifecycle_segments_tile_each_task(chaos_trace):
    """Per task thread: queue and run spans alternate without overlap."""
    by_tid = {}
    for event in chaos_trace["traceEvents"]:
        if event["pid"] == TASKS_PID and event["ph"] == "X":
            by_tid.setdefault(event["tid"], []).append(event)
    assert by_tid
    for spans in by_tid.values():
        cursor = None
        for span in spans:  # already ts-sorted within the track
            if cursor is not None:
                assert span["ts"] >= cursor, span
            cursor = span["ts"] + span["dur"]
            assert span["name"] in ("queue", "run")


def test_scheduler_track_counters_and_pass_args(chaos_trace):
    counters = [e for e in chaos_trace["traceEvents"] if e["ph"] == "C"]
    assert counters and all(e["pid"] == SCHEDULER_PID for e in counters)
    assert {e["name"] for e in counters} == {
        "pending_depth", "running_tasks", "allocation_rate",
    }
    passes = [
        e for e in chaos_trace["traceEvents"]
        if e["ph"] == "i" and e["name"].startswith("pass:")
    ]
    assert passes
    for event in passes:
        assert set(event["args"]) == {
            "trigger", "examined", "scheduled", "memo_hits",
            "index_rejects", "searches", "pending_depth",
        }


def test_export_is_byte_deterministic(chaos_trace):
    assert trace_to_json(chaos_trace) == trace_to_json(_chaos_trace())


def test_open_segments_clamp_to_final_time():
    """Export mid-run: still-queued/running tasks end at final_time."""
    rec = Recorder()
    sim = build_sim("gfs")
    sim.obs = rec
    sim.advance(until=3600.0)
    events = task_lifecycle_events(sim.all_tasks, final_time=sim.now)
    horizon = int(round(sim.now * 1e6))
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    for span in spans:
        assert span["ts"] + span["dur"] <= horizon


def test_write_chrome_trace_round_trips(tmp_path):
    rec = Recorder()
    rec.sim_listener = events = SimEventLog()
    sim = build_sim("chronus")
    sim.obs = rec
    sim.run()
    out = write_chrome_trace(
        tmp_path / "trace.json", tasks=sim.all_tasks, sim_events=events, final_time=sim.now
    )
    loaded = json.loads(out.read_text())
    assert loaded["traceEvents"]
    assert {e["ph"] for e in loaded["traceEvents"]} <= ALLOWED_PHASES

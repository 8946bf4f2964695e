"""Unit tests for the observability core (recorder + Prometheus text).

Covers the instrument primitives (counters, gauges, histograms, spans),
the :data:`NULL_RECORDER` zero-overhead contract (no-op surface, pickles
back to the singleton), the simulator's event counters and pickle
semantics, and the Prometheus exposition renderer round-tripping
through the minimal parser that the smoke scrape uses.
"""

from __future__ import annotations

import math
import pickle

import pytest

from tests.test_stepping_determinism import build_sim
from repro.obs import (
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    SimEventLog,
    parse_prometheus_text,
    render_recorder,
)
from repro.experiments.engine import job_profile_summary
from repro.obs.profiler import phase_breakdown, phase_totals
from repro.obs.prometheus import metric_name, render_histogram


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bucketing_and_stats():
    hist = Histogram(bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
        hist.observe(value)
    assert hist.counts == [1, 2, 1, 1]  # final slot is the +Inf bucket
    assert hist.count == 5
    assert hist.total == pytest.approx(5.0605)
    assert hist.min == 0.0005 and hist.max == 5.0
    assert hist.mean == pytest.approx(5.0605 / 5)
    assert hist.as_dict()["count"] == 5


def test_empty_histogram_mean_is_nan_and_as_dict_none():
    hist = Histogram()
    assert math.isnan(hist.mean)
    assert hist.as_dict()["min"] is None and hist.as_dict()["mean"] is None


# ----------------------------------------------------------------------
# Recorder primitives
# ----------------------------------------------------------------------
def test_recorder_counters_gauges_and_labels():
    rec = Recorder()
    rec.count("sim.events", 1.0, {"kind": "TASK_ARRIVAL"})
    rec.count("sim.events", 2.0, {"kind": "TASK_ARRIVAL"})
    rec.count("sim.events", 1.0, {"kind": "QUOTA_TICK"})
    rec.gauge("depth", 4.0)
    rec.gauge("depth", 7.0)
    assert rec.counter_value("sim.events", {"kind": "TASK_ARRIVAL"}) == 3.0
    assert rec.counter_value("sim.events", {"kind": "QUOTA_TICK"}) == 1.0
    assert rec.counter_value("sim.events") == 0.0  # unlabelled is distinct
    assert rec.gauges[("depth", ())] == 7.0


def test_recorder_span_times_into_histogram():
    rec = Recorder()
    with rec.span("phase"):
        pass
    assert rec.histograms["phase"].count == 1
    assert rec.histograms["phase"].total >= 0.0


def test_phase_breakdown_splits_the_scheduler_tick_hook_out_of_dispatch():
    rec = Recorder()
    rec.observe("sim.dispatch_s.QUOTA_TICK", 1.0)
    rec.observe("sim.dispatch_s.TASK_ARRIVAL", 0.5)
    rec.observe("sim.pass_wall_s", 0.4)
    rec.observe("sim.scheduler_tick_s", 0.25)
    rec.observe("sim.scheduler_tick_s", 0.05)
    rec.observe("sim.metric_accrual_s", 0.1)
    rows = {phase.name.strip(): phase for phase in phase_breakdown(rec, wall_time_s=2.0)}
    hook = rows["scheduler tick hook (policy)"]
    assert hook.seconds == pytest.approx(0.3) and hook.count == 2
    assert hook.share == pytest.approx(0.15)
    assert rows["event dispatch (other)"].seconds == pytest.approx(1.5 - 0.4 - 0.3 - 0.1)
    # A recorder that never saw a tick still reports the row, empty.
    quiet = {phase.name.strip(): phase for phase in phase_breakdown(Recorder(), wall_time_s=1.0)}
    assert quiet["scheduler tick hook (policy)"].seconds == 0.0
    assert quiet["scheduler tick hook (policy)"].count == 0


def test_job_profile_summary_wall_columns_are_the_phase_totals():
    rec = Recorder()
    rec.record_dispatch("QUOTA_TICK", 1.0)
    rec.record_dispatch("TASK_ARRIVAL", 0.5)
    rec.record_dispatch("TASK_ARRIVAL", 0.25)
    rec.observe("sim.pass_wall_s", 0.4)
    rec.observe("sim.scheduler_tick_s", 0.3)
    rec.observe("sim.metric_accrual_s", 0.1)
    totals = phase_totals(rec)
    assert totals["dispatch"] == (1.75, 3)
    assert totals["dispatch.TASK_ARRIVAL"] == (0.75, 2)
    row = job_profile_summary(rec, wall_s=2.0)
    for column, phase in (
        ("obs_pass_wall_s", "pass"), ("obs_tick_wall_s", "tick"),
        ("obs_accrual_wall_s", "accrual"), ("obs_dispatch_wall_s", "dispatch"),
    ):
        assert row[column] == round(totals[phase][0], 6), column
    assert row["obs_events"] == sum(
        value for (name, _), value in rec.counters.items() if name == "sim.events"
    ) == 3
    # An empty recorder folds to zeros, every column present.
    assert job_profile_summary(Recorder(), wall_s=1.0)["obs_tick_wall_s"] == 0.0


#: one ``pass`` and one ``tick`` record, in the sim channel's field vocabulary
PASS = {"t": 1.0, "trigger": "tick", "examined": 3, "scheduled": 1, "memo_hits": 1,
        "index_rejects": 0, "searches": 2, "pending": 2}
TICK = {"t": 1.0, "pending": 2, "running": 1, "alloc": 0.5}


def test_sim_channel_records_fold_into_aggregates_and_reach_the_listener():
    rec = Recorder()
    rec.record_pass(PASS, wall_seconds=0.0)  # no listener: aggregates only
    rec.sim_listener = log = SimEventLog()
    rec.record_pass(PASS, wall_seconds=0.0)
    rec.sample_tick(TICK)
    assert log == [("pass", PASS), ("tick", TICK)]
    assert rec.counter_value("sim.passes") == 2.0
    assert rec.counter_value("sim.pass.searches") == 4.0
    assert rec.gauges[("sim.allocation_rate", ())] == 0.5
    # The recorder keeps aggregates only; the listener owns the records.
    assert set(rec.snapshot()) == {"enabled", "counters", "gauges", "histograms"}


def test_src_has_no_second_sim_channel_ring():
    """One envelope: a pass or tick is an ``(event, fields)`` record, kept
    by whichever listener wants it and by nothing else."""
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    banned = {"PassRecord", "TickSample", "pass_record_limit", "_trim", "on_pass"}
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "arg")}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            # ``on_tick`` is also the scheduler's tick hook; only obs/ and
            # service/ must not grow a listener method of that name.
            if rel.split("/")[0] in ("obs", "service"):
                names.discard(None)
                found += [(rel, name) for name in names & (banned | {"on_tick"})]
            else:
                found += [(rel, name) for name in names & banned]
    assert found == []


def test_recorder_snapshot_is_json_shaped():
    import json

    rec = Recorder()
    rec.record_dispatch("TASK_ARRIVAL", 0.001)
    rec.sample_tick(TICK)
    snap = rec.snapshot()
    assert snap["enabled"] is True
    assert snap["counters"]["sim.events{kind=TASK_ARRIVAL}"] == 1.0
    assert snap["gauges"]["sim.pending_depth"] == 2.0
    json.dumps(snap)  # must be serialisable as-is for the stats endpoint


# ----------------------------------------------------------------------
# NullRecorder: the zero-overhead default
# ----------------------------------------------------------------------
def test_null_recorder_is_inert_and_pickles_to_singleton():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.count("x")
    NULL_RECORDER.gauge("x", 1.0)
    NULL_RECORDER.observe("x", 1.0)
    NULL_RECORDER.record_dispatch("TASK_ARRIVAL", 0.0)
    NULL_RECORDER.record_pass(PASS, 0.0)
    NULL_RECORDER.sample_tick(TICK)
    with NULL_RECORDER.span("x"):
        pass
    assert NULL_RECORDER.snapshot() == {"enabled": False}
    assert pickle.loads(pickle.dumps(NULL_RECORDER)) is NULL_RECORDER
    assert isinstance(NULL_RECORDER, NullRecorder)


# ----------------------------------------------------------------------
# Simulator integration: event counters, pickle semantics
# ----------------------------------------------------------------------
def test_simulator_event_counters_cover_the_heap():
    sim = build_sim("gfs")
    counts = sim._event_counts
    assert counts.task_events > 0
    assert counts.task_events + counts.tick_events + counts.dynamics_events == len(sim._events)


def test_simulator_pickle_strips_recorder():
    sim = build_sim("gfs")
    sim.obs = Recorder()
    sim.advance(until=1800.0)
    assert sim.obs.counter_value("sim.passes") > 0
    restored = pickle.loads(pickle.dumps(sim))
    assert restored.obs is NULL_RECORDER
    # The live simulator keeps its recorder; only the pickle drops it.
    assert sim.obs.enabled


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
def test_metric_name_sanitisation():
    assert metric_name("sim.pass_wall_s") == "repro_sim_pass_wall_s"
    assert metric_name("sim.dispatch_s.TASK_ARRIVAL") == "repro_sim_dispatch_s_TASK_ARRIVAL"
    assert metric_name("a//b", prefix="") == "a_b"


def test_render_recorder_round_trips_through_parser():
    rec = Recorder()
    rec.count("sim.events", 3.0, {"kind": "TASK_ARRIVAL"})
    rec.gauge("sim.pending_depth", 12.0)
    rec.observe("sim.pass_wall_s", 0.002)
    page = render_recorder(rec)
    samples = parse_prometheus_text(page)
    assert samples['repro_sim_events_total{kind="TASK_ARRIVAL"}'] == 3.0
    assert samples["repro_sim_pending_depth"] == 12.0
    assert samples['repro_sim_pass_wall_s_bucket{le="+Inf"}'] == 1.0
    assert samples["repro_sim_pass_wall_s_count"] == 1.0
    assert "# TYPE repro_sim_events_total counter" in page


def test_render_recorder_extra_labels_and_type_suppression():
    rec = Recorder()
    rec.gauge("session.now", 42.0)
    page = render_recorder(rec, extra_labels={"session": "session-0001"}, emit_type_lines=False)
    assert "# TYPE" not in page
    samples = parse_prometheus_text(page)
    assert samples['repro_session_now{session="session-0001"}'] == 42.0


def test_render_histogram_buckets_are_cumulative():
    hist = Histogram(bounds=(0.001, 0.01))
    hist.observe(0.0005)
    hist.observe(0.005)
    hist.observe(5.0)
    text = render_histogram("h", hist)
    samples = parse_prometheus_text(text)
    assert samples['h_bucket{le="0.001"}'] == 1.0
    assert samples['h_bucket{le="0.01"}'] == 2.0
    assert samples['h_bucket{le="+Inf"}'] == 3.0
    assert samples["h_count"] == 3.0


def test_parse_prometheus_text_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus_text("this is not a metric line")
    with pytest.raises(ValueError):
        parse_prometheus_text("name{unclosed 1.0")
    assert parse_prometheus_text("# just a comment\n\n") == {}

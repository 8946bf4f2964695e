"""Sweep-plane telemetry and structured logging.

Covers the :class:`TelemetryBus` contract (envelope, schema validation,
sink fault isolation), every bundled sink (JSONL, TTY progress,
Prometheus + its HTTP server), the engine/executor event wiring
(lifecycle events for real sweeps, including failures and retries), and
the JSON-lines structured logger.
"""

from __future__ import annotations

import http.client
import io
import json
import logging

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.engine import (
    ExperimentEngine,
    WorkloadSpec,
    gfs_spec,
    sweep_jobs,
)
from repro.obs.logging import (
    StructuredLogger,
    configure_json_logging,
    get_logger,
    json_log_line,
    new_run_id,
    parse_log_line,
)
from repro.obs.prometheus import parse_prometheus_text
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_EVENT_FIELDS,
    JsonlSink,
    MetricsServer,
    PrometheusSink,
    TelemetryBus,
    TTYProgressSink,
    validate_telemetry_line,
    validate_telemetry_record,
)
from repro.runtime import JobGuard

SCALE = ExperimentScale(name="tele-test", num_nodes=4, duration_hours=2.0)


def _grid(seeds: int = 2):
    return sweep_jobs(
        SCALE, [gfs_spec()], [WorkloadSpec(seed_offset=i) for i in range(seeds)]
    )


def _capture_run(engine_kwargs=None, jobs=None):
    buf = io.StringIO()
    bus = TelemetryBus(run_id="t-run", sinks=[JsonlSink(buf)])
    engine = ExperimentEngine(
        workers=1, telemetry=bus, **(engine_kwargs or {})
    )
    jobs = _grid() if jobs is None else jobs
    error = None
    try:
        engine.run(jobs)
    except Exception as exc:  # noqa: BLE001 - failure paths are under test
        error = exc
    bus.close()
    records = [
        validate_telemetry_line(line)
        for line in buf.getvalue().splitlines()
        if line.strip()
    ]
    return engine, records, error


# ----------------------------------------------------------------------
# Bus contract
# ----------------------------------------------------------------------
def test_bus_stamps_envelope_and_monotonic_seq():
    buf = io.StringIO()
    bus = TelemetryBus(run_id="r-1", sinks=[JsonlSink(buf)])
    bus.emit("sweep_start", cells=3, workers=2)
    bus.emit("cache_hit", job="a")
    bus.emit("sweep_end", done=3, total=3, failed=0, executed=2,
             cache_hits=1, journal_hits=0, wall_s=0.5)
    bus.close()
    records = [validate_telemetry_line(l) for l in buf.getvalue().splitlines()]
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert all(r["run_id"] == "r-1" for r in records)
    assert all(isinstance(r["ts"], float) for r in records)
    assert bus.emitted == 3 and bus.sink_errors == 0


def test_bus_generates_run_id_when_absent():
    bus = TelemetryBus()
    assert bus.run_id.startswith("sweep-")
    assert bus.enabled is True


def test_validation_rejects_malformed_records():
    with pytest.raises(ValueError):
        validate_telemetry_record({"seq": 1, "ts": 0.0, "run_id": "r", "event": "nope"})
    with pytest.raises(ValueError):
        validate_telemetry_record({"seq": 1, "ts": 0.0, "run_id": "r",
                                   "event": "job_done", "job": "x"})  # no wall_s
    with pytest.raises(ValueError):
        validate_telemetry_record({"event": "cache_hit", "job": "x"})  # no envelope
    with pytest.raises(ValueError):
        validate_telemetry_line("[1, 2, 3]")
    # every documented type validates with exactly its required fields
    for event, fields in TELEMETRY_EVENT_FIELDS.items():
        record = {"seq": 1, "ts": 0.0, "run_id": "r", "event": event}
        record.update({f: 0 for f in fields})
        validate_telemetry_record(record)


def test_faulty_sink_is_disabled_and_never_raises():
    class Boom:
        calls = 0

        def handle(self, record):
            Boom.calls += 1
            raise RuntimeError("sink exploded")

        def close(self):
            pass

    buf = io.StringIO()
    bus = TelemetryBus(run_id="r", sinks=[Boom(), JsonlSink(buf)])
    bus.emit("cache_hit", job="a")  # must not raise
    bus.emit("cache_hit", job="b")
    bus.close()
    assert Boom.calls == 1  # disabled after the first failure
    assert bus.sink_errors == 1
    assert len(buf.getvalue().splitlines()) == 2  # healthy sink unaffected


def test_null_bus_is_inert():
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.emit("anything", whatever=1)  # no validation, no effect
    NULL_TELEMETRY.close()
    assert NULL_TELEMETRY.emitted == 0


def test_jsonl_sink_appends_to_path(tmp_path):
    path = tmp_path / "tele.jsonl"
    for chunk in range(2):
        sink = JsonlSink(str(path))
        sink.handle({"seq": chunk, "ts": 0.0, "run_id": "r", "event": "cache_hit",
                     "job": f"j{chunk}"})
        sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # append mode: reopening never truncates
    assert [validate_telemetry_line(l)["job"] for l in lines] == ["j0", "j1"]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def _progress(done, total, **extra):
    rec = {"seq": 1, "ts": 0.0, "run_id": "r", "event": "progress",
           "done": done, "total": total, "failed": 0,
           "rate_per_s": 2.0, "eta_s": 5.0}
    rec.update(extra)
    return rec


def test_tty_sink_plain_lines_on_pipe():
    buf = io.StringIO()  # not a TTY
    sink = TTYProgressSink(buf, min_interval_s=0.0)
    sink.handle({"seq": 1, "ts": 0.0, "run_id": "r-x", "event": "sweep_start",
                 "cells": 4, "workers": 2})
    sink.handle({"seq": 2, "ts": 0.0, "run_id": "r-x", "event": "job_fail",
                 "job": "cell-3", "kind": "timeout", "attempts": 3})
    sink.handle({"seq": 3, "ts": 0.0, "run_id": "r-x", "event": "sweep_end",
                 "done": 3, "total": 4, "failed": 1, "executed": 3,
                 "cache_hits": 0, "journal_hits": 0, "wall_s": 1.5})
    sink.close()
    out = buf.getvalue()
    assert "\x1b[" not in out  # no ANSI on a pipe
    assert "4 cells on 2 worker(s)" in out
    assert "FAIL cell-3 (timeout, 3 attempts)" in out
    assert "sweep done: 3/4 cells" in out and "failed=1" in out


def test_tty_sink_ansi_bar_on_tty():
    class FakeTTY(io.StringIO):
        def isatty(self):
            return True

    buf = FakeTTY()
    sink = TTYProgressSink(buf, min_interval_s=0.0)
    sink.handle(_progress(1, 4))
    sink.handle(_progress(2, 4))
    sink.close()
    out = buf.getvalue()
    assert out.count("\x1b[2K\r") == 2  # in-place rewrite, one line
    assert "2/4 cells" in out and "eta=5s" in out


def test_prometheus_sink_aggregates_and_serves():
    sink = PrometheusSink()
    sink.handle({"seq": 1, "ts": 0.0, "run_id": "r", "event": "sweep_start",
                 "cells": 10, "workers": 4})
    for i in range(3):
        sink.handle({"seq": 2 + i, "ts": 0.0, "run_id": "r", "event": "job_done",
                     "job": f"j{i}", "wall_s": 0.1})
    sink.handle({"seq": 5, "ts": 0.0, "run_id": "r", "event": "job_retry",
                 "job": "j9", "attempt": 2, "delay_s": 0.2})
    sink.handle(_progress(3, 10, seq=6))
    page = sink.render()
    by_name = parse_prometheus_text(page)
    assert by_name["repro_sweep_jobs_done_total"] == 3.0
    assert by_name["repro_sweep_retries_total"] == 1.0
    assert by_name["repro_sweep_cells_total"] == 10.0
    assert by_name["repro_sweep_cells_done"] == 3.0
    assert by_name["repro_sweep_rate_cells_per_second"] == 2.0

    server = MetricsServer(sink, port=0).start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read().decode("utf-8")
        assert resp.status == 200
        assert body == page
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Engine + executor wiring
# ----------------------------------------------------------------------
def test_engine_emits_full_lifecycle():
    engine, records, error = _capture_run()
    assert error is None
    events = [r["event"] for r in records]
    assert events[0] == "sweep_start" and events[-1] == "sweep_end"
    assert events.count("job_start") == 2
    assert events.count("job_done") == 2
    assert events.count("progress") == 2
    start = records[0]
    assert start["cells"] == 2 and start["workers"] == 1
    end = records[-1]
    assert end["done"] == 2 and end["failed"] == 0 and end["executed"] == 2
    assert end["wall_s"] > 0
    progress = [r for r in records if r["event"] == "progress"]
    assert [p["done"] for p in progress] == [1, 2]
    assert all(p["total"] == 2 for p in progress)
    assert progress[0]["rate_per_s"] > 0


def test_engine_emits_cache_and_journal_hits(tmp_path):
    from repro.experiments.artifacts import ArtifactCache

    cache = ArtifactCache(str(tmp_path / "cache"))
    jobs = _grid()
    warm = ExperimentEngine(workers=1, cache=cache)
    warm.run(jobs)

    buf = io.StringIO()
    bus = TelemetryBus(run_id="t-hits", sinks=[JsonlSink(buf)])
    engine = ExperimentEngine(workers=1, cache=cache, telemetry=bus)
    engine.run(jobs)
    bus.close()
    records = [validate_telemetry_line(l) for l in buf.getvalue().splitlines()]
    events = [r["event"] for r in records]
    assert events.count("cache_hit") == len(jobs)
    assert "job_start" not in events  # nothing simulated twice
    end = records[-1]
    assert end["cache_hits"] == len(jobs) and end["executed"] == 0


def test_engine_emits_failures_and_retries():
    # an impossible scenario: zero-duration trace -> no tasks -> SimulationError
    bad_scale = ExperimentScale(name="broken", num_nodes=2, duration_hours=0.001)
    jobs = sweep_jobs(bad_scale, [gfs_spec()], [WorkloadSpec()])
    engine, records, error = _capture_run(
        engine_kwargs={"guard": JobGuard(retries=1, strict=False)}, jobs=jobs
    )
    events = [r["event"] for r in records]
    assert error is None  # strict=False: failures reported, not raised
    assert "job_retry" in events
    assert "job_fail" in events
    fail = next(r for r in records if r["event"] == "job_fail")
    assert fail["kind"] == "exception" and fail["attempts"] == 2
    retry = next(r for r in records if r["event"] == "job_retry")
    assert retry["delay_s"] >= 0
    end = records[-1]
    assert end["failed"] == 1 and end["done"] == 0


def test_engine_without_telemetry_uses_null_bus():
    engine = ExperimentEngine(workers=1)
    assert engine.telemetry is NULL_TELEMETRY


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
def test_json_log_line_roundtrip_and_coercion():
    line = json_log_line("INFO", "http_request", {
        "status": 200, "duration_ms": 1.25, "bad_float": float("nan"),
        "path": "/sessions", "extras": {"a": (1, 2)},
    })
    record = parse_log_line(line)
    assert record["level"] == "info" and record["event"] == "http_request"
    assert record["status"] == 200
    assert record["bad_float"] == "nan"  # NaN never breaks a parser
    assert record["extras"] == {"a": [1, 2]}
    keys = list(record)
    assert keys[:3] == ["ts", "level", "event"]


def test_parse_log_line_rejects_unstructured_text():
    with pytest.raises(ValueError):
        parse_log_line('{"no_event": 1}')
    with pytest.raises(json.JSONDecodeError):
        parse_log_line("GET /sessions 200")


def test_bind_is_immutable_and_stamps_fields(caplog):
    base = get_logger("repro.test_tele")
    bound = base.bind(run_id="r-9", session_id="s-1")
    rebound = bound.bind(session_id="s-2")
    assert bound.bound_fields == {"run_id": "r-9", "session_id": "s-1"}
    assert rebound.bound_fields["session_id"] == "s-2"
    assert base.bound_fields == {}
    with caplog.at_level(logging.INFO, logger="repro.test_tele"):
        rebound.info("thing_happened", detail=7)
    record = parse_log_line(caplog.records[-1].getMessage())
    assert record["run_id"] == "r-9"
    assert record["session_id"] == "s-2"
    assert record["detail"] == 7


def test_logger_skips_rendering_below_level():
    class Exploding:
        def __str__(self):
            raise AssertionError("rendered a suppressed log line")

    log = get_logger("repro.test_tele.silent")
    # DEBUG is not enabled: the field must never be stringified
    log.debug("expensive", payload=Exploding())


def test_configure_json_logging_installs_and_returns_handler():
    assert configure_json_logging(None) is None
    stream = io.StringIO()
    handler = configure_json_logging("info", "repro.test_tele.cfg", stream=stream)
    try:
        get_logger("repro.test_tele.cfg").info("configured", ok=True)
        record = parse_log_line(stream.getvalue().strip())
        assert record["event"] == "configured" and record["ok"] is True
    finally:
        logging.getLogger("repro.test_tele.cfg").removeHandler(handler)


def test_new_run_id_is_prefixed_and_unique():
    ids = {new_run_id("sweep") for _ in range(32)}
    assert len(ids) == 32
    assert all(i.startswith("sweep-") for i in ids)


# ----------------------------------------------------------------------
# validate CLI (the stream-smoke gate)
# ----------------------------------------------------------------------
def test_validate_cli_accepts_good_and_rejects_bad(tmp_path, capsys):
    from repro.obs.telemetry import main as telemetry_main

    good = tmp_path / "good.jsonl"
    buf = io.StringIO()
    bus = TelemetryBus(run_id="r", sinks=[JsonlSink(str(good))])
    bus.emit("sweep_start", cells=1, workers=1)
    bus.emit("sweep_end", done=1, total=1, failed=0, executed=1,
             cache_hits=0, journal_hits=0, wall_s=0.1)
    bus.close()
    assert telemetry_main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "2 valid telemetry records" in out
    assert "sweep_start=1" in out and "sweep_end=1" in out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq":1,"ts":0,"run_id":"r","event":"job_done","job":"x"}\n')
    assert telemetry_main(["validate", str(bad)]) == 1
    assert telemetry_main(["nonsense"]) == 2


def test_cli_sweep_writes_schema_valid_capture(tmp_path, capsys):
    """``cli sweep --progress --telemetry PATH`` end to end: the capture
    validates, is one run, and brackets the sweep's lifecycle."""
    from repro.experiments.cli import main as cli_main
    from repro.obs.telemetry import main as telemetry_main

    capture = tmp_path / "sweep.jsonl"
    assert cli_main([
        "sweep", "--scenario", "default", "--schedulers", "GFS,YARN-CS",
        "--nodes", "6", "--hours", "2", "--progress", "--telemetry", str(capture),
    ]) == 0
    assert telemetry_main(["validate", str(capture)]) == 0
    records = [validate_telemetry_line(line) for line in capture.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert events[0] == "sweep_start" and events[-1] == "sweep_end"
    assert {"job_start", "job_done", "progress"} <= set(events)
    assert {r["run_id"][:6] for r in records} == {"sweep-"}
    assert len({r["run_id"] for r in records}) == 1
    assert [r["seq"] for r in records] == list(range(1, len(records) + 1))

"""Telemetry: one structured event bus with pluggable sinks.

The experiment engine, the resilient executor and the scheduler service
report everything — job start/done/fail/retry, cache and journal hits,
pool rebuilds, progress with an ETA from the completed-cell rate, the
sweep summary; HTTP requests, quarantined sessions, failed persists —
through :meth:`TelemetryBus.emit` and nothing else.  The bus stamps each
record with its envelope, renders it as one structured log line on the
``repro.telemetry`` logger (the record plus ``level``;
``job_fail``, ``job_timeout``, ``pool_rebuild``, ``session_quarantined``
and ``persist_failed`` at WARNING, every other event at INFO; a line is
rendered only when its level is enabled) and hands it to its sinks:

* :class:`JsonlSink` — one compact JSON object per line, flushed per
  event, for machines (CI validates these against the schema below);
* :class:`TTYProgressSink` — a live single-line ANSI progress bar on a
  terminal, plain throttled progress lines on a pipe.

A bus without sinks is what the engine and the executor build when given
none, and what the service reports on; its records still reach the log.

Design rules, inherited from the recorder (see ``docs/observability.md``):

* the bus only ever receives *pushed* values — no sink may reach into
  the engine or a simulator;
* emitting never raises into the engine: a faulty sink is disabled
  after its first exception and the sweep continues;
* every event carries ``seq`` (monotonic per bus), ``ts`` (epoch
  seconds), ``run_id`` and ``event``; per-type required fields are in
  :data:`TELEMETRY_EVENT_FIELDS` and checked by
  :func:`validate_telemetry_record`.

``python -m repro.obs.telemetry validate <file.jsonl>`` validates a
telemetry capture (``tests/test_telemetry.py`` runs it on a real sweep).
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from typing import Dict, IO, List, Mapping, Optional, Tuple

from .logging import json_log_line, new_run_id

__all__ = [
    "JsonlSink",
    "TELEMETRY_EVENT_FIELDS",
    "TTYProgressSink",
    "TelemetryBus",
    "validate_telemetry_line",
    "validate_telemetry_record",
]

#: required per-type payload fields (beyond the envelope's
#: ``seq``/``ts``/``run_id``/``event``) — the documented schema.
TELEMETRY_EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sweep_start": ("cells", "workers"),
    "job_start": ("job", "attempt"),
    "job_done": ("job", "wall_s"),
    "job_fail": ("job", "kind", "attempts"),
    "job_retry": ("job", "attempt", "delay_s"),
    "job_timeout": ("job", "attempt", "timeout_s"),
    "cache_hit": ("job",),
    "journal_hit": ("job",),
    "pool_rebuild": ("rebuilds",),
    "progress": ("done", "total", "failed", "rate_per_s", "eta_s"),
    "sweep_end": ("done", "total", "failed", "executed", "cache_hits", "journal_hits", "wall_s"),
    "http_request": ("method", "path", "status", "duration_ms"),
    "session_quarantined": ("session_id", "error"),
    "persist_failed": ("session_id", "error"),
}

_ENVELOPE_FIELDS = ("seq", "ts", "run_id", "event")

_LOG = logging.getLogger("repro.telemetry")

#: events logged at WARNING; every other event logs at INFO
_WARNING_EVENTS = frozenset(
    {"job_fail", "job_timeout", "pool_rebuild", "session_quarantined", "persist_failed"}
)


def validate_telemetry_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` matches the schema."""
    for field in _ENVELOPE_FIELDS:
        if field not in record:
            raise ValueError(f"telemetry record missing envelope field {field!r}: {record}")
    event = record["event"]
    if event not in TELEMETRY_EVENT_FIELDS:
        raise ValueError(f"unknown telemetry event type {event!r}")
    for field in TELEMETRY_EVENT_FIELDS[event]:
        if field not in record:
            raise ValueError(f"telemetry event {event!r} missing field {field!r}: {record}")


def validate_telemetry_line(line: str) -> Dict[str, object]:
    """Parse + validate one JSONL telemetry line; returns the record."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"telemetry line is not an object: {line!r}")
    validate_telemetry_record(record)
    return record


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
class TelemetryBus:
    """Stamps, logs and fans out structured events; never raises into the caller."""

    def __init__(self, run_id: str = "", sinks: Optional[List[object]] = None):
        self.run_id = run_id or new_run_id("sweep")
        self.sinks: List[object] = list(sinks or [])
        self.seq = 0
        self.emitted = 0
        self.sink_errors = 0
        self._lock = threading.Lock()

    def add_sink(self, sink: object) -> None:
        self.sinks.append(sink)

    def emit(self, event: str, **fields: object) -> None:
        with self._lock:
            self.seq += 1
            record: Dict[str, object] = {
                "seq": self.seq,
                "ts": round(time.time(), 6),
                "run_id": self.run_id,
                "event": event,
            }
            record.update(fields)
            self.emitted += 1
            level = logging.WARNING if event in _WARNING_EVENTS else logging.INFO
            if _LOG.isEnabledFor(level):
                fields = {key: value for key, value in record.items() if key != "event"}
                _LOG.log(level, json_log_line(logging.getLevelName(level), event, fields))
            dead: List[object] = []
            for sink in self.sinks:
                try:
                    sink.handle(record)
                except Exception:  # noqa: BLE001 - a sink must never kill the sweep
                    self.sink_errors += 1
                    dead.append(sink)
            for sink in dead:
                self.sinks.remove(sink)

    def close(self) -> None:
        with self._lock:
            for sink in self.sinks:
                try:
                    sink.close()
                except Exception:  # noqa: BLE001
                    self.sink_errors += 1


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class JsonlSink:
    """One compact JSON object per line, flushed per event."""

    def __init__(self, target):
        """``target`` is a path (opened for append) or a writable file."""
        if hasattr(target, "write"):
            self._fh: IO[str] = target
            self._owned = False
        else:
            self._fh = open(target, "a", encoding="utf-8")
            self._owned = True

    def handle(self, record: Mapping[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owned:
            self._fh.close()


class TTYProgressSink:
    """Live sweep progress: ANSI single-line bar on a TTY, plain lines on a pipe.

    Renders from ``progress`` events (rewritten in place at most
    ``min_interval_s`` apart on a TTY) and surfaces notable events —
    failures, retries, timeouts, pool rebuilds — as their own lines so
    they are not lost under the bar.
    """

    def __init__(self, stream: Optional[IO[str]] = None, min_interval_s: float = 0.1):
        self._fh = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self._fh, "isatty", lambda: False)())
        self._min_interval_s = min_interval_s if self._tty else max(min_interval_s, 2.0)
        self._last_render = 0.0
        self._line_open = False

    # -- rendering helpers ------------------------------------------------
    def _write_line(self, text: str) -> None:
        if self._line_open:
            self._fh.write("\x1b[2K\r")
            self._line_open = False
        self._fh.write(text + "\n")
        self._fh.flush()

    def _render_bar(self, record: Mapping[str, object], final: bool = False) -> None:
        now = time.monotonic()
        if not final and (now - self._last_render) < self._min_interval_s:
            return
        self._last_render = now
        done = int(record.get("done", 0))
        total = max(1, int(record.get("total", 1)))
        failed = int(record.get("failed", 0))
        eta = record.get("eta_s")
        rate = record.get("rate_per_s")
        width = 24
        filled = int(width * done / total)
        bar = "#" * filled + "-" * (width - filled)
        text = f"[{bar}] {done}/{total} cells"
        if failed:
            text += f" failed={failed}"
        if isinstance(rate, (int, float)) and rate > 0:
            text += f" {rate:.2f}/s"
        if isinstance(eta, (int, float)) and not final:
            text += f" eta={eta:.0f}s"
        if self._tty:
            self._fh.write("\x1b[2K\r" + text)
            self._line_open = True
            if final:
                self._fh.write("\n")
                self._line_open = False
            self._fh.flush()
        else:
            self._fh.write(text + "\n")
            self._fh.flush()

    # -- sink protocol ----------------------------------------------------
    def handle(self, record: Mapping[str, object]) -> None:
        event = record.get("event")
        if event == "sweep_start":
            self._write_line(
                f"sweep: {record.get('cells')} cells on {record.get('workers')} worker(s)"
                f" [{record.get('run_id')}]"
            )
        elif event == "progress":
            self._render_bar(record)
        elif event == "job_fail":
            self._write_line(
                f"FAIL {record.get('job')} ({record.get('kind')},"
                f" {record.get('attempts')} attempts)"
            )
        elif event == "job_retry":
            self._write_line(
                f"retry {record.get('job')} attempt={record.get('attempt')}"
                f" backoff={record.get('delay_s')}s"
            )
        elif event == "job_timeout":
            self._write_line(
                f"timeout {record.get('job')} after {record.get('timeout_s')}s"
            )
        elif event == "pool_rebuild":
            self._write_line(f"pool rebuilt (x{record.get('rebuilds')})")
        elif event == "sweep_end":
            self._render_bar(record, final=True)
            self._write_line(
                "sweep done: "
                f"{record.get('done')}/{record.get('total')} cells"
                f" executed={record.get('executed')}"
                f" cache={record.get('cache_hits')}"
                f" journal={record.get('journal_hits')}"
                f" failed={record.get('failed')}"
                f" in {record.get('wall_s')}s"
            )

    def close(self) -> None:
        if self._line_open:
            self._fh.write("\n")
            self._fh.flush()
            self._line_open = False


# ----------------------------------------------------------------------
# CLI: validate a telemetry capture
# ----------------------------------------------------------------------
def _validate_main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.obs.telemetry validate <file.jsonl>", file=sys.stderr)
        return 2
    path = argv[0]
    count = 0
    events: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = validate_telemetry_line(line)
            except ValueError as exc:
                print(f"{path}:{lineno}: {exc}", file=sys.stderr)
                return 1
            count += 1
            events[str(record["event"])] = events.get(str(record["event"]), 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(events.items()))
    print(f"{path}: {count} valid telemetry records ({summary})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "validate":
        return _validate_main(argv[1:])
    print("usage: python -m repro.obs.telemetry validate <file.jsonl>", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

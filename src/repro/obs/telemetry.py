"""Sweep-plane telemetry: a structured event bus with pluggable sinks.

PR 8 made 10k-cell sweeps crash-safe, but they still run *dark*: the
engine prints nothing until the pool drains.  :class:`TelemetryBus` is
the narrow waist that fixes that — the experiment engine and the
resilient executor emit small structured events (job start/done/fail/
retry, cache and journal hits, pool rebuilds, progress with an ETA from
the completed-cell rate) and any number of sinks consume them:

* :class:`JsonlSink` — one compact JSON object per line, flushed per
  event, for machines (CI validates these against the schema below);
* :class:`TTYProgressSink` — a live single-line ANSI progress bar on a
  terminal, plain throttled progress lines on a pipe;
* :class:`PrometheusSink` — aggregates events into a
  :class:`~repro.obs.recorder.Recorder` and renders the standard
  exposition page, optionally served by :class:`MetricsServer`
  (``cli sweep --metrics-port``).

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
import sys
import threading
import time
from typing import Dict, IO, List, Mapping, Optional, Tuple

from .recorder import Recorder

__all__ = [
    "JsonlSink",
    "MetricsServer",
    "NULL_TELEMETRY",
    "NullTelemetryBus",
    "PrometheusSink",
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
}

_ENVELOPE_FIELDS = ("seq", "ts", "run_id", "event")


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
    """Fans structured events out to sinks; never raises into the caller."""

    def __init__(self, run_id: str = "", sinks: Optional[List[object]] = None):
        if not run_id:
            from .logging import new_run_id

            run_id = new_run_id("sweep")
        self.run_id = run_id
        self.sinks: List[object] = list(sinks or [])
        self.seq = 0
        self.emitted = 0
        self.sink_errors = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

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


class NullTelemetryBus:
    """Disabled bus: every operation is a no-op (mirrors ``NullRecorder``)."""

    run_id = ""
    seq = 0
    emitted = 0
    sink_errors = 0

    @property
    def enabled(self) -> bool:
        return False

    def add_sink(self, sink: object) -> None:  # pragma: no cover - trivial
        pass

    def emit(self, event: str, **fields: object) -> None:
        pass

    def close(self) -> None:
        pass


#: shared disabled bus — the default for engine/executor telemetry params
NULL_TELEMETRY = NullTelemetryBus()


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


class PrometheusSink:
    """Aggregates sweep telemetry into a Recorder, rendered on demand.

    The exposition page (``repro_sweep_*`` series) is what
    :class:`MetricsServer` serves behind ``cli sweep --metrics-port``.
    Thread-safe: the HTTP server thread renders while the engine emits.
    """

    _COUNTERS = {
        "job_done": "sweep_jobs_done_total",
        "job_fail": "sweep_jobs_failed_total",
        "job_retry": "sweep_retries_total",
        "job_timeout": "sweep_timeouts_total",
        "cache_hit": "sweep_cache_hits_total",
        "journal_hit": "sweep_journal_hits_total",
        "pool_rebuild": "sweep_pool_rebuilds_total",
    }

    def __init__(self):
        self.recorder = Recorder()
        self._lock = threading.Lock()

    def handle(self, record: Mapping[str, object]) -> None:
        event = str(record.get("event"))
        with self._lock:
            counter = self._COUNTERS.get(event)
            if counter is not None:
                self.recorder.count(counter)
            if event == "sweep_start":
                self.recorder.gauge("sweep_cells_total", float(record.get("cells", 0)))
                self.recorder.gauge("sweep_cells_done", 0.0)
            elif event == "progress":
                self.recorder.gauge("sweep_cells_done", float(record.get("done", 0)))
                self.recorder.gauge("sweep_cells_failed", float(record.get("failed", 0)))
                eta = record.get("eta_s")
                if isinstance(eta, (int, float)):
                    self.recorder.gauge("sweep_eta_seconds", float(eta))
                rate = record.get("rate_per_s")
                if isinstance(rate, (int, float)):
                    self.recorder.gauge("sweep_rate_cells_per_second", float(rate))
            elif event == "sweep_end":
                self.recorder.gauge("sweep_cells_done", float(record.get("done", 0)))
                self.recorder.gauge("sweep_cells_failed", float(record.get("failed", 0)))
                self.recorder.gauge("sweep_eta_seconds", 0.0)

    def render(self) -> str:
        from .prometheus import render_recorder

        with self._lock:
            return render_recorder(self.recorder)

    def close(self) -> None:
        pass


class MetricsServer:
    """A daemon-thread stdlib HTTP server exposing a PrometheusSink.

    Serves ``GET /metrics`` (and ``/``) with the standard exposition
    content type.  ``port=0`` binds an ephemeral port; the bound port is
    available as :attr:`port` after :meth:`start`.
    """

    def __init__(self, sink: PrometheusSink, port: int = 0, host: str = "127.0.0.1"):
        self.sink = sink
        self.host = host
        self.port = port
        self._httpd = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from .prometheus import PROMETHEUS_CONTENT_TYPE

        sink = self.sink

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib naming
                if self.path not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                body = sink.render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):  # silence per-request stderr noise
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


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

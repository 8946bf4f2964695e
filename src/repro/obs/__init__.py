"""Simulator-wide observability: recorder core, exporters, self-profiler.

The package splits into a dependency-free core — imported by the hot
path — and consumers imported only where used:

* :mod:`repro.obs.recorder` — :class:`Recorder` / :class:`NullRecorder`
  (counters, gauges, histograms, spans; sim-time vs wall-clock channels)
  and :class:`EventLoopCounters`, the simulator's per-kind heaped-event
  accounting.
* :mod:`repro.obs.prometheus` — exposition-format rendering for the
  service's ``GET /metrics``, the project's one Prometheus page.
* :mod:`repro.obs.trace_export` — Chrome-trace/Perfetto JSON export of
  scheduling passes and task lifecycles (``cli trace-viz``).
* :mod:`repro.obs.profiler` — wall-clock self-profiler reporting the
  per-phase cost breakdown (``cli profile`` / ``make profile``) and
  :func:`~repro.obs.profiler.phase_totals`, the one fold of the
  recorder's ``sim.*`` wall histograms.
* :mod:`repro.obs.telemetry` — the :class:`TelemetryBus`, the one way
  the engine, the executor and the service report; its records are also
  their log lines, and JSONL / live-TTY sinks consume them
  (``cli sweep --progress`` / ``--telemetry``).
* :mod:`repro.obs.logging` — the JSON-lines rendering of those log
  lines and the stdlib wiring behind ``cli serve --log-level``.

See ``docs/observability.md`` for the recorder API, the hook-point
inventory and walkthroughs of every consumer.
"""

from .logging import configure_json_logging, new_run_id
from .prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_recorder,
)
from .recorder import (
    NULL_RECORDER,
    EventLoopCounters,
    Histogram,
    NullRecorder,
    PassRecord,
    Recorder,
    TickSample,
)
from .telemetry import JsonlSink, TelemetryBus, TTYProgressSink, validate_telemetry_line

__all__ = [
    "NULL_RECORDER",
    "EventLoopCounters",
    "Histogram",
    "JsonlSink",
    "NullRecorder",
    "PassRecord",
    "PROMETHEUS_CONTENT_TYPE",
    "Recorder",
    "TTYProgressSink",
    "TelemetryBus",
    "TickSample",
    "configure_json_logging",
    "new_run_id",
    "parse_prometheus_text",
    "render_recorder",
    "validate_telemetry_line",
]

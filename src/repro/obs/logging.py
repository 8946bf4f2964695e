"""Structured JSON-lines log lines: rendering, parsing, wiring.

Every operational event of the system — sweep lifecycle, retries,
timeouts, HTTP requests, quarantines — is a
:class:`~repro.obs.telemetry.TelemetryBus` record, and the bus renders
each one with :func:`json_log_line` as **one JSON object** on the
``repro.telemetry`` logger: ``ts`` (epoch seconds), ``level``,
``event`` (a short machine name like ``http_request`` or
``job_retry``), then the record's correlation ids (``seq``,
``run_id``) and event fields, so one ``grep svc-<id>`` reconstructs a
server's life.  Transport stays stdlib :mod:`logging` —
handlers, levels, ``caplog`` and host-application configuration all
keep working, and a logger with no handler stays silent below WARNING.

The emitted *message* is the JSON document itself, so pairing the
logger with a bare ``%(message)s`` formatter (what
:func:`configure_json_logging` installs) yields clean JSONL on stderr
or into a file.
"""

from __future__ import annotations

import json
import logging
import math
import time
import uuid
from typing import Dict, IO, Mapping, Optional

__all__ = [
    "configure_json_logging",
    "json_log_line",
    "new_run_id",
    "parse_log_line",
]


def new_run_id(prefix: str = "r") -> str:
    """A fresh correlation id binding every line of one run/sweep/serve."""
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


def _jsonable(value: object) -> object:
    """Coerce a field value into something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        # NaN/Inf are not JSON; stringify so a line never fails to parse.
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


def json_log_line(level: str, event: str, fields: Mapping[str, object]) -> str:
    """One structured log line: compact JSON, ``ts``/``level``/``event`` then ``fields``."""
    payload: Dict[str, object] = {
        "ts": round(time.time(), 6),
        "level": level.lower(),
        "event": event,
    }
    for key, value in fields.items():
        payload[str(key)] = _jsonable(value)
    return json.dumps(payload, sort_keys=False, separators=(",", ":"))


def parse_log_line(line: str) -> Dict[str, object]:
    """Parse one structured line back into a dict (tests, CI validators)."""
    record = json.loads(line)
    if not isinstance(record, dict) or "event" not in record:
        raise ValueError(f"not a structured log line: {line!r}")
    return record


def configure_json_logging(
    level_name: Optional[str], stream: Optional[IO[str]] = None
) -> Optional[logging.Handler]:
    """Wire the ``repro`` logger (and children) to emit raw JSONL at a level.

    ``None`` configures nothing — logging stays at the host
    application's discretion.  Returns the installed handler so callers
    (tests) can remove it again.  The formatter is a bare
    ``%(message)s`` because the message *is* the JSON document.
    """
    if not level_name:
        return None
    level = getattr(logging, level_name.upper())
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    logger.addHandler(handler)
    return handler

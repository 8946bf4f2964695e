"""Per-job execution guards: timeouts, bounded retries, structured failure.

A :class:`JobGuard` describes how one grid cell is allowed to fail:
how long it may run (``timeout_s``), how many times it is re-executed
(``retries``, with deterministic exponential backoff from
:class:`RetryPolicy`), and whether failures abort the sweep
(``strict``, raised *after* every other cell has completed and been
journaled — never mid-sweep).

When the budget is exhausted the job collapses into a
:class:`JobFailure` — job key, failure kind, attempt count, exception
type and the full (remote) traceback — instead of an exception tearing
down the whole sweep.  The three failure kinds mirror the three ways a
worker can die:

* ``exception`` — the job raised; the traceback is captured verbatim.
* ``timeout``   — the job exceeded ``timeout_s``; the worker pool was
  killed and rebuilt, innocent in-flight jobs were re-queued.
* ``worker-lost`` — the worker process died (``kill -9``, OOM,
  ``os._exit``); every in-flight job of the broken pool is retried.

Backoff is a pure function of the attempt number (no wall-clock
randomness), so a journaled sweep replays through the exact same retry
schedule — the determinism discipline every other subsystem follows.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: the three ways a guarded job can fail
FAILURE_KINDS: Tuple[str, ...] = ("exception", "timeout", "worker-lost")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff: ``base * factor**(attempt-1)``."""

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 5.0

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed attempt ``attempt``."""
        if attempt < 1:
            return 0.0
        return min(self.cap_s, self.base_s * self.factor ** (attempt - 1))


@dataclass(frozen=True)
class JobGuard:
    """How one job may fail: timeout, retry budget, sweep strictness.

    ``timeout_s=None`` disables the deadline; a deadline makes every job
    run in a worker process (a process cannot preempt itself, so
    deadlines are enforced by killing workers).
    ``retries=N`` allows up to ``1 + N`` executions per job.  With
    ``strict=True`` (the default) the engine raises :class:`SweepError`
    once the whole sweep has drained if any cell failed; ``strict=False``
    leaves failures in ``engine.failures`` for the caller to report.
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff: RetryPolicy = field(default_factory=RetryPolicy)
    strict: bool = True

    def allows_retry(self, attempt: int) -> bool:
        """May a job that failed on execution ``attempt`` run again?"""
        return attempt <= self.retries


@dataclass(frozen=True)
class JobFailure:
    """The structured result of a job that exhausted its guard budget."""

    job_key: str
    kind: str  # one of FAILURE_KINDS
    attempts: int
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""

    def summary(self) -> str:
        what = f"{self.error_type}: {self.message}" if self.error_type else self.kind
        return f"{self.job_key} [{self.kind} after {self.attempts} attempt(s)] {what}"

    def as_payload(self) -> dict:
        """JSON-able form for the sweep journal."""
        return {
            "job_key": self.job_key,
            "kind": self.kind,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback_text,
        }

    @classmethod
    def from_exception(
        cls, job_key: str, exc: BaseException, attempts: int, kind: str = "exception"
    ) -> "JobFailure":
        """Capture an exception (incl. the remote traceback a
        ``ProcessPoolExecutor`` chains onto ``__cause__``) into a failure."""
        text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        cause = exc.__cause__
        if cause is not None and type(cause).__name__ == "_RemoteTraceback":
            text = f"{cause}\n{text}"
        return cls(
            job_key=job_key,
            kind=kind,
            attempts=attempts,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=text,
        )


class SweepError(RuntimeError):
    """One or more cells of a strict sweep failed (raised after draining).

    Carries the full list of :class:`JobFailure` results so callers can
    report or persist them; the rest of the grid completed, was cached
    and journaled before this was raised.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = [f.summary() for f in self.failures[:5]]
        more = len(self.failures) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        super().__init__(
            f"{len(self.failures)} job(s) failed after retries:\n  " + "\n  ".join(lines)
        )


def deterministic_fraction(*parts: object) -> float:
    """A stable pseudo-random fraction in ``[0, 1)`` from hashable parts.

    Used by the chaos planner (and available for backoff jitter): the
    value depends only on the inputs, never on wall-clock or interpreter
    state, so fault schedules are exactly reproducible.
    """
    import hashlib

    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / math.ldexp(1.0, 64)

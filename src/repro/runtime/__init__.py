"""Fault-tolerant execution layer for the harness itself.

PR 5 made *simulated* failures first-class events; this package does the
same for failures of the machinery that runs the simulations and serves
them.  It is deliberately generic — nothing here imports the simulator —
so the experiment engine, the service and the benchmark recorders all
share one vocabulary of durability primitives:

* :mod:`.atomic` — crash-safe file writes (unique temp + fsync + rename)
  behind every durable artifact in the repository, and the one
  quarantine rule (rename aside, never delete) for files that fail to
  read back;
* :mod:`.guards` — per-job execution guards: timeouts, bounded retries
  with deterministic exponential backoff, and structured
  :class:`JobFailure` results instead of sweep-aborting exceptions;
* :mod:`.journal` — the write-ahead sweep journal (append-only fsync'd
  JSONL keyed by content-hash cache keys) behind
  ``cli sweep --resume``;
* :mod:`.executor` — one supervision loop, in-process or over a
  process pool that survives ``BrokenProcessPool`` by re-spawning and
  re-queueing, and un-wedges hung workers by deadline-killing the pool;
* :mod:`.chaos` — the self-chaos harness: seeded kill/hang/poison
  injection into harness workers, mirroring the discipline
  :class:`~repro.dynamics.FaultInjector` applies to simulated nodes;
* :mod:`.signals` — graceful SIGINT/SIGTERM draining with a
  partial-grid flush.

See ``docs/fault_tolerance.md`` for the journal format, the recovery
semantics and the chaos-harness acceptance suite.
"""

from .atomic import atomic_write_bytes, atomic_write_text, fsync_dir, quarantine
from .chaos import CHAOS_ACTIONS, ChaosPlan, ChaosPoison, ChaosWorker
from .executor import ResilientExecutor
from .guards import (
    FAILURE_KINDS,
    JobFailure,
    JobGuard,
    RetryPolicy,
    SweepError,
    deterministic_fraction,
)
from .journal import JOURNAL_VERSION, JournalError, JournalReplay, SweepJournal
from .signals import GracefulShutdown

__all__ = [
    "CHAOS_ACTIONS",
    "ChaosPlan",
    "ChaosPoison",
    "ChaosWorker",
    "FAILURE_KINDS",
    "GracefulShutdown",
    "JOURNAL_VERSION",
    "JobFailure",
    "JobGuard",
    "JournalError",
    "JournalReplay",
    "ResilientExecutor",
    "RetryPolicy",
    "SweepError",
    "SweepJournal",
    "atomic_write_bytes",
    "atomic_write_text",
    "deterministic_fraction",
    "fsync_dir",
    "quarantine",
]

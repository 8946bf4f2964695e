"""Write-ahead sweep journal: crash-safe, resumable experiment grids.

One journal is an append-only JSONL file recording the life of a sweep:

    {"kind": "sweep", "version": 1, "created": ..., "jobs": N, ...}
    {"kind": "done",  "job_key": "...", "cache_key": "<sha256>", "metrics": {...}}
    {"kind": "failed","job_key": "...", "cache_key": "<sha256>", "failure": {...}}

Records are keyed by the same content-hash **cache keys** the artifact
cache uses (``engine.cache_payload`` → ``artifacts.content_key``), not by
display keys — so a journal recognises a completed cell across renamed
grids, re-ordered job lists and label changes, exactly like the cache
does.  ``done`` records embed the full lossless metrics payload, which
makes a journal *self-contained*: resuming needs neither the cache nor
the original process, only the journal file.

Durability contract: every append is one ``write()`` of a complete
``\\n``-terminated line, flushed and fsync'd before :meth:`append`
returns.  A crash (SIGKILL, power loss) can therefore lose at most the
line being written — never corrupt earlier lines — and :meth:`replay`
tolerates exactly that: a torn trailing line is counted and ignored,
anything readable before it is recovered.  Appending after a crash first
ends the torn line, so the next record stays readable; the torn line's
cell simply re-runs
(simulations are deterministic and side-effect-free, so a duplicate
``done`` record later in the file is harmless — last record wins).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, Optional

#: journal format version (stamped into the header record)
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal file is unusable (not a journal / wrong version)."""


@dataclass
class JournalReplay:
    """Everything recoverable from scanning a journal file."""

    header: Dict[str, object] = field(default_factory=dict)
    #: cache_key -> lossless metrics payload of every completed cell
    completed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: cache_key -> failure payload of cells that exhausted their guard
    failed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: unreadable lines skipped during the scan (torn tail after a crash)
    torn_lines: int = 0


class SweepJournal:
    """Append-only JSONL journal with fsync'd atomic-line appends."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: Optional[BinaryIO] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _open(self) -> BinaryIO:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(self.path, "ab+")
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # A crash mid-append left the last line unterminated:
                    # end it, so this invocation's first record gets a
                    # line of its own (flushed and fsync'd with it).
                    handle.write(b"\n")
            self._handle = handle
        return self._handle

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record: single write, flush, fsync."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if "\n" in line:  # defensive: json.dumps never emits raw newlines
            raise JournalError("journal records must serialise to one line")
        handle = self._open()
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())

    def begin_sweep(self, jobs: int, meta: Optional[Dict[str, object]] = None) -> None:
        """Append the sweep header (once per invocation; replays dedupe)."""
        record: Dict[str, object] = {
            "kind": "sweep",
            "version": JOURNAL_VERSION,
            "created": time.time(),
            "jobs": int(jobs),
        }
        if meta:
            record.update(meta)
        self.append(record)

    def record_done(
        self, job_key: str, cache_key: str, metrics_payload: Dict[str, object]
    ) -> None:
        self.append(
            {
                "kind": "done",
                "job_key": job_key,
                "cache_key": cache_key,
                "metrics": metrics_payload,
            }
        )

    def record_failed(
        self, job_key: str, cache_key: str, failure_payload: Dict[str, object]
    ) -> None:
        self.append(
            {
                "kind": "failed",
                "job_key": job_key,
                "cache_key": cache_key,
                "failure": failure_payload,
            }
        )

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _iter_lines(self) -> Iterator[str]:
        with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
            yield from handle

    def replay(self) -> JournalReplay:
        """Scan the journal, recovering every readable record.

        Unreadable lines (torn by a crash mid-append) are counted in
        ``torn_lines`` and skipped; a later ``done`` for the same cell
        supersedes an earlier ``failed`` and vice versa (last wins), so
        a resumed sweep that finally completes a flaky cell reports it
        as completed.
        """
        replay = JournalReplay()
        if not self.path.exists():
            return replay
        for raw in self._iter_lines():
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                replay.torn_lines += 1
                continue
            if not isinstance(record, dict):
                replay.torn_lines += 1
                continue
            kind = record.get("kind")
            if kind == "sweep":
                version = record.get("version")
                if version != JOURNAL_VERSION:
                    raise JournalError(
                        f"journal {self.path} has format version {version!r}; "
                        f"this build reads version {JOURNAL_VERSION}"
                    )
                if not replay.header:
                    replay.header = record
            elif kind == "done":
                cache_key = record.get("cache_key")
                metrics = record.get("metrics")
                if isinstance(cache_key, str) and isinstance(metrics, dict):
                    replay.completed[cache_key] = metrics
                    replay.failed.pop(cache_key, None)
                else:
                    replay.torn_lines += 1
            elif kind == "failed":
                cache_key = record.get("cache_key")
                if isinstance(cache_key, str):
                    replay.failed[cache_key] = dict(record.get("failure") or {})
                    replay.completed.pop(cache_key, None)
            # Any other kind (older journals' "start" intent markers)
            # carries nothing to recover.
        return replay

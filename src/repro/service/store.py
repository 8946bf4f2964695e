"""Durable session store: service sessions that survive server restarts.

One JSON file per session under a state directory::

    <state_dir>/session-0001.json
        {"store_version": 1, "session_id": "...", "params": {...},
         "saved_at": ..., "snapshot": "<base64 REPROSNP envelope>"}

The ``snapshot`` field reuses the versioned, zlib-compressed,
SHA-256-checksummed envelope of :mod:`repro.service.snapshot` (PR 6), so
a stored session carries the same integrity guarantees as a snapshot a
client exported — a flipped bit anywhere in the state fails the checksum
instead of resurrecting a corrupt simulator.  Files are written via
:func:`repro.runtime.atomic_write_text` (unique temp + fsync + rename):
a crash mid-save leaves the previous good file, never a torn one.

Boot recovery (:meth:`SessionStore.recover`) parses, verifies and
rebuilds each file in one step; a file that fails anywhere in that step
— torn, corrupt, failing its checksum or failing to rebuild — is
**quarantined** by :func:`repro.runtime.quarantine` (renamed to
``<name>.quarantined``, never deleted) and reported with its error, so
one bad file costs one session, not the boot.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from ..runtime import atomic_write_text, quarantine
from .snapshot import snapshot_from_text, snapshot_to_text

#: store record format version
STORE_VERSION = 1

_SESSION_NUM = re.compile(r"session-(\d+)$")


@dataclass
class StoredSession:
    """One session record as read back from disk (the default rebuild)."""

    session_id: str
    params: Dict[str, object]
    snapshot: bytes


@dataclass
class RecoveryReport:
    """What a boot-time recovery of the state directory found."""

    #: what ``rebuild`` returned for each good file, in file-name order
    recovered: List[object] = field(default_factory=list)
    #: session id (the file's stem) -> error, for every quarantined file
    quarantined: Dict[str, str] = field(default_factory=dict)

    def max_session_number(self) -> int:
        """Highest ``session-NNNN`` ordinal among recovered sessions."""
        best = 0
        for stored in self.recovered:
            match = _SESSION_NUM.match(stored.session_id)
            if match:
                best = max(best, int(match.group(1)))
        return best


class SessionStore:
    """File-per-session durable store under one state directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, session_id: str) -> Path:
        # Session ids are server-generated (``session-NNNN``), but guard
        # against path tricks anyway: the id must be a plain file name.
        if "/" in session_id or "\\" in session_id or session_id in (".", ".."):
            raise ValueError(f"invalid session id for storage: {session_id!r}")
        return self.root / f"{session_id}.json"

    def save(self, session_id: str, params: Dict[str, object], snapshot: bytes) -> Path:
        """Durably persist one session's parameters and state envelope."""
        record = {
            "store_version": STORE_VERSION,
            "session_id": session_id,
            "params": params,
            "saved_at": time.time(),
            "snapshot": snapshot_to_text(snapshot),
        }
        path = self._path(session_id)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(record))
        return path

    def delete(self, session_id: str) -> None:
        """Forget a session (e.g. after ``DELETE /sessions/{id}``)."""
        try:
            self._path(session_id).unlink(missing_ok=True)
        except OSError:
            pass  # a leftover file only costs one spurious recovery

    def recover(self, rebuild: Callable[..., object] = StoredSession) -> RecoveryReport:
        """Read every stored session back, quarantining each file that fails.

        ``rebuild(session_id=, params=, snapshot=)`` turns a parsed record
        into what the caller keeps — the server passes
        ``SimulationSession.from_stored``, which decodes and verifies the
        envelope as it restores.  Parsing, verifying and rebuilding are one
        step: any exception in it quarantines that file once and records
        its error under the file's session id.
        """
        report = RecoveryReport()
        for path in sorted(self.root.glob("*.json")):
            try:
                record = json.loads(path.read_text())
                if not isinstance(record, dict):
                    raise ValueError("store record is not an object")
                version = record.get("store_version")
                if version != STORE_VERSION:
                    raise ValueError(f"unsupported store_version {version!r}")
                session_id = record.get("session_id")
                params = record.get("params")
                text = record.get("snapshot")
                if not (isinstance(session_id, str) and isinstance(params, dict) and isinstance(text, str)):
                    raise ValueError("store record is missing required fields")
                report.recovered.append(
                    rebuild(session_id=session_id, params=params, snapshot=snapshot_from_text(text))
                )
            except Exception as exc:  # noqa: BLE001 - one bad file costs one session
                quarantine(path)
                report.quarantined[path.stem] = f"{type(exc).__name__}: {exc}"
        return report

"""Crash-safe file writes: unique temp file + fsync + atomic rename.

Every durable artifact in this repository — cache entries, sweep
journals, grid exports, ``BENCH_*.json`` perf records, persisted service
sessions — goes through these two functions so a crash (or ``kill -9``)
at any instant leaves either the complete old file or the complete new
file, never a truncated hybrid.  ``Trace.save`` pioneered the
temp-and-rename idiom; this module centralises it and adds the two
pieces the original lacked:

* a **unique** temp name (``tempfile.mkstemp`` in the target directory),
  so two processes writing the same path concurrently — e.g. two CLI
  invocations sharing one result cache — cannot clobber each other's
  half-written temp file;
* an ``fsync`` of the file (and, best-effort, its directory) before the
  rename, so the rename cannot be reordered ahead of the data reaching
  disk across a power failure.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (not all platforms allow it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the final path.

    The bytes land in a uniquely-named temp file in the same directory
    (same filesystem, so the rename is atomic), are flushed and fsync'd,
    then renamed over the target.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def quarantine(path: Path) -> None:
    """Move an unusable file aside as ``<name>.quarantined``.

    The one quarantine rule for every durable store: the file is renamed,
    never deleted, so the evidence survives for debugging.  A failed
    rename leaves the file where it is.
    """
    try:
        path.replace(path.with_name(path.name + ".quarantined"))
    except OSError:
        pass

"""Versioned, checksummed envelope for simulator snapshots.

:meth:`ClusterSimulator.snapshot` yields raw pickle bytes — fine inside
one process, fragile on the wire: a truncated upload, a bit flip in
transit or a snapshot taken by an incompatible build would surface as an
arbitrary unpickling error deep inside the simulator (or worse, as a
silently corrupted session).  The service therefore never ships raw
pickles; it wraps them in a small binary envelope::

    MAGIC (8 bytes)  | b"REPROSNP"
    VERSION (2 bytes)| big-endian uint16 format version
    DIGEST (32 bytes)| SHA-256 of the *compressed* payload
    PAYLOAD          | zlib-compressed pickle bytes

:func:`decode_snapshot` refuses anything that is not a well-formed
current-version envelope with a matching digest, so every failure mode
collapses into one typed, actionable :class:`SnapshotError` *before*
``pickle.loads`` ever sees attacker-shaped bytes.  Compression is not
cosmetic: mid-run simulators carry the full event heap and run logs, and
zlib shrinks them about five-fold, which matters when snapshots travel
through the JSON API base64-encoded.  The writer uses zlib level 1: a
session is persisted after every mutating request, and on a 259-task
GFS session (208 KB of pickle) level 1 costs 1.3 ms for 42 KB where
level 6 cost 3.5 ms for 38 KB.  The level is a writer-side choice only:
any zlib stream decodes.  ``SNAPSHOT_VERSION`` moves when what the pickle
holds changes shape: version 3 is the cluster whose per-model capacity
lives only in its capacity index (every node's listener is bound to the
index), and a version-1 or version-2 envelope (written by earlier builds)
is refused before unpickling, not migrated.

Security note: the payload is still a pickle, and unpickling executes
code.  Only restore snapshots you produced yourself — the server is a
simulation tool for trusted clients, not a hardened public endpoint
(``docs/service.md`` repeats this warning where users will see it).
"""

from __future__ import annotations

import base64
import hashlib
import struct
import zlib

#: current wire-format version; bump when the envelope layout or the shape
#: of the pickled simulator changes
SNAPSHOT_VERSION = 3

_MAGIC = b"REPROSNP"
_HEADER = struct.Struct(">8sH32s")  # magic, version, sha256 digest


class SnapshotError(ValueError):
    """A snapshot envelope failed validation (format, version or digest)."""


def encode_snapshot(raw: bytes) -> bytes:
    """Wrap raw simulator-snapshot bytes in the versioned envelope."""
    payload = zlib.compress(raw, level=1)
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(_MAGIC, SNAPSHOT_VERSION, digest) + payload


def decode_snapshot(data: bytes) -> bytes:
    """Validate an envelope and return the raw snapshot bytes inside.

    Raises
    ------
    SnapshotError
        If the envelope is truncated, carries the wrong magic, was
        written by a different format version, fails its checksum, or
        the payload does not decompress.
    """
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot too short: {len(data)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SnapshotError("not a simulator snapshot (bad magic)")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    payload = data[_HEADER.size :]
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotError("snapshot checksum mismatch (corrupt or truncated)")
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise SnapshotError(f"snapshot payload does not decompress: {exc}") from exc


def snapshot_to_text(data: bytes) -> str:
    """Base64 form of an envelope, for embedding in JSON responses."""
    return base64.b64encode(data).decode("ascii")


def snapshot_from_text(text: str) -> bytes:
    """Decode the base64 form; raises :class:`SnapshotError` on bad input."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise SnapshotError(f"snapshot is not valid base64: {exc}") from exc

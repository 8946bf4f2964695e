"""Per-session event streams: deterministic SSE with lossless resume.

:class:`SessionStream` is the service plane's live telemetry channel.
Each session owns one; the session emits small structured events into
it — the deterministic sim channel's ``pass`` and ``tick`` records
(the recorder's ``sim_listener`` hook pushes them as-is) plus explicit
operations (submit, inject, restore) — and any number of HTTP
subscribers consume them as Server-Sent Events from
``GET /sessions/{id}/stream``.

Three properties are load-bearing (and enforced by ``tests/test_stream.py``):

**Determinism.**  Events are a pure function of simulation *content*,
never of ``advance()`` call boundaries: the stream taps the recorder's
sim channel (whose records are bit-identical across chunkings) and
explicit operations, and serialises with key-sorted compact JSON — so
the full SSE byte sequence for a fixed (scenario, seed, operations) is
identical no matter how the session was stepped, which is what makes
`Last-Event-ID`` resume *provably* lossless.

**Zero observer effect.**  The stream only ever receives pushed values
(the recorder discipline, ``docs/observability.md``); it never reads
simulator state.  Subscribing, disconnecting or falling behind cannot
change ``SimulationMetrics`` or snapshot bytes.

**No backpressure.**  Emitting appends to a bounded ring and returns;
subscribers are cursors into that ring.  A slow subscriber that falls
off the ring's tail gets an explicit ``gap`` event with the count of
missed events (drop accounting) — the simulator is never throttled by
a slow reader.

Threading model: session operations run in the server's thread-pool
executor (under the per-session asyncio lock), so emits arrive from
worker threads while subscribers await in the event loop.  The ring is
guarded by a mutex; waiting subscribers are woken via
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "HEARTBEAT_FRAME",
    "SessionStream",
    "StreamSubscriber",
    "format_sse",
    "gap_frame",
    "parse_sse_stream",
    "stable_json",
]

#: SSE comment frame used as a keep-alive heartbeat (no id — heartbeats
#: are transport-level, not part of the event sequence)
HEARTBEAT_FRAME = ": hb\n\n"


def stable_json(data: Dict[str, object]) -> str:
    """Canonical event serialisation: key-sorted, compact, deterministic."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def format_sse(seq: int, event: str, data: str) -> str:
    """One SSE frame: ``id`` + ``event`` + ``data`` lines, blank-line terminated."""
    return f"id: {seq}\nevent: {event}\ndata: {data}\n\n"


def gap_frame(missed: int) -> str:
    """A subscriber-local drop-accounting frame (carries no ``id`` on
    purpose: gaps are a property of one subscription, not of the event
    sequence, so a client resuming from its last id never re-sees one)."""
    return f"event: gap\ndata: {stable_json({'missed': missed})}\n\n"


def parse_sse_stream(text: str) -> List[Dict[str, Optional[str]]]:
    """Parse SSE text into ``{id, event, data}`` dicts (tests, clients).

    Comment-only frames (heartbeats) are skipped; multi-``data``-line
    events are joined with newlines per the SSE spec.
    """
    events: List[Dict[str, Optional[str]]] = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        event: Dict[str, Optional[str]] = {"id": None, "event": None, "data": None}
        data_lines: List[str] = []
        for line in block.split("\n"):
            if line.startswith(":"):
                continue
            if ":" not in line:
                continue
            field, _, value = line.partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "id":
                event["id"] = value
            elif field == "event":
                event["event"] = value
            elif field == "data":
                data_lines.append(value)
        if data_lines:
            event["data"] = "\n".join(data_lines)
        if event["id"] is not None or event["event"] is not None or data_lines:
            events.append(event)
    return events


class StreamSubscriber:
    """A cursor into one session's event ring (one SSE connection).

    ``poll()`` returns every frame past the cursor (advancing it) plus
    the count of events that expired off the ring before they could be
    delivered; ``wait()`` parks until new events arrive or a timeout
    (heartbeat interval) elapses.  Counters feed the stream's drop
    accounting.
    """

    def __init__(self, stream: "SessionStream", subscriber_id: int, cursor: int):
        self._stream = stream
        self.subscriber_id = subscriber_id
        self.cursor = cursor
        self.delivered = 0
        self.dropped = 0
        self._closed = False

    def poll(self) -> Tuple[List[str], int]:
        """(new frames past the cursor, events lost off the ring's tail)."""
        frames, missed, self.cursor = self._stream._collect(self.cursor)
        self.delivered += len(frames)
        if missed:
            self.dropped += missed
        return frames, missed

    async def wait(self, timeout: float) -> None:
        """Park until an emit (possibly) lands past the cursor, or timeout."""
        await self._stream._wait_past(self.cursor, timeout)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._stream._unsubscribe(self)


class SessionStream:
    """Bounded, sequence-numbered event ring for one session (module doc).

    ``backlog`` bounds both memory and the lossless-resume window: a
    reconnect with ``Last-Event-ID`` within the last ``backlog`` events
    replays exactly the missed frames; older cursors get a ``gap``.
    Frames are rendered once at emit time, so fan-out to N subscribers
    costs N socket writes and zero re-serialisation.

    :meth:`emit` is also the recorder's ``sim_listener`` protocol, so the
    sim channel's ``pass``/``tick`` records land as-is — attach with
    ``recorder.sim_listener = stream``.
    """

    def __init__(self, session_id: str, backlog: int = 4096):
        if backlog < 1:
            raise ValueError("stream backlog must be >= 1")
        self.session_id = session_id
        self.backlog = backlog
        self.last_seq = 0
        #: total events expired off the ring (independent of subscribers)
        self.expired = 0
        #: cumulative events dropped across all subscribers (gap totals)
        self.subscriber_drops = 0
        self.total_subscribers = 0
        self._ring: Deque[Tuple[int, str]] = deque()
        self._lock = threading.Lock()
        self._subscribers: Dict[int, StreamSubscriber] = {}
        self._next_subscriber = 1
        # waiter Event -> its owning loop (woken cross-thread on emit)
        self._waiters: Dict[asyncio.Event, asyncio.AbstractEventLoop] = {}

    # ------------------------------------------------------------------
    # Emit side (called from session operations / recorder listener)
    # ------------------------------------------------------------------
    def emit(self, event: str, data: Dict[str, object]) -> int:
        """Append one event; returns its sequence number.  Never blocks."""
        payload = stable_json(data)
        with self._lock:
            self.last_seq += 1
            seq = self.last_seq
            self._ring.append((seq, format_sse(seq, event, payload)))
            if len(self._ring) > self.backlog:
                self._ring.popleft()
                self.expired += 1
            waiters = list(self._waiters.items())
        for waiter, loop in waiters:
            try:
                loop.call_soon_threadsafe(waiter.set)
            except RuntimeError:
                pass  # loop already closed; its subscriber is gone anyway
        return seq

    # ------------------------------------------------------------------
    # Subscribe side (server stream handler)
    # ------------------------------------------------------------------
    def subscribe(self, after_seq: int = 0) -> StreamSubscriber:
        """A new cursor positioned just past ``after_seq`` (``Last-Event-ID``).

        ``after_seq=0`` (a fresh client) starts at the *live edge* — it
        sees only events emitted after it connected.  A resuming client
        passes its last received id and replays forward from there.
        """
        with self._lock:
            cursor = self.last_seq if after_seq <= 0 else min(after_seq, self.last_seq)
            sub = StreamSubscriber(self, self._next_subscriber, cursor)
            self._next_subscriber += 1
            self._subscribers[sub.subscriber_id] = sub
            self.total_subscribers += 1
        return sub

    def _unsubscribe(self, sub: StreamSubscriber) -> None:
        with self._lock:
            self._subscribers.pop(sub.subscriber_id, None)
            self.subscriber_drops += sub.dropped

    def _collect(self, cursor: int) -> Tuple[List[str], int, int]:
        """Frames past ``cursor`` plus (missed count, new cursor)."""
        with self._lock:
            earliest = self.last_seq - len(self._ring) + 1
            missed = 0
            if cursor + 1 < earliest:
                missed = earliest - cursor - 1
                cursor = earliest - 1
            frames = [frame for seq, frame in self._ring if seq > cursor]
            return frames, missed, self.last_seq

    async def _wait_past(self, cursor: int, timeout: float) -> None:
        waiter = asyncio.Event()
        loop = asyncio.get_running_loop()
        with self._lock:
            if self.last_seq > cursor:
                return
            self._waiters[waiter] = loop
        try:
            await asyncio.wait_for(waiter.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            with self._lock:
                self._waiters.pop(waiter, None)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def active_subscribers(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            live_drops = sum(s.dropped for s in self._subscribers.values())
            delivered = sum(s.delivered for s in self._subscribers.values())
            return {
                "last_seq": self.last_seq,
                "backlog": self.backlog,
                "buffered": len(self._ring),
                "expired": self.expired,
                "active_subscribers": len(self._subscribers),
                "total_subscribers": self.total_subscribers,
                "delivered": delivered,
                "subscriber_drops": self.subscriber_drops + live_drops,
            }

    # The stream is host-local plumbing, never simulation state: keep it
    # (and the recorder that points at it) out of any pickle by accident.
    def __reduce__(self):
        raise TypeError("SessionStream is not picklable (host-local, not simulation state)")

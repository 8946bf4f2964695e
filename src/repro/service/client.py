"""Clients for the streaming scheduler service.

One API surface on two transports:

* :class:`ServiceClient` — synchronous, built on :mod:`http.client`
  with one persistent keep-alive connection.  For scripts and notebooks.
* :class:`AsyncServiceClient` — asyncio, built on
  ``asyncio.open_connection``.  For concurrent load tests and callers
  already inside an event loop.

The route methods are written once, on :class:`_ServiceAPI`; each ends in
``self._request(...)``, which the synchronous transport answers with the
decoded reply and the asyncio transport with an awaitable of it — so
``client.advance(sid)`` and ``await client.advance(sid)`` are the same
method.  Both raise :class:`ServiceError` on any non-200 response,
carrying the HTTP status and the server's ``error`` message.  Method
names mirror the routes one-to-one; see ``docs/service.md`` for the
payload shapes.

Retry safety
------------
Transport failures (server restart, dropped keep-alive connection) are
retried with deterministic backoff — but *only* for requests that are
safe to deliver twice.  ``GET``/``DELETE`` are idempotent by HTTP
semantics; every ``POST`` the clients emit carries a generated
``Idempotency-Key`` header, reused verbatim across retries of the same
logical call, which the server uses to coalesce duplicate deliveries
onto one operation (see ``docs/fault_tolerance.md``).  A ``POST`` issued
without a key — only possible through the private transport layer — is
never retried: if the connection dies after the bytes left, the request
may or may not have executed, and replaying it blind could double-submit.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
import uuid
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.guards import RetryPolicy
from .snapshot import snapshot_from_text, snapshot_to_text
from .stream import parse_sse_stream

#: transport-level delivery attempts per request (1 original + retries)
DEFAULT_RETRIES = 2
#: deterministic exponential backoff between delivery attempts
_BACKOFF = RetryPolicy(base_s=0.05, factor=2.0, cap_s=2.0)


def _new_idempotency_key() -> str:
    """A fresh key binding all deliveries of one logical mutating call."""
    return uuid.uuid4().hex


class ServiceError(RuntimeError):
    """A service request failed; carries the HTTP status and message."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


# ----------------------------------------------------------------------
# What both transports share: framing, the retry rule, reply decoding
# ----------------------------------------------------------------------
def _prepare(
    method: str, payload: Optional[Mapping], idempotency_key: Optional[str], retries: int
) -> Tuple[bytes, Dict[str, str], int]:
    """Body, extra headers and delivery attempts of one logical request."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    extra_headers = {"Idempotency-Key": idempotency_key} if idempotency_key else {}
    # A request is only re-sent when delivering it twice is safe:
    # GET/DELETE by HTTP semantics, POST only when an Idempotency-Key
    # binds every delivery to one server-side operation.  An unkeyed
    # POST that dies mid-flight may already have executed — replaying
    # it blind could double-submit, so it fails loudly instead.
    retryable = method in ("GET", "DELETE") or bool(idempotency_key)
    return body, extra_headers, 1 + (retries if retryable else 0)


def _service_error(status: int, data: bytes) -> ServiceError:
    """The error a non-200 reply stands for (the server's ``error`` field, else the body)."""
    try:
        decoded = json.loads(data) if data else {}
    except ValueError:
        decoded = {}
    return ServiceError(status, decoded.get("error", data.decode("utf-8", "replace")))


def _decode_json(data: bytes) -> Dict:
    return json.loads(data) if data else {}


def _decode_sessions(data: bytes) -> List[Dict]:
    return _decode_json(data)["sessions"]


def _decode_text(data: bytes) -> str:
    return data.decode("utf-8")


def _decode_snapshot(data: bytes) -> bytes:
    return snapshot_from_text(_decode_json(data)["snapshot"])


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, int]:
    """Status code and ``Content-Length`` of the response head on ``reader``."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response arrived")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, length


class _ServiceAPI:
    """The service's routes as methods, independent of the transport.

    A transport supplies ``_request``; whatever it returns — the decoded
    reply (:class:`ServiceClient`) or an awaitable of it
    (:class:`AsyncServiceClient`) — is what every method here returns.
    The annotations name the decoded reply.
    """

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        idempotency_key: Optional[str] = None,
        decode: Callable[[bytes], object] = _decode_json,
    ):
        """Deliver one logical request and ``decode`` the 200 reply body."""
        raise NotImplementedError

    def _post(
        self,
        path: str,
        payload: Optional[Mapping] = None,
        decode: Callable[[bytes], object] = _decode_json,
    ):
        """A mutating POST: one fresh key spans all its delivery attempts."""
        return self._request("POST", path, payload, _new_idempotency_key(), decode)

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def shutdown(self) -> Dict:
        return self._post("/shutdown")

    def readyz(self) -> Dict:
        return self._request("GET", "/readyz")

    def list_sessions(self) -> List[Dict]:
        return self._request("GET", "/sessions", decode=_decode_sessions)

    def create_session(self, **params) -> Dict:
        return self._post("/sessions", params)

    def status(self, session_id: str) -> Dict:
        return self._request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> Dict:
        return self._request("DELETE", f"/sessions/{session_id}")

    def advance(
        self,
        session_id: str,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Dict:
        return self._post(
            f"/sessions/{session_id}/advance", {"until": until, "max_events": max_events}
        )

    def submit(self, session_id: str, tasks: Sequence[Mapping]) -> Dict:
        return self._post(f"/sessions/{session_id}/submit", {"tasks": list(tasks)})

    def inject(self, session_id: str, **payload) -> Dict:
        return self._post(f"/sessions/{session_id}/inject", payload)

    def what_if(self, session_id: str, task: Mapping, horizon_hours: float = 24.0) -> Dict:
        return self._post(
            f"/sessions/{session_id}/whatif", {"task": dict(task), "horizon_hours": horizon_hours}
        )

    def occupancy(self, session_id: str) -> Dict:
        return self._request("GET", f"/sessions/{session_id}/occupancy")

    def quota(self, session_id: str) -> Dict:
        return self._request("GET", f"/sessions/{session_id}/quota")

    def metrics(self, session_id: str) -> Dict:
        return self._request("GET", f"/sessions/{session_id}/metrics")

    def stats(self, session_id: str) -> Dict:
        """Live observability stats: status plus the session's recorder snapshot."""
        return self._request("GET", f"/sessions/{session_id}/stats")

    def metrics_text(self) -> str:
        """Scrape the server-wide Prometheus exposition page (``GET /metrics``)."""
        return self._request("GET", "/metrics", decode=_decode_text)

    def snapshot(self, session_id: str) -> bytes:
        """Export the session's state as versioned envelope bytes."""
        return self._post(f"/sessions/{session_id}/snapshot", decode=_decode_snapshot)

    def restore(self, session_id: str, snapshot: bytes) -> Dict:
        return self._post(
            f"/sessions/{session_id}/restore", {"snapshot": snapshot_to_text(snapshot)}
        )


class ServiceClient(_ServiceAPI):
    """Synchronous client holding one persistent connection.

    Example
    -------
    >>> client = ServiceClient("127.0.0.1", 8151)
    >>> session = client.create_session(scheduler="gfs", num_nodes=16)
    >>> client.submit(session["session_id"], [task_payload])
    >>> client.advance(session["session_id"], until=3600.0)
    >>> client.close()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8151,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self._conn: Optional[http.client.HTTPConnection] = None

    def _send_once(
        self, method: str, path: str, body: bytes, extra_headers: Mapping[str, str]
    ) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            **extra_headers,
        }
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        idempotency_key: Optional[str] = None,
        decode: Callable[[bytes], object] = _decode_json,
    ):
        body, extra_headers, attempts = _prepare(method, payload, idempotency_key, self.retries)
        for attempt in range(1, attempts + 1):
            try:
                status, data = self._send_once(method, path, body, extra_headers)
            except (http.client.HTTPException, OSError):
                # The connection is poisoned either way (stale keep-alive,
                # server restart); drop it so any retry reconnects fresh.
                self.close()
                if attempt == attempts:
                    raise
                time.sleep(_BACKOFF.delay(attempt))
                continue
            if status != 200:
                raise _service_error(status, data)
            return decode(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


class SSESubscription:
    """One live ``GET /sessions/{id}/stream`` connection (SSE).

    Returned by :meth:`AsyncServiceClient.open_stream`; each
    subscription owns a dedicated connection (the stream never yields
    the socket back to request/response framing).  :meth:`read_frame`
    returns raw frames — heartbeat comments included — and appends
    every byte to :attr:`raw`, which is what the byte-identity tests in
    ``tests/test_stream.py`` compare; :meth:`read_event` skips
    heartbeats and hands back parsed ``{id, event, data}`` dicts.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._buffer = b""
        #: every stream byte received, in order (frames + heartbeats)
        self.raw = bytearray()
        #: last event id seen (feed to ``open_stream`` to resume)
        self.last_event_id: Optional[int] = None

    async def read_frame(self, timeout: Optional[float] = None) -> Optional[str]:
        """The next raw SSE frame (ending ``\\n\\n``), or ``None`` on EOF."""
        while b"\n\n" not in self._buffer:
            read = self._reader.read(4096)
            chunk = await (asyncio.wait_for(read, timeout) if timeout is not None else read)
            if not chunk:
                return None
            self._buffer += chunk
        frame, _, self._buffer = self._buffer.partition(b"\n\n")
        frame += b"\n\n"
        self.raw += frame
        return frame.decode("utf-8")

    async def read_event(self, timeout: Optional[float] = None) -> Optional[Dict[str, Optional[str]]]:
        """The next parsed event (heartbeat comments skipped); ``None`` on EOF."""
        while True:
            frame = await self.read_frame(timeout)
            if frame is None:
                return None
            events = parse_sse_stream(frame)
            if not events:
                continue  # heartbeat / comment frame
            event = events[0]
            if event["id"] is not None:
                self.last_event_id = int(event["id"])
            return event

    async def close(self) -> None:
        await _close_writer(self._writer)


class AsyncServiceClient(_ServiceAPI):
    """Asyncio client over one persistent keep-alive connection.

    The transport is deliberately minimal — write request, read
    ``Content-Length``-framed response — because that is the only
    protocol shape the server emits.  One client instance is one
    connection and must not be shared between concurrently-running
    coroutines; spawn one client per concurrent worker instead (the
    concurrency tests do exactly that).

    Example
    -------
    >>> client = AsyncServiceClient("127.0.0.1", 8151)
    >>> session = await client.create_session(scheduler="fgd")
    >>> await client.advance(session["session_id"], until=7200.0)
    >>> await client.close()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8151, retries: int = DEFAULT_RETRIES):
        self.host = host
        self.port = port
        self.retries = max(0, int(retries))
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def close(self) -> None:
        if self._writer is not None:
            await _close_writer(self._writer)
            self._reader = None
            self._writer = None

    async def _send_once(
        self, method: str, path: str, body: bytes, extra_headers: Mapping[str, str]
    ) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in extra_headers.items())
            + "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status, length = await _read_head(self._reader)
        return status, (await self._reader.readexactly(length) if length else b"")

    async def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        idempotency_key: Optional[str] = None,
        decode: Callable[[bytes], object] = _decode_json,
    ):
        body, extra_headers, attempts = _prepare(method, payload, idempotency_key, self.retries)
        for attempt in range(1, attempts + 1):
            try:
                status, data = await self._send_once(method, path, body, extra_headers)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                # Poisoned connection (see ServiceClient._request); a
                # garbled status line surfaces as ValueError.
                await self.close()
                if attempt == attempts:
                    raise
                await asyncio.sleep(_BACKOFF.delay(attempt))
                continue
            if status != 200:
                raise _service_error(status, data)
            return decode(data)

    async def open_stream(
        self, session_id: str, last_event_id: Optional[int] = None
    ) -> SSESubscription:
        """Subscribe to the session's live SSE event stream.

        Opens a *dedicated* connection (independent of this client's
        keep-alive one, so requests and streaming never interleave).
        Pass the previous subscription's ``last_event_id`` to resume
        losslessly within the server's backlog window.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"GET /sessions/{session_id}/stream HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Accept: text/event-stream\r\n"
        )
        if last_event_id is not None:
            head += f"Last-Event-ID: {int(last_event_id)}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1"))
        await writer.drain()
        status, length = await _read_head(reader)
        if status != 200:
            data = await reader.readexactly(length) if length else b""
            writer.close()
            raise _service_error(status, data)
        sub = SSESubscription(reader, writer)
        if last_event_id is not None:
            sub.last_event_id = int(last_event_id)
        return sub

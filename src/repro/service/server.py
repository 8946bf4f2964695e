"""Asyncio scheduler service: streaming sessions over HTTP/JSON.

Stdlib only — the transport is a hand-rolled HTTP/1.1 server on
``asyncio.start_server`` (no aiohttp dependency), which is entirely
adequate for a JSON control plane: requests are small, responses are
JSON, and keep-alive plus ``Content-Length`` framing is all the protocol
surface the clients in :mod:`repro.service.client` use.

Concurrency model
-----------------
Each connection is one asyncio task; many clients interleave freely.
Simulator work is synchronous and CPU-bound, so every session carries an
``asyncio.Lock`` and all operations on it — stepping, submission,
queries, what-if forks — run under that lock in the default thread-pool
executor.  That gives:

* **per-session serial order**: operations on one session never
  interleave, so the simulator's determinism contract survives any
  client concurrency (the order of *independent* client requests is
  necessarily racy, but each request is atomic);
* **cross-session isolation**: sessions share nothing but the registry
  dict, so queries against one session cannot perturb another — guarded
  by ``tests/test_service.py``;
* **a responsive loop**: the event loop only parses bytes and routes;
  long advances run off-loop, bounded by ``max_events`` chunking in
  the what-if path.

Durability (see ``docs/fault_tolerance.md``)
--------------------------------------------
With a ``state_dir`` the server is restart-safe: session creation and
every mutating operation persist the session under its lock — parameters
plus the same versioned, checksummed snapshot envelope clients export —
via atomic temp-and-rename writes, and nothing else writes it.  The disk
holds the state after the last mutation whose persist succeeded; a
failed persist is a 500 plus a ``persist_failed`` event, and the next
successful one catches up.  Boot recovery rebuilds every stored session
before ``GET /readyz`` flips to ready; a file that fails to parse,
verify or rebuild is quarantined (one ``session_quarantined`` event
each), never fatal.  ``POST`` requests may carry an ``Idempotency-Key``
header: duplicate deliveries of the same key (client retries after a
lost connection) coalesce onto the *same* in-flight operation and
receive its one result, so a retried submit never double-submits.  A
``request_timeout_s`` bounds each request: past the deadline the client
gets 504 while the operation runs to completion server-side (cancelling
mid-mutation under the session lock would be worse than waiting).

Routes (all JSON; see ``docs/service.md`` for request/response bodies)::

    GET    /healthz
    GET    /readyz                       503 until boot recovery finishes
    GET    /metrics                      Prometheus text: server + every session
    GET    /sessions                     list sessions
    POST   /sessions                     create a session
    GET    /sessions/{id}                status
    DELETE /sessions/{id}                drop a session
    POST   /sessions/{id}/advance        step the simulator
    POST   /sessions/{id}/submit         stream task submissions
    POST   /sessions/{id}/inject         inject a dynamics event
    POST   /sessions/{id}/whatif         speculative placement advice
    GET    /sessions/{id}/occupancy      live cluster occupancy
    GET    /sessions/{id}/quota          per-org quota headroom
    GET    /sessions/{id}/metrics        full metrics of the run so far
    GET    /sessions/{id}/stats          live recorder stats (passes, counters)
    GET    /sessions/{id}/stream         live SSE event stream (docs/observability.md)
    POST   /sessions/{id}/snapshot       export a versioned snapshot
    POST   /sessions/{id}/restore        replace state from a snapshot
    GET    /dashboard                    self-contained live HTML dashboard
    POST   /shutdown                     stop the server
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..obs import PROMETHEUS_CONTENT_TYPE, Recorder, render_recorder
from ..obs.logging import new_run_id
from ..obs.telemetry import TelemetryBus
from .dashboard import DASHBOARD_HTML
from .session import SessionError, SimulationSession, advance_session_counter
from .snapshot import SnapshotError, snapshot_from_text, snapshot_to_text
from .store import RecoveryReport, SessionStore
from .stream import HEARTBEAT_FRAME, SessionStream, gap_frame

#: requests larger than this are rejected outright (snapshots dominate;
#: a FULL-scale mid-run snapshot compresses to a few MB)
MAX_BODY_BYTES = 256 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024

#: completed idempotency results kept for duplicate delivery (oldest drop)
IDEMPOTENCY_CACHE_SIZE = 1024

#: session verbs whose handlers mutate simulator state (persisted after)
_MUTATING_VERBS = frozenset({"advance", "submit", "inject", "restore"})

#: seconds between SSE keep-alive comments on an otherwise idle stream
STREAM_HEARTBEAT_S = 15.0


class TextResponse:
    """A non-JSON response body (``GET /metrics``' Prometheus page)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str = "text/plain; charset=utf-8"):
        self.text = text
        self.content_type = content_type


class StreamHandle:
    """Sentinel payload: switch this connection to SSE streaming mode.

    Returned by the ``GET /sessions/{id}/stream`` route; the connection
    handler detects it and hands the socket to ``_serve_stream`` instead
    of the Content-Length response writer.
    """

    __slots__ = ("stream",)

    def __init__(self, stream: SessionStream):
        self.stream = stream


class _HttpError(Exception):
    """Terminates request handling with a specific status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class SchedulerServer:
    """The streaming scheduler service (see module docstring).

    Example
    -------
    >>> server = SchedulerServer()
    >>> await server.start(port=0)          # 0 = ephemeral port
    >>> server.port                          # actual bound port
    >>> await server.wait_closed()           # returns after POST /shutdown
    """

    def __init__(
        self,
        state_dir: str | Path | None = None,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        self._sessions: Dict[str, SimulationSession] = {}
        self._locks: Dict[str, asyncio.Lock] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self.host: str = ""
        self.port: int = 0
        #: where requests, quarantines and failed persists are reported: one
        #: ``repro.telemetry`` log line each, silent unless the host
        #: configures logging (``cli serve --log-level info`` does)
        self.telemetry = TelemetryBus(run_id=new_run_id("svc"))
        #: seconds between keep-alive comments on idle SSE streams
        self.stream_heartbeat_s = STREAM_HEARTBEAT_S
        #: server-level instruments: request counts and latencies
        self.recorder = Recorder()
        #: durable session store (None = in-memory-only service, as before)
        self.store = SessionStore(state_dir) if state_dir else None
        #: per-request deadline; past it the client gets 504 while the
        #: operation runs to completion server-side
        self.request_timeout_s = request_timeout_s
        #: what boot recovery found (None until it has run)
        self.recovery: Optional[RecoveryReport] = None
        self._ready = asyncio.Event()
        #: scoped Idempotency-Key -> in-flight/completed dispatch task
        self._idempotent: "OrderedDict[str, asyncio.Task]" = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 8151) -> None:
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        # The listener is up (so readiness probes can connect and get
        # 503) but session routes stay gated until recovery finishes.
        await self._recover_sessions()
        self._ready.set()

    async def wait_closed(self) -> None:
        """Block until a shutdown is requested, then close the listener."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    async def _recover_sessions(self) -> None:
        """Rebuild every stored session before the server reports ready.

        A file that fails to parse, verify or rebuild (e.g. its scenario
        was removed from the registry) is quarantined by the store and
        reported here as one ``session_quarantined`` event — one lost
        session must never take the boot down.
        """
        if self.store is None:
            return
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(None, self.store.recover, SimulationSession.from_stored)
        for session_id, error in report.quarantined.items():
            self.telemetry.emit("session_quarantined", session_id=session_id, error=error)
        for session in report.recovered:
            self._sessions[session.session_id] = session
            self._locks[session.session_id] = asyncio.Lock()
        # Never re-issue a recovered id to a newly-created session.
        advance_session_counter(report.max_session_number() + 1)
        self.recovery = report

    def _persist(self, session: SimulationSession) -> None:
        """Durably save one session (called off-loop, under its lock).

        The only writer of a session's file: a failure is reported as
        ``persist_failed`` here and then propagates, so the request that
        mutated the session answers 500.
        """
        if self.store is None:
            return
        try:
            self.store.save(session.session_id, dict(session.params), session.snapshot_bytes())
        except Exception as exc:
            self.telemetry.emit("persist_failed", session_id=session.session_id, error=str(exc))
            raise

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Framing errors poison the stream; answer and hang up.
                    await self._write_response(
                        writer, exc.status, {"error": exc.message}, keep_alive=False
                    )
                    break
                if request is None:
                    break  # client closed the connection
                method, path, body, keep_alive, headers = request
                started = time.perf_counter()
                status, payload = await self._dispatch(method, path, body, headers)
                if isinstance(payload, StreamHandle):
                    # The connection becomes a dedicated SSE channel; it
                    # never returns to request/response framing.
                    await self._serve_stream(writer, payload.stream, headers)
                    duration_ms = (time.perf_counter() - started) * 1000.0
                    self._observe_request(method, path, status, duration_ms)
                    break
                duration_ms = (time.perf_counter() - started) * 1000.0
                self._observe_request(method, path, status, duration_ms)
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to clean up
        except asyncio.CancelledError:
            # Event-loop teardown cancels idle keep-alive handlers;
            # finishing normally (socket closed below) keeps asyncio's
            # stream-protocol done-callback from logging the cancel.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _observe_request(self, method: str, path: str, status: int, duration_ms: float) -> None:
        """Structured access log line + server-level request instruments."""
        session_id = None
        clean = path.split("?", 1)[0]
        if clean.startswith("/sessions/"):
            session_id = clean[len("/sessions/"):].split("/", 1)[0] or None
        self.telemetry.emit(
            "http_request",
            method=method,
            path=clean,
            status=status,
            duration_ms=round(duration_ms, 2),
            session_id=session_id,
        )
        self.recorder.count(
            "http.requests", 1.0, {"method": method, "status": str(status)}
        )
        self.recorder.observe("http.request_s", duration_ms / 1000.0)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes, bool, Dict[str, str]]]:
        """Parse one HTTP/1.1 request; ``None`` on clean connection close."""
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, "request headers too large") from exc
        if len(header_blob) > _MAX_HEADER_BYTES:
            raise _HttpError(431, "request headers too large")
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        parts = head.split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {head!r}")
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not raw_length.isdecimal():  # a sign, letters or a blank are not a length
            raise _HttpError(400, f"malformed Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return method.upper(), path, body, keep_alive, headers

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: object, keep_alive: bool
    ) -> None:
        if isinstance(payload, TextResponse):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 413: "Payload Too Large", 431: "Headers Too Large",
                  500: "Internal Server Error", 503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, object]:
        """Dispatch one request: idempotency coalescing + deadline.

        A ``POST`` carrying an ``Idempotency-Key`` header is bound to one
        dispatch task per ``(method, path, key)``: the first delivery
        starts the operation, every duplicate — including retries sent
        while the original is *still executing* under the session lock —
        awaits that same task and receives its single result.  The
        per-request deadline 504s the waiter but never cancels the task
        (the operation finishes server-side; a later retry with the same
        key collects the result).
        """
        idem_key = (headers or {}).get("idempotency-key", "")
        inner = self._dispatch_inner(method, path, body)
        if idem_key and method == "POST":
            scoped = f"{method} {path.split('?', 1)[0]} {idem_key}"
            task = self._idempotent.get(scoped)
            if task is None:
                task = asyncio.ensure_future(inner)
                self._idempotent[scoped] = task
                while len(self._idempotent) > IDEMPOTENCY_CACHE_SIZE:
                    self._idempotent.popitem(last=False)
            else:
                inner.close()  # duplicate delivery: join the original
            return await self._await_with_deadline(task)
        return await self._await_with_deadline(asyncio.ensure_future(inner))

    async def _await_with_deadline(self, task: "asyncio.Task") -> Tuple[int, object]:
        if self.request_timeout_s is None:
            return await asyncio.shield(task)
        try:
            return await asyncio.wait_for(asyncio.shield(task), self.request_timeout_s)
        except asyncio.TimeoutError:
            return 504, {
                "error": (
                    f"request exceeded the {self.request_timeout_s:g}s deadline; "
                    "the operation continues server-side (retry idempotent "
                    "requests with the same Idempotency-Key to collect the result)"
                )
            }

    async def _dispatch_inner(self, method: str, path: str, body: bytes) -> Tuple[int, object]:
        try:
            return await self._route(method, path, body)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}
        except (SessionError, SnapshotError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one request must never kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, object]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "ready": self._ready.is_set(),
                "sessions": len(self._sessions),
                "durable": self.store is not None,
            }
        if path == "/readyz" and method == "GET":
            if not self._ready.is_set():
                return 503, {"status": "starting", "reason": "recovering sessions"}
            payload = {"status": "ready", "sessions": len(self._sessions)}
            if self.recovery is not None:
                payload["recovered"] = len(self.recovery.recovered)
                payload["quarantined"] = len(self.recovery.quarantined)
            return 200, payload
        if path == "/metrics" and method == "GET":
            return await self._metrics_page()
        if path == "/dashboard" and method == "GET":
            return 200, TextResponse(DASHBOARD_HTML, "text/html; charset=utf-8")
        if path == "/shutdown" and method == "POST":
            self._shutdown.set()
            return 200, {"status": "shutting down"}
        if not self._ready.is_set():
            # Session routes are gated until boot recovery finishes, so a
            # client can never observe (or mutate) a half-recovered set.
            return 503, {"error": "server is starting: session recovery in progress"}
        if path == "/sessions":
            if method == "GET":
                return 200, {"sessions": [s.status() for s in self._sessions.values()]}
            if method == "POST":
                return await self._create_session(self._json_body(body))
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/sessions/"):
            rest = path[len("/sessions/") :]
            session_id, _, verb = rest.partition("/")
            return await self._session_route(method, session_id, verb, body)
        raise _HttpError(404, f"no route for {path}")

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    async def _metrics_page(self) -> Tuple[int, object]:
        """``GET /metrics``: Prometheus text for the server and every session.

        One server-level section (request counters/latency) followed by
        one section per live session, each sample labelled
        ``session="<id>"``.  Session sections render under that session's
        lock so a concurrent advance cannot mutate the recorder's dicts
        mid-iteration.
        """
        sections = [
            render_recorder(self.recorder, extra_labels={"session": "_server"})
        ]
        for session_id in sorted(self._sessions):
            session = self._sessions.get(session_id)
            lock = self._locks.get(session_id)
            if session is None or lock is None:
                continue  # deleted between listing and rendering
            sections.append(
                await self._run(lock, session.prometheus_section)
            )
        page = "".join(s for s in sections if s)
        return 200, TextResponse(page, PROMETHEUS_CONTENT_TYPE)

    async def _create_session(self, payload: dict) -> Tuple[int, object]:
        loop = asyncio.get_running_loop()

        def build() -> SimulationSession:
            # Construction builds a trace and a cluster — CPU work, off-loop.
            session = SimulationSession(payload)
            self._persist(session)
            return session

        session = await loop.run_in_executor(None, build)
        self._sessions[session.session_id] = session
        self._locks[session.session_id] = asyncio.Lock()
        return 200, session.status()

    def _session(self, session_id: str) -> SimulationSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise _HttpError(404, f"no such session: {session_id!r}")
        return session

    async def _session_route(
        self, method: str, session_id: str, verb: str, body: bytes
    ) -> Tuple[int, object]:
        session = self._session(session_id)
        lock = self._locks[session_id]
        if not verb:
            if method == "GET":
                return 200, await self._run(lock, session.status)
            if method == "DELETE":
                del self._sessions[session_id]
                del self._locks[session_id]
                if self.store is not None:
                    self.store.delete(session_id)
                return 200, {"deleted": session_id}
            raise _HttpError(405, f"{method} not allowed on session root")

        if verb == "stream":
            if method != "GET":
                raise _HttpError(405, "stream only supports GET")
            if session.stream is None:
                raise _HttpError(
                    409, f"streaming is disabled for session {session_id!r} (stream_backlog=0)"
                )
            # No session lock and no executor hop: subscribing is a
            # cursor registration, and delivery happens on the loop while
            # session operations emit from worker threads.
            return 200, StreamHandle(session.stream)

        payload = self._json_body(body) if method == "POST" else {}
        routes = {
            ("POST", "advance"): lambda: session.advance(
                payload.get("until"), payload.get("max_events")
            ),
            ("POST", "submit"): lambda: session.submit(self._task_list(payload)),
            ("POST", "inject"): lambda: session.inject(payload),
            ("POST", "whatif"): lambda: session.what_if(
                self._task_payload(payload), payload.get("horizon_hours", 24.0)
            ),
            ("GET", "occupancy"): session.occupancy,
            ("GET", "quota"): session.quota,
            ("GET", "metrics"): session.metrics,
            ("GET", "stats"): session.stats,
            ("POST", "snapshot"): lambda: {
                "session_id": session.session_id,
                "snapshot": snapshot_to_text(session.snapshot_bytes()),
            },
            ("POST", "restore"): lambda: session.restore_bytes(
                snapshot_from_text(self._text_field(payload, "snapshot"))
            ),
        }
        handler = routes.get((method, verb))
        if handler is None:
            raise _HttpError(404, f"no route for {method} /sessions/{{id}}/{verb}")
        if verb in _MUTATING_VERBS:
            # Apply-then-persist as one unit under the session lock, so
            # the stored state can never skip a mutation.
            def apply_and_persist():
                result = handler()
                self._persist(session)
                return result

            return 200, await self._run(lock, apply_and_persist)
        return 200, await self._run(lock, handler)

    async def _serve_stream(
        self,
        writer: asyncio.StreamWriter,
        stream: SessionStream,
        headers: Mapping[str, str],
    ) -> None:
        """Pump one SSE subscription until the client or server goes away.

        The connection is dedicated: headers go out without a
        ``Content-Length`` (the stream has no end), frames are written
        as the ring produces them, idle periods are bridged with comment
        heartbeats, and a cursor that fell off the ring is told so with
        an explicit ``gap`` event before delivery resumes.  Emitters are
        never throttled by this loop — a slow socket only grows its own
        subscriber's gap count.
        """
        last_id = str(headers.get("last-event-id", "")).strip()
        try:
            after_seq = int(last_id) if last_id else 0
        except ValueError:
            after_seq = 0  # unparseable resume point: start at the live edge
        subscriber = stream.subscribe(after_seq)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        try:
            await writer.drain()
            while not self._shutdown.is_set():
                frames, missed = subscriber.poll()
                if not frames and not missed:
                    await subscriber.wait(self.stream_heartbeat_s)
                    frames, missed = subscriber.poll()
                chunks = []
                if missed:
                    chunks.append(gap_frame(missed))
                chunks.extend(frames)
                if not chunks:
                    chunks.append(HEARTBEAT_FRAME)  # idle keep-alive
                writer.write("".join(chunks).encode("utf-8"))
                await writer.drain()
        finally:
            subscriber.close()

    @staticmethod
    async def _run(lock: asyncio.Lock, fn):
        """Run one session operation: serialised per session, off-loop."""
        loop = asyncio.get_running_loop()
        async with lock:
            return await loop.run_in_executor(None, fn)

    @staticmethod
    def _task_list(payload: dict) -> list:
        tasks = payload.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            raise _HttpError(400, "submit body must carry a non-empty 'tasks' array")
        return tasks

    @staticmethod
    def _task_payload(payload: dict) -> dict:
        task = payload.get("task")
        if not isinstance(task, dict):
            raise _HttpError(400, "whatif body must carry a 'task' object")
        return task

    @staticmethod
    def _text_field(payload: dict, field: str) -> str:
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise _HttpError(400, f"body must carry a non-empty {field!r} string")
        return value


async def serve(
    host: str = "127.0.0.1",
    port: int = 8151,
    state_dir: str | Path | None = None,
    request_timeout_s: Optional[float] = None,
) -> None:
    """Start a server and run until ``POST /shutdown`` (CLI entry point)."""
    server = SchedulerServer(state_dir=state_dir, request_timeout_s=request_timeout_s)
    await server.start(host, port)
    banner = f"scheduler service listening on http://{server.host}:{server.port}"
    if server.store is not None:
        recovered = len(server.recovery.recovered) if server.recovery else 0
        quarantined = len(server.recovery.quarantined) if server.recovery else 0
        banner += f" (durable: {server.store.root}, recovered {recovered} session(s)"
        if quarantined:
            banner += f", quarantined {quarantined} file(s)"
        banner += ")"
    print(banner)
    await server.wait_closed()

"""Live session streams: determinism, lossless resume, zero observer effect.

The load-bearing guarantees of ``GET /sessions/{id}/stream``:

* **chunking invariance** — the SSE byte sequence for a fixed
  (scenario, seed, operations) is identical no matter how the session
  was stepped (one ``advance`` or fifty), because events are a pure
  function of simulation content;
* **lossless resume** — disconnecting mid-stream and reconnecting with
  ``Last-Event-ID`` yields, concatenated, exactly the bytes an
  uninterrupted subscriber saw;
* **zero observer effect** — 0 vs N subscribers (including churn and
  slow readers) leave ``SimulationMetrics`` and snapshot bytes
  bit-identical;
* **drop accounting** — a subscriber that falls off the bounded ring
  gets an explicit ``gap`` event with the missed count; the simulator
  is never throttled.

pytest-asyncio is deliberately not a dependency: each test owns its
loop via ``asyncio.run`` (same convention as ``tests/test_service.py``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle

import pytest

from repro.service import ServiceError
from repro.service.session import SimulationSession
from repro.service.stream import (
    HEARTBEAT_FRAME,
    SessionStream,
    gap_frame,
    parse_sse_stream,
)
from tests.conftest import service_server, task_payload as _payload

PARAMS = {"scheduler": "gfs", "num_nodes": 6, "duration_hours": 4.0, "seed": 11}


def _wave(prefix: str, count: int, start: float = 0.0) -> list:
    return [
        _payload(f"{prefix}-{i:03d}", start + i * 120.0, hp=(i % 3 == 0))
        for i in range(count)
    ]


def _drain(subscriber) -> str:
    frames, missed = subscriber.poll()
    assert missed == 0
    return "".join(frames)


def _strip_heartbeats(raw: bytes) -> bytes:
    """Raw SSE bytes minus comment frames (heartbeats are timing, not data)."""
    kept = [
        block
        for block in raw.split(b"\n\n")
        if block.strip() and not block.startswith(b":")
    ]
    return b"\n\n".join(kept) + (b"\n\n" if kept else b"")


# ----------------------------------------------------------------------
# Ring mechanics (no simulator)
# ----------------------------------------------------------------------
def test_ring_sequence_and_frame_format():
    stream = SessionStream("s", backlog=16)
    assert stream.emit("tick", {"t": 1.0}) == 1
    assert stream.emit("tick", {"b": 2, "a": 1}) == 2
    sub = stream.subscribe(after_seq=1)  # resume past seq 1
    frames, missed = sub.poll()
    assert missed == 0
    assert frames == ['id: 2\nevent: tick\ndata: {"a":1,"b":2}\n\n']
    (event,) = parse_sse_stream(frames[0])
    assert event == {"id": "2", "event": "tick", "data": '{"a":1,"b":2}'}


def test_fresh_subscriber_starts_at_live_edge():
    stream = SessionStream("s", backlog=16)
    for i in range(5):
        stream.emit("tick", {"i": i})
    sub = stream.subscribe()
    frames, missed = sub.poll()
    assert frames == [] and missed == 0  # history is for resumers only
    stream.emit("tick", {"i": 99})
    frames, _ = sub.poll()
    assert len(frames) == 1 and '"i":99' in frames[0]


def test_slow_subscriber_gets_gap_accounting_not_backpressure():
    stream = SessionStream("s", backlog=4)
    sub = stream.subscribe()
    for i in range(10):
        stream.emit("tick", {"i": i})  # never blocks on the slow reader
    frames, missed = sub.poll()
    assert len(frames) == 4  # only the ring's worth survive
    assert missed == 6
    assert sub.dropped == 6
    stats = stream.stats()
    assert stats["expired"] == 6
    assert stats["subscriber_drops"] == 6
    assert stats["last_seq"] == 10
    # the gap frame is subscription-local: no id line, so it can never
    # collide with the event sequence on resume
    assert gap_frame(missed) == 'event: gap\ndata: {"missed":6}\n\n'
    (gap,) = parse_sse_stream(gap_frame(missed))
    assert gap["id"] is None and gap["event"] == "gap"


def test_stream_is_never_picklable():
    stream = SessionStream("s")
    with pytest.raises(TypeError):
        pickle.dumps(stream)


def test_heartbeats_are_invisible_to_the_parser():
    text = HEARTBEAT_FRAME + "id: 1\nevent: tick\ndata: {}\n\n" + HEARTBEAT_FRAME
    events = parse_sse_stream(text)
    assert [e["event"] for e in events] == ["tick"]


# ----------------------------------------------------------------------
# Determinism: chunking invariance (in-process)
# ----------------------------------------------------------------------
def _stream_session(chunks, params=PARAMS) -> tuple:
    session = SimulationSession(params)
    sub = session.stream.subscribe()
    session.submit(_wave("det", 12))
    for until in chunks:
        session.advance(until=until)
    session.advance()  # run to completion
    return session, _drain(sub)


def test_sse_bytes_identical_across_advance_chunkings():
    _, one_shot = _stream_session([])
    _, coarse = _stream_session([1800.0, 3600.0, 7200.0])
    _, fine = _stream_session([300.0 * i for i in range(1, 40)])
    assert one_shot == coarse == fine
    events = parse_sse_stream(one_shot)
    kinds = {e["event"] for e in events}
    assert {"submit", "pass", "tick"} <= kinds
    # sequence ids are gapless and monotonic from 1
    ids = [int(e["id"]) for e in events]
    assert ids == list(range(1, len(ids) + 1))
    # every data payload is canonical JSON (key-sorted, compact)
    for event in events:
        decoded = json.loads(event["data"])
        assert event["data"] == json.dumps(decoded, sort_keys=True, separators=(",", ":"))


#: SHA-256 of the one-shot stream of ``_stream_session([])``: 2,648
#: bytes of 12 ``pass``, 11 ``tick`` and 1 ``submit`` event
SSE_GOLDEN_SHA256 = "b58533d6d98de96c67c0e5f1f29191d8f34de544f6e1785490ce455e3123a4d7"


def test_sse_bytes_are_pinned():
    """The stream's wire bytes are a pinned function of the session."""
    _, raw = _stream_session([])
    kinds = [e["event"] for e in parse_sse_stream(raw)]
    assert (kinds.count("pass"), kinds.count("tick"), kinds.count("submit")) == (12, 11, 1)
    assert len(raw.encode()) == 2648
    assert hashlib.sha256(raw.encode()).hexdigest() == SSE_GOLDEN_SHA256


def test_submit_and_inject_emit_operation_events():
    session = SimulationSession(PARAMS)
    sub = session.stream.subscribe()
    session.submit(_wave("ops", 4))
    session.advance(until=600.0)
    session.inject({"node_id": "a100-sim-0000", "kind": "NODE_FAIL"})
    events = parse_sse_stream(_drain(sub))
    submits = [e for e in events if e["event"] == "submit"]
    injects = [e for e in events if e["event"] == "inject"]
    assert json.loads(submits[0]["data"])["count"] == 4
    assert json.loads(injects[0]["data"])["node"] == "a100-sim-0000"


# ----------------------------------------------------------------------
# Zero observer effect
# ----------------------------------------------------------------------
def _driven_session(params, churn: bool = False) -> SimulationSession:
    session = SimulationSession(params)
    subs = []
    if churn:
        subs.append(session.stream.subscribe())
    session.submit(_wave("obs", 10))
    for i, until in enumerate((900.0, 1800.0, 2700.0, 3600.0)):
        session.advance(until=until)
        if churn:
            # subscribe/poll/close churn between every step, plus one
            # permanently slow subscriber that never polls
            sub = session.stream.subscribe()
            sub.poll()
            sub.close()
            subs.append(session.stream.subscribe())
    session.advance()
    if churn:
        for sub in subs[: len(subs) // 2]:
            sub.poll()
    return session


def test_subscriber_churn_has_no_observer_effect_on_metrics():
    quiet = _driven_session(PARAMS)
    noisy = _driven_session(PARAMS, churn=True)
    unstreamed = _driven_session({**PARAMS, "stream_backlog": 0})
    assert unstreamed.stream is None
    fp = lambda s: json.dumps(s.metrics(), sort_keys=True)
    assert fp(quiet) == fp(noisy) == fp(unstreamed)


def test_subscribers_do_not_change_snapshot_bytes():
    session = SimulationSession(PARAMS)
    session.submit(_wave("snap", 8))
    session.advance(until=1800.0)
    before = session.snapshot_bytes()
    subs = [session.stream.subscribe() for _ in range(4)]
    for sub in subs:
        sub.poll()
    assert session.snapshot_bytes() == before
    for sub in subs:
        sub.close()
    assert session.snapshot_bytes() == before


def test_restore_reattaches_stream_and_emits_restore_event():
    session = SimulationSession(PARAMS)
    session.submit(_wave("res", 8))
    session.advance(until=1800.0)
    blob = session.snapshot_bytes()
    session.advance(until=3600.0)
    sub = session.stream.subscribe()
    session.restore_bytes(blob)
    events = parse_sse_stream(_drain(sub))
    assert events[0]["event"] == "restore"
    # the restored recorder keeps feeding the stream
    session.advance(until=2700.0)
    later = parse_sse_stream(_drain(sub))
    assert any(e["event"] in ("pass", "tick") for e in later)


# ----------------------------------------------------------------------
# Satellite: bounded recorder memory in long-lived sessions
# ----------------------------------------------------------------------
def test_long_lived_session_memory_stays_bounded():
    backlog = 64
    session = SimulationSession({**PARAMS, "stream_backlog": backlog})
    for wave in range(6):
        session.submit(_wave(f"mem{wave}", 8, start=wave * 1200.0))
        session.advance(until=(wave + 1) * 1200.0)
    # The recorder keeps aggregates only; the stream ring is the one buffer.
    assert set(vars(session.recorder)) == {"counters", "gauges", "histograms", "sim_listener"}
    stream = session.stats()["stream"]
    assert stream["buffered"] <= backlog  # steady state, not linear growth
    assert stream["expired"] > 0
    assert stream["last_seq"] == stream["buffered"] + stream["expired"]


# ----------------------------------------------------------------------
# Server end-to-end (SSE over HTTP)
# ----------------------------------------------------------------------
async def _read_until_seq(sub, seq: int, timeout: float = 10.0) -> list:
    events = []
    while sub.last_event_id is None or sub.last_event_id < seq:
        event = await sub.read_event(timeout=timeout)
        assert event is not None, "stream closed early"
        events.append(event)
    return events


def test_http_stream_delivers_live_events():
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            sub = await client.open_stream(sid)
            await client.submit(sid, _wave("live", 8))
            await client.advance(sid, until=3600.0)
            last_seq = (await client.stats(sid))["stream"]["last_seq"]
            assert last_seq > 0
            events = await _read_until_seq(sub, last_seq)
            kinds = {e["event"] for e in events}
            assert "submit" in kinds and ("pass" in kinds or "tick" in kinds)
            await sub.close()
            stream_stats = (await client.stats(sid))["stream"]
            assert stream_stats["total_subscribers"] >= 1

    asyncio.run(body())


def test_http_disconnect_and_resume_is_byte_lossless():
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            witness = await client.open_stream(sid)
            flaky = await client.open_stream(sid)
            await client.submit(sid, _wave("resume", 10))
            await client.advance(sid, until=1800.0)
            mid_seq = (await client.stats(sid))["stream"]["last_seq"]
            assert mid_seq > 0
            await _read_until_seq(flaky, mid_seq)
            await flaky.close()  # mid-stream disconnect

            await client.advance(sid)  # events keep flowing while away
            end_seq = (await client.stats(sid))["stream"]["last_seq"]
            assert end_seq > mid_seq

            resumed = await client.open_stream(sid, last_event_id=flaky.last_event_id)
            await _read_until_seq(resumed, end_seq)
            await _read_until_seq(witness, end_seq)
            await resumed.close()

            rejoined = _strip_heartbeats(bytes(flaky.raw + resumed.raw))
            uninterrupted = _strip_heartbeats(bytes(witness.raw))
            assert rejoined == uninterrupted
            await witness.close()

    asyncio.run(body())


def test_http_stream_disabled_session_returns_409():
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS, stream_backlog=0))["session_id"]
            with pytest.raises(ServiceError) as err:
                await client.open_stream(sid)
            assert err.value.status == 409
            assert (await client.stats(sid))["stream"] is None

    asyncio.run(body())


def test_http_retired_pass_record_limit_is_an_unknown_parameter():
    async def body():
        async with service_server() as (server, client):
            with pytest.raises(ServiceError) as err:
                await client.create_session(**PARAMS, pass_record_limit=16)
            assert err.value.status == 400
            assert "unknown session parameters" in err.value.message

    asyncio.run(body())


def test_dashboard_serves_self_contained_html():
    async def body():
        async with service_server() as (server, _):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"GET /dashboard HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body_bytes = raw.partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            assert b"text/html" in head
            html = body_bytes.decode("utf-8")
            assert "EventSource" in html  # live SSE wiring
            assert "/sessions" in html
            # self-contained: no external scripts/styles/fonts
            assert "http://" not in html and "https://" not in html
            assert "<script src" not in html and "link rel" not in html

    asyncio.run(body())

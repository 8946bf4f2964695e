"""Durable service sessions: restart recovery, quarantine, idempotent
retries and per-request deadlines.

The guarantees under test (``docs/fault_tolerance.md``):

* with a ``state_dir`` creation and every mutation persist the session
  (atomic, checksummed envelope) and nothing else does; the disk holds
  the state after the last mutation whose persist succeeded, a failed
  persist is a 500 plus a ``persist_failed`` event, and the next mutation
  catches up;
* a **new server over the same directory recovers it** — in-process or
  after ``kill -9`` of a real ``cli serve`` process — and continuing the
  recovered session is bit-identical to never having restarted;
* torn, corrupt or unrebuildable store files are **quarantined** at boot
  (renamed, never deleted), never fatal, each reported as one
  ``session_quarantined`` event, and ``/readyz`` reports the counts;
* recovered session ids are never re-issued to new sessions;
* a ``POST`` delivered twice under one ``Idempotency-Key`` executes
  **once** (a retried submit never double-submits); a different key is a
  genuinely new request;
* past ``request_timeout_s`` the client gets 504 while the operation
  completes server-side.

pytest-asyncio is deliberately not a dependency: each test owns its loop
via ``asyncio.run``, like ``tests/test_service.py``.
"""

from __future__ import annotations

import ast
import asyncio
import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import AsyncServiceClient, SchedulerServer, ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.session import SimulationSession
from repro.service.store import STORE_VERSION, SessionStore
from repro.service.snapshot import snapshot_to_text
from tests.conftest import EventSink, service_server, task_payload as _payload

PARAMS = {"scheduler": "gfs", "num_nodes": 6, "duration_hours": 4.0, "seed": 11}


def _wave(prefix: str, count: int, start: float = 0.0) -> list:
    return [_payload(f"{prefix}-{i:03d}", start + i * 120.0, hp=(i % 3 == 0)) for i in range(count)]


def _fingerprint(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


# ----------------------------------------------------------------------
# Store layer (no server)
# ----------------------------------------------------------------------
class TestSessionStore:
    def _snapshot_bytes(self):
        return SimulationSession(PARAMS).snapshot_bytes()

    def test_save_recover_roundtrip(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        blob = self._snapshot_bytes()
        store.save("session-0007", dict(PARAMS), blob)
        report = store.recover()
        assert report.quarantined == {}
        [stored] = report.recovered
        assert stored.session_id == "session-0007"
        assert stored.params == PARAMS
        assert stored.snapshot == blob
        assert report.max_session_number() == 7

    def test_delete_forgets(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("session-0001", dict(PARAMS), self._snapshot_bytes())
        store.delete("session-0001")
        assert store.recover().recovered == []
        store.delete("session-0001")  # idempotent

    def test_path_tricks_rejected(self, tmp_path):
        store = SessionStore(tmp_path)
        for bad in ("../escape", "a/b", "..", "."):
            with pytest.raises(ValueError, match="invalid session id"):
                store.save(bad, {}, b"")

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda text: "{not json", id="unparseable"),
            pytest.param(lambda text: "[]", id="not-an-object"),
            pytest.param(
                lambda text: json.dumps({**json.loads(text), "store_version": 99}),
                id="future-version",
            ),
            pytest.param(
                lambda text: json.dumps(
                    {k: v for k, v in json.loads(text).items() if k != "snapshot"}
                ),
                id="missing-snapshot",
            ),
            pytest.param(
                lambda text: json.dumps(
                    {**json.loads(text), "snapshot": "UkVQUk9TTlA=corrupt"}
                ),
                id="bad-envelope",
            ),
        ],
    )
    def test_corruption_matrix_quarantines(self, tmp_path, mangle):
        store = SessionStore(tmp_path)
        path = store.save("session-0001", dict(PARAMS), self._snapshot_bytes())
        store.save("session-0002", dict(PARAMS), self._snapshot_bytes())
        path.write_text(mangle(path.read_text()))
        report = store.recover(SimulationSession.from_stored)
        assert list(report.quarantined) == ["session-0001"]
        assert [s.session_id for s in report.recovered] == ["session-0002"]
        # Evidence preserved, file no longer scanned.
        assert (tmp_path / "session-0001.json.quarantined").exists()
        again = store.recover(SimulationSession.from_stored)
        assert again.quarantined == {}
        assert len(again.recovered) == 1

    def test_flipped_snapshot_bit_fails_checksum(self, tmp_path):
        store = SessionStore(tmp_path)
        blob = bytearray(self._snapshot_bytes())
        blob[len(blob) // 2] ^= 0x01
        record = {
            "store_version": STORE_VERSION,
            "session_id": "session-0001",
            "params": dict(PARAMS),
            "saved_at": 0.0,
            "snapshot": snapshot_to_text(bytes(blob)),
        }
        (tmp_path / "session-0001.json").write_text(json.dumps(record))
        report = store.recover(SimulationSession.from_stored)
        assert report.recovered == []
        assert list(report.quarantined) == ["session-0001"]
        assert "checksum" in report.quarantined["session-0001"]
        assert (tmp_path / "session-0001.json.quarantined").exists()


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------
class TestRestartRecovery:
    def test_recovered_session_continues_bit_identically(self, tmp_path):
        state = tmp_path / "state"
        waves = [(900.0, _wave("dur", 6)), (2700.0, _wave("dur2", 6, start=900.0))]

        # Reference: one quiet in-process session, never interrupted.
        reference_session = SimulationSession(PARAMS)
        for advance_to, wave in waves:
            reference_session.submit(wave)
            reference_session.advance(until=advance_to)
        reference_session.advance()
        reference = _fingerprint(
            {"metrics": reference_session.metrics(), "status": reference_session.status()}
        )

        async def first_life():
            async with service_server(state_dir=state) as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                advance_to, wave = waves[0]
                await client.submit(sid, wave)
                await client.advance(sid, until=advance_to)
                # Reads after the last mutation: a fork and a metrics fold
                # must leave nothing for the next life to inherit.
                await client.what_if(sid, _payload("probe-000", advance_to), horizon_hours=2.0)
                await client.metrics(sid)
                return sid

        async def second_life(sid):
            async with service_server(state_dir=state) as (server, client):
                ready = await client.readyz()
                assert ready["recovered"] == 1
                assert ready["quarantined"] == 0
                listed = [s["session_id"] for s in await client.list_sessions()]
                assert listed == [sid]
                advance_to, wave = waves[1]
                await client.submit(sid, wave)
                await client.advance(sid, until=advance_to)
                await client.advance(sid)
                status = {**await client.status(sid), "session_id": reference_session.session_id}
                return _fingerprint({"metrics": await client.metrics(sid), "status": status})

        sid = asyncio.run(first_life())
        resumed = asyncio.run(second_life(sid))
        assert resumed == reference

    def test_recovery_never_reissues_session_ids(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            async with service_server(state_dir=state) as (server, client):
                return (await client.create_session(**PARAMS))["session_id"]

        async def second_life(old_sid):
            async with service_server(state_dir=state) as (server, client):
                new_sid = (await client.create_session(**PARAMS))["session_id"]
                assert new_sid != old_sid
                listed = {s["session_id"] for s in await client.list_sessions()}
                assert listed == {old_sid, new_sid}

        sid = asyncio.run(first_life())
        asyncio.run(second_life(sid))

    def test_delete_is_durable(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            async with service_server(state_dir=state) as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.delete_session(sid)

        async def second_life():
            async with service_server(state_dir=state) as (server, client):
                assert await client.list_sessions() == []
                assert (await client.readyz())["recovered"] == 0

        asyncio.run(first_life())
        asyncio.run(second_life())

    def test_corrupt_file_quarantined_at_boot(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            async with service_server(state_dir=state) as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.submit(sid, _wave("q", 3))
                await client.advance(sid, until=600.0)

        async def second_life():
            async with service_server(state_dir=state) as (server, client):
                ready = await client.readyz()
                assert ready["recovered"] == 1
                assert ready["quarantined"] == 1
                assert (state / "session-0042.json.quarantined").exists()
                # The surviving session still works.
                [session] = await client.list_sessions()
                await client.advance(session["session_id"], until=1200.0)

        asyncio.run(first_life())
        # A torn write lands between the two lives (as a crash mid-save
        # would leave, were saves not atomic — or an operator's stray file).
        (state / "session-0042.json").write_text("{torn mid-write")
        asyncio.run(second_life())

    def test_unrebuildable_session_quarantined_not_fatal(self, tmp_path):
        # A file that parses and passes its checksum but cannot rebuild a
        # session (bogus params) must cost one session, not the boot.
        state = tmp_path / "state"
        blob = SimulationSession(PARAMS).snapshot_bytes()
        SessionStore(state).save("session-0009", {"schedulr": "typo"}, blob)

        async def body():
            async with service_server(state_dir=state) as (server, client):
                ready = await client.readyz()
                assert ready["quarantined"] == 1
                assert ready["recovered"] == 0
                assert await client.list_sessions() == []
                assert (state / "session-0009.json.quarantined").exists()

        asyncio.run(body())

    def test_every_quarantined_file_is_one_event(self, tmp_path):
        # One torn file (fails to parse) and one unrebuildable file (parses,
        # verifies, fails to rebuild): two renames, two events, no session.
        state = tmp_path / "state"
        SessionStore(state).save(
            "session-0009", {"schedulr": "typo"}, SimulationSession(PARAMS).snapshot_bytes()
        )
        (state / "session-0042.json").write_text("{torn mid-write")

        async def body():
            server = SchedulerServer(state_dir=state)
            sink = EventSink()
            server.telemetry.add_sink(sink)
            await server.start(port=0)
            try:
                events = sink.events("session_quarantined")
                assert sorted(e["session_id"] for e in events) == ["session-0009", "session-0042"]
                assert all(e["error"] for e in events)
                assert server.recovery.recovered == [] and len(server.recovery.quarantined) == 2
            finally:
                await server.stop()

        asyncio.run(body())
        assert sorted(p.name for p in state.iterdir()) == [
            "session-0009.json.quarantined",
            "session-0042.json.quarantined",
        ]

    def test_state_dir_of_an_earlier_build_is_quarantined_not_loaded(self, tmp_path):
        # Snapshot formats 1 and 2 pickled a scheduler graph and a cluster
        # this build no longer has: refused before unpickling, at boot and
        # on restore alike, one quarantine event per file.
        state = tmp_path / "state"
        current = SimulationSession(PARAMS).snapshot_bytes()
        earlier = {v: current[:8] + v.to_bytes(2, "big") + current[10:] for v in (1, 2)}
        for version, envelope in earlier.items():
            SessionStore(state).save(f"session-000{version + 2}", dict(PARAMS), envelope)

        async def body():
            server = SchedulerServer(state_dir=state)
            sink = EventSink()
            server.telemetry.add_sink(sink)
            await server.start(port=0)
            client = AsyncServiceClient(server.host, server.port)
            try:
                events = sorted(sink.events("session_quarantined"), key=lambda e: e["session_id"])
                assert [e["session_id"] for e in events] == ["session-0003", "session-0004"]
                sid = (await client.create_session(**PARAMS))["session_id"]
                before = await client.status(sid)
                for (version, envelope), event in zip(earlier.items(), events):
                    assert f"version {version}" in event["error"]
                    with pytest.raises(ServiceError) as err:
                        await client.restore(sid, envelope)
                    assert err.value.status == 400 and f"version {version}" in err.value.message
                assert await client.status(sid) == before
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())
        assert (state / "session-0003.json.quarantined").exists()
        assert (state / "session-0004.json.quarantined").exists()

    def test_health_probes_report_durability(self, tmp_path):
        async def durable():
            async with service_server(state_dir=tmp_path / "state") as (server, client):
                assert (await client.healthz())["durable"] is True
                assert (await client.readyz())["status"] == "ready"

        async def ephemeral():
            async with service_server() as (server, client):
                assert (await client.healthz())["durable"] is False

        asyncio.run(durable())
        asyncio.run(ephemeral())


# ----------------------------------------------------------------------
# Idempotent retries
# ----------------------------------------------------------------------
class _DropAfterDelivery(AsyncServiceClient):
    """A client whose connection 'dies' right after the first delivery of
    a matching request — after the server processed it, before the client
    read the result.  The transport retry must re-send with the SAME
    idempotency key and collect the original operation's result."""

    def __init__(self, host, port, drop_on: str):
        super().__init__(host, port)
        self.drop_on = drop_on
        self.deliveries = 0
        self.dropped = False

    async def _send_once(self, method, path, body, extra_headers):
        result = await super()._send_once(method, path, body, extra_headers)
        if self.drop_on in path:
            self.deliveries += 1
            if not self.dropped:
                self.dropped = True
                await self.close()
                raise ConnectionError("injected drop after delivery")
        return result


class TestIdempotentRetries:
    def test_retried_submit_does_not_double_submit(self, tmp_path):
        async def body():
            async with service_server(state_dir=tmp_path / "state") as (server, setup):
                flaky = _DropAfterDelivery(server.host, server.port, drop_on="/submit")
                try:
                    sid = (await setup.create_session(**PARAMS))["session_id"]
                    wave = _wave("retry", 5)
                    result = await flaky.submit(sid, wave)
                    # Two deliveries on the wire, one submission in the session.
                    assert flaky.deliveries == 2
                    assert result["accepted"] == [t["task_id"] for t in wave]
                    status = await setup.status(sid)
                    assert status["submitted_tasks"] == len(wave)
                finally:
                    await flaky.close()

        asyncio.run(body())

    def test_duplicate_delivery_coalesces_on_server(self):
        # Same body, same key, delivered twice: one execution, one result.
        async def body():
            async with service_server() as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                wave = _wave("dup", 4)
                payload = json.dumps({"tasks": wave}).encode("utf-8")
                headers = {"idempotency-key": "fixed-key-1"}
                path = f"/sessions/{sid}/submit"
                first = await server._dispatch("POST", path, payload, headers)
                second = await server._dispatch("POST", path, payload, headers)
                assert first == second
                assert first[0] == 200
                assert (await client.status(sid))["submitted_tasks"] == len(wave)

        asyncio.run(body())

    def test_fresh_key_is_a_new_request(self):
        # The same duplicate submission under a NEW key is genuinely
        # re-executed — and correctly rejected as already submitted.
        async def body():
            async with service_server() as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                wave = _wave("fresh", 3)
                await client.submit(sid, wave)
                with pytest.raises(ServiceError) as err:
                    await client.submit(sid, wave)
                assert err.value.status == 400
                assert "already submitted" in err.value.message

        asyncio.run(body())

    def test_unkeyed_post_is_never_retried(self):
        async def body():
            async with service_server() as (server, client):
                attempts = {"count": 0}
                original = client._send_once

                async def always_fails(method, path, body, extra):
                    attempts["count"] += 1
                    raise ConnectionError("injected transport failure")

                client._send_once = always_fails
                try:
                    with pytest.raises(ConnectionError):
                        await client._request("POST", "/sessions", PARAMS)
                    assert attempts["count"] == 1  # no blind replay
                    attempts["count"] = 0
                    with pytest.raises(ConnectionError):
                        await client._request("GET", "/healthz")
                    assert attempts["count"] == 1 + client.retries  # GET retries
                finally:
                    client._send_once = original

        asyncio.run(body())

    def test_unkeyed_post_is_never_retried_sync(self):
        client = ServiceClient("127.0.0.1", 1)  # never connects: every send is injected
        attempts = {"count": 0}

        def always_fails(method, path, body, extra):
            attempts["count"] += 1
            raise ConnectionError("injected transport failure")

        client._send_once = always_fails
        with pytest.raises(ConnectionError):
            client._request("POST", "/sessions", PARAMS)
        assert attempts["count"] == 1  # no blind replay
        attempts["count"] = 0
        with pytest.raises(ConnectionError):
            client._request("GET", "/healthz")
        assert attempts["count"] == 1 + client.retries  # GET retries


# ----------------------------------------------------------------------
# Per-request deadlines
# ----------------------------------------------------------------------
class TestRequestDeadline:
    def test_slow_advance_times_out_but_completes_serverside(self):
        async def body():
            async with service_server(request_timeout_s=0.15) as (server, client):
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.submit(sid, _wave("slow", 1200))
                with pytest.raises(ServiceError) as err:
                    await client.advance(sid)  # full run: ~0.8s >> 150ms
                assert err.value.status == 504
                assert "deadline" in err.value.message
                # The operation was shielded, not cancelled: it finishes
                # server-side and the session ends up fully advanced.
                # While it runs, status polls queue behind the session
                # lock and 504 too — keep polling until it drains.
                status = None
                for _ in range(200):
                    try:
                        status = await client.status(sid)
                    except ServiceError as poll_err:
                        assert poll_err.status == 504
                        continue
                    if status["done"]:
                        break
                    await asyncio.sleep(0.05)
                assert status is not None and status["done"]
                assert status["submitted_tasks"] == 1200

        asyncio.run(body())

    def test_fast_requests_unaffected_by_deadline(self):
        async def body():
            async with service_server(request_timeout_s=5.0) as (server, client):
                assert (await client.healthz())["status"] == "ok"
                sid = (await client.create_session(**PARAMS))["session_id"]
                assert (await client.status(sid))["session_id"] == sid

        asyncio.run(body())


# ----------------------------------------------------------------------
# The one write point
# ----------------------------------------------------------------------
class TestPersist:
    def test_failed_persist_is_a_500_and_an_event_and_the_next_mutation_catches_up(self, tmp_path):
        state = tmp_path / "state"

        async def body():
            async with service_server(state_dir=state) as (server, client):
                sink = EventSink()
                server.telemetry.add_sink(sink)
                sid = (await client.create_session(**PARAMS))["session_id"]
                real_save, failures = server.store.save, []

                def save_failing_once(*args):
                    if not failures:
                        failures.append(args[0])
                        raise OSError("disk full")
                    return real_save(*args)

                server.store.save = save_failing_once
                with pytest.raises(ServiceError) as err:
                    await client.submit(sid, _wave("pf", 3))
                assert err.value.status == 500 and "disk full" in err.value.message
                [event] = sink.events("persist_failed")
                assert event["session_id"] == sid and "disk full" in event["error"]
                # The mutation applied; the disk still holds the state after
                # the last mutation whose persist succeeded (creation).
                assert (await client.status(sid))["submitted_tasks"] == 3
                [stored] = SessionStore(state).recover(SimulationSession.from_stored).recovered
                assert stored.status()["submitted_tasks"] == 0
                # The next mutation persists and catches the disk up.
                live = await client.advance(sid, until=600.0)
                [stored] = SessionStore(state).recover(SimulationSession.from_stored).recovered
                assert {**stored.status(), "processed_events": live["processed_events"]} == live
                assert len(sink.events("persist_failed")) == 1

        asyncio.run(body())

    def test_persist_has_exactly_two_call_sites(self):
        """``_persist`` runs on creation and after a mutating verb, nowhere
        else: no periodic flush, no persist interval."""
        source = Path(server_module.__file__).read_text()
        assert "persist_interval" not in source
        [cls] = [
            node for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name == "SchedulerServer"
        ]

        def persist_calls(tree):
            return [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_persist"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ]

        methods = {
            node.name: node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        callers = {name: len(persist_calls(fn)) for name, fn in methods.items() if persist_calls(fn)}
        assert callers == {"_create_session": 1, "_session_route": 1}
        mutating = [
            node for node in ast.walk(methods["_session_route"])
            if isinstance(node, ast.If)
            and any(isinstance(n, ast.Name) and n.id == "_MUTATING_VERBS" for n in ast.walk(node.test))
        ]
        assert [len(persist_calls(branch)) for branch in mutating] == [1]


# ----------------------------------------------------------------------
# A real `cli serve` process, killed and booted again
# ----------------------------------------------------------------------
class TestServeProcess:
    @staticmethod
    def _boot(state):
        """Start ``cli serve`` on an ephemeral port; returns (process, port)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.experiments.cli", "serve", "--port", "0",
             "--state-dir", str(state)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            banner = pool.submit(proc.stdout.readline).result(timeout=120)
        match = re.search(r"listening on http://[^:]+:(\d+)", banner)
        assert match, f"no banner from cli serve: {banner!r}"
        return proc, int(match.group(1))

    def test_kill_9_then_reboot_recovers_and_continues_bit_identically(self, tmp_path):
        state = tmp_path / "state"
        waves = [(900.0, _wave("kill", 6)), (2700.0, _wave("kill2", 6, start=900.0))]
        reference = SimulationSession(PARAMS)
        for advance_to, wave in waves:
            reference.submit(wave)
            reference.advance(until=advance_to)
        reference.advance()
        expected = _fingerprint({"metrics": reference.metrics(), "status": reference.status()})

        proc, port = self._boot(state)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                sid = client.create_session(**PARAMS)["session_id"]
                advance_to, wave = waves[0]
                client.submit(sid, wave)
                client.advance(sid, until=advance_to)
        finally:
            proc.kill()  # SIGKILL: no shutdown path runs
            proc.wait()
            proc.stdout.close()

        proc, port = self._boot(state)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                ready = client.readyz()
                assert ready["recovered"] == 1 and ready["quarantined"] == 0
                advance_to, wave = waves[1]
                client.submit(sid, wave)
                client.advance(sid, until=advance_to)
                client.advance(sid)
                status = {**client.status(sid), "session_id": reference.session_id}
                resumed = _fingerprint({"metrics": client.metrics(sid), "status": status})
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert resumed == expected

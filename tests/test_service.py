"""Scheduler service tests: sessions, the HTTP server, and concurrency.

The load-bearing guarantees:

* **query-load independence** — a session hammered with live queries
  (occupancy, quota, what-if forks) produces metrics bit-identical to a
  session advanced quietly, and to a direct in-process
  :class:`SimulationSession` with the same inputs;
* **cross-session isolation** — N concurrent asyncio clients driving N
  sessions with different schedulers interleave arbitrarily on one
  server, and every session still matches its single-session reference;
* **error paths** — malformed payloads, unknown sessions/routes and
  corrupt snapshots surface as typed HTTP errors, never as wedged
  connections or crashed servers;
* **snapshot over HTTP** — export → keep advancing → restore rewinds
  the session, and the continuation matches the uninterrupted run.

pytest-asyncio is deliberately not a dependency: each test owns its
loop via ``asyncio.run`` so the suite runs on the baked-in toolchain.
"""

from __future__ import annotations

import asyncio
import copy
import json

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.obs.logging import parse_log_line
from repro.obs.telemetry import validate_telemetry_record
from repro.service import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.session import (
    SessionError,
    SimulationSession,
    task_from_payload,
)
from tests.conftest import service_server, task_payload as _payload

#: compact session so every server test stays sub-second per operation
PARAMS = {"scheduler": "gfs", "num_nodes": 6, "duration_hours": 4.0, "seed": 11}


def _wave(prefix: str, count: int, start: float = 0.0) -> list:
    return [_payload(f"{prefix}-{i:03d}", start + i * 120.0, hp=(i % 3 == 0)) for i in range(count)]


def _metrics_fingerprint(metrics: dict) -> str:
    """Comparable form of a metrics dict (NaN-stable via JSON tokens)."""
    return json.dumps(metrics, sort_keys=True)


def _reference_metrics(waves) -> str:
    """Metrics of a quiet in-process session fed the same submissions."""
    session = SimulationSession(PARAMS)
    for advance_to, wave in waves:
        if wave:
            session.submit(wave)
        session.advance(until=advance_to)
    session.advance()
    return _metrics_fingerprint(session.metrics())


# ----------------------------------------------------------------------
# Session layer (no server)
# ----------------------------------------------------------------------
def test_task_payload_codec_roundtrip():
    payload = _payload("codec-001", 120.0, hp=True)
    task = task_from_payload(payload)
    assert task.to_record() == {**payload, "gang": False, "gpu_model": None,
                                "checkpoint_interval": 1800.0}


def test_task_payload_rejects_missing_fields_and_bad_values():
    with pytest.raises(SessionError, match="missing required"):
        task_from_payload({"task_id": "x"})
    with pytest.raises(SessionError, match="invalid task payload"):
        task_from_payload({"task_id": "x", "num_pods": "many", "gpus_per_pod": 1, "duration": 1})


def test_session_rejects_unknown_parameters():
    with pytest.raises(SessionError, match="unknown session parameters"):
        SimulationSession({"schedulr": "gfs"})


def test_session_rejects_duplicate_and_replayed_task_ids():
    session = SimulationSession(PARAMS)
    with pytest.raises(SessionError, match="duplicate task_id"):
        session.submit([_payload("dup", 0.0), _payload("dup", 60.0)])
    session.submit([_payload("once", 0.0)])
    with pytest.raises(SessionError, match="already submitted"):
        session.submit([_payload("once", 120.0)])


def test_session_live_views_have_expected_shape():
    session = SimulationSession(PARAMS)
    session.submit(_wave("shape", 6))
    session.advance(until=1800.0)
    occupancy = session.occupancy()
    assert occupancy["total_gpus"] == 6 * 8
    assert occupancy["allocation_rate"] > 0
    assert set(occupancy["capacity"]) == {"A100"}
    quota = session.quota()
    assert quota["quota"] is not None  # GFS exposes its SQA quota
    for org in quota["orgs"].values():
        assert org["headroom"] >= 0.0
    baseline = SimulationSession({**PARAMS, "scheduler": "yarn-cs"})
    assert baseline.quota()["quota"] is None  # baselines have no quota loop


def test_what_if_answers_without_perturbing_the_session():
    session = SimulationSession(PARAMS)
    session.submit(_wave("wif", 8))
    session.advance(until=1800.0)
    before = session.status()
    advice = session.what_if(_payload("wif-probe", 1800.0), horizon_hours=8.0)
    assert advice["would_start"] and advice["would_finish"]
    assert advice["queue_wait"] >= 0.0
    assert session.status() == before  # the fork never touches the live sim
    assert all(t.task_id != "wif-probe" for t in session.sim.all_tasks)


def test_rejected_what_if_and_submit_cost_no_copy(monkeypatch):
    """Validation runs against the live simulator, before any fork."""
    session = SimulationSession(PARAMS)
    session.submit(_wave("dup", 4))
    assert session.sim.has_task("dup-000") and not session.sim.has_task("dup-999")

    def no_fork(sim):
        raise AssertionError("a rejected request reached ClusterSimulator.fork")

    monkeypatch.setattr(ClusterSimulator, "fork", no_fork)
    with pytest.raises(SessionError, match="already submitted"):
        session.what_if(_payload("dup-000", 0.0))
    with pytest.raises(SessionError, match="horizon_hours"):
        session.what_if(_payload("fresh", 0.0), horizon_hours=0.0)
    with pytest.raises(SessionError, match="already submitted: dup-001, dup-003"):
        session.submit([_payload("dup-003", 0.0), _payload("new", 0.0), _payload("dup-001", 0.0)])
    assert not session.sim.has_task("new")  # all-or-nothing


def test_preloaded_session_carries_scenario_trace():
    session = SimulationSession({**PARAMS, "preload": True})
    assert session.status()["submitted_tasks"] > 0


def test_chaos_scenario_session_runs_under_the_scenarios_dynamics():
    # Regression: a session on a chaos scenario with dynamics="" used to
    # run with *no* dynamics while cli sweep / trace-viz / the engine
    # attached the scenario's churn.  Sessions are engine cells now.
    from repro.experiments import (
        ExperimentScale, SchedulerSpec, SimulationJob, WorkloadSpec, execute_job,
    )

    params = {"scheduler": "yarn-cs", "scenario": "node_churn", "num_nodes": 12,
              "duration_hours": 12.0, "spot_scale": 2.0, "seed": 3, "preload": True}
    session = SimulationSession(params)
    assert session.params["dynamics"] == ""
    session.advance()
    counts = session.sim.dynamics_counts
    assert counts.node_failures > 0 and counts.node_repairs > 0
    job = SimulationJob(
        key="equivalent",
        scale=ExperimentScale(name="s", num_nodes=12, duration_hours=12.0, seed=3),
        scheduler=SchedulerSpec(kind="yarn-cs"),
        workload=WorkloadSpec(scenario="node_churn", spot_scale=2.0),
    )
    assert session.metrics() == execute_job(job).as_dict()
    # An explicit preset still overrides the scenario's own.
    storm = SimulationSession({**params, "dynamics": "spot_reclaim_storm"})
    assert storm.sim.dynamics.spec.name == "spot_reclaim_storm"


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------
def test_http_session_lifecycle_and_errors():
    async def body():
        async with service_server() as (server, client):
            assert (await client.healthz())["status"] == "ok"
            session = await client.create_session(**PARAMS)
            sid = session["session_id"]
            assert [s["session_id"] for s in await client.list_sessions()] == [sid]

            with pytest.raises(ServiceError) as err:
                await client.status("no-such-session")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                await client.create_session(bogus_param=1)
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                await client.submit(sid, [])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                await client.inject(sid, node_id="a100-sim-0000", kind="NOT_A_KIND")
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                await client.restore(sid, b"REPROSNPgarbage-that-is-not-an-envelope")
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                await client._request("PUT", f"/sessions/{sid}/advance")
            assert err.value.status == 404

            # The connection survived every error above (keep-alive intact).
            assert (await client.status(sid))["session_id"] == sid
            await client.delete_session(sid)
            with pytest.raises(ServiceError) as err:
                await client.status(sid)
            assert err.value.status == 404

    asyncio.run(body())


@pytest.mark.parametrize(
    "name, value",
    [
        ("scheduler", "nope"),  # was a KeyError out of build_simulation: 500
        ("dynamics", "nope"),  # likewise
        ("scenario", "trace:missing.json"),  # was a FileNotFoundError: 500
        ("num_nodes", -3),  # was "a cluster needs at least one node": 500
        ("duration_hours", -2.0),  # was numpy's "negative dimensions": 500
        ("duration_hours", 0.0),  # was accepted: a NaN arrival profile, an empty trace
        ("spot_scale", -1.0),  # was accepted
        ("tick_interval", "abc"),  # was a ValueError outside the check: 500
        ("tick_interval", -5.0),  # these two were accepted: the session never ticked
        ("tick_interval", float("nan")),
        ("max_time", "x"),  # was a 500 like "abc" above
        ("max_time", -1.0),  # was accepted
        ("preload", "no"),  # was truthy: the trace was preloaded
    ],
)
def test_invalid_session_parameter_is_a_400_naming_it(name, value):
    async def body():
        async with service_server() as (server, client):
            live = (await client.create_session(**PARAMS))["session_id"]
            with pytest.raises(ServiceError) as err:
                await client.create_session(**{**PARAMS, name: value})
            assert err.value.status == 400
            assert name in err.value.message
            # The connection and the session created before are still live.
            assert [s["session_id"] for s in await client.list_sessions()] == [live]
            assert (await client.advance(live, until=600.0))["session_id"] == live

    asyncio.run(body())


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration", float("inf")),  # was an OverflowError: 500
        ("gpus_per_pod", float("nan")),  # these three were accepted
        ("gpus_per_pod", float("inf")),
        ("submit_time", float("nan")),
        ("duration", 1e10),  # 5.56 M checkpoints from one request
    ],
)
def test_non_finite_or_unbounded_task_is_a_400_naming_the_field(field, value):
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            with pytest.raises(ServiceError) as err:
                await client.submit(sid, [{**_payload("bad-001", 0.0), field: value}])
            assert err.value.status == 400 and field in err.value.message
            # The session and the connection are still live.
            await client.submit(sid, [_payload("ok-001", 0.0)])
            assert (await client.advance(sid, until=600.0))["session_id"] == sid

    asyncio.run(body())


@pytest.mark.parametrize(
    "field, verb, body",
    [
        # NaN `until` ran the session to its end and answered 200
        ("until", "advance", {"until": float("nan")}),
        ("until", "advance", {"until": float("inf")}),
        ("until", "advance", {"until": "soon"}),
        ("max_events", "advance", {"max_events": float("nan")}),  # were 500s
        ("max_events", "advance", {"max_events": float("inf")}),
        # a NaN time was pushed into the event heap
        ("time", "inject", {"node_id": "a100-sim-0000", "kind": "NODE_FAIL", "time": float("nan")}),
        # a NaN horizon answered 200 with a bare NaN in its body
        ("horizon_hours", "whatif", {"task": _payload("wi-001", 0.0), "horizon_hours": float("nan")}),
        ("horizon_hours", "whatif", {"task": _payload("wi-001", 0.0), "horizon_hours": float("inf")}),
        # a negative `until` or `time` moved the clock (and GFS's forecast
        # hour origin) before the trace
        ("until", "advance", {"until": -7200.0}),
        ("time", "inject", {"node_id": "a100-sim-0000", "kind": "NODE_FAIL", "time": -7200.0}),
    ],
)
def test_non_finite_request_number_is_a_400_naming_the_field(field, verb, body):
    async def run():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.submit(sid, [_payload("ok-001", 0.0)])
            await client.advance(sid, until=300.0)
            before = await client.status(sid)
            with pytest.raises(ServiceError) as err:
                await client._request("POST", f"/sessions/{sid}/{verb}", body)
            assert err.value.status == 400 and field in err.value.message
            assert await client.status(sid) == before  # the rejected request changed nothing
            assert (await client.advance(sid, until=600.0))["session_id"] == sid

    asyncio.run(run())


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_is_a_400_and_a_clean_close(length):
    async def body():
        async with service_server() as (server, client):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(f"POST /sessions HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode())
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10.0)  # to EOF: hung up
            writer.close()
            await writer.wait_closed()
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]
            assert (await client.healthz())["status"] == "ok"  # still serving

    asyncio.run(body())


@pytest.mark.parametrize("transport", ["asyncio", "http.client"])
def test_client_lifecycle_on_both_transports(transport):
    """One API surface: the same calls, awaited, drive either transport —
    the blocking one from a worker thread beside the in-loop server."""
    from repro.obs import parse_prometheus_text

    async def body():
        async with service_server() as (server, client):
            call = lambda method, *args, **kwargs: method(*args, **kwargs)  # noqa: E731
            if transport == "http.client":
                client, call = ServiceClient(server.host, server.port), asyncio.to_thread
            try:
                sid = (await call(client.create_session, **PARAMS))["session_id"]
                await call(client.submit, sid, _wave("life", 8))
                step = await call(client.advance, sid, until=1800.0)
                assert step["processed_events"] > 0
                now = (await call(client.status, sid))["now"]
                assert "orgs" in await call(client.quota, sid)
                assert (await call(client.occupancy, sid))["total_gpus"] == 6 * 8
                advice = await call(client.what_if, sid, _payload("life-probe", 1800.0), 2.0)
                assert advice["task_id"] == "life-probe"
                blob = await call(client.snapshot, sid)
                await call(client.advance, sid, until=now + 3600.0)
                assert (await call(client.restore, sid, blob))["now"] == now
                samples = parse_prometheus_text(await call(client.metrics_text))
                assert f'repro_session_now{{session="{sid}"}}' in samples
                assert [s["session_id"] for s in await call(client.list_sessions)] == [sid]
                await call(client.delete_session, sid)
                with pytest.raises(ServiceError) as err:
                    await call(client.status, sid)
                assert err.value.status == 404
            finally:
                if transport == "http.client":
                    client.close()

    asyncio.run(body())


def test_both_transports_expose_the_same_routes():
    """A route added to one client only is a bug; SSE is asyncio-only."""

    def public(cls):
        return {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}

    assert public(AsyncServiceClient) - {"open_stream"} == public(ServiceClient)


def test_shutdown_route_makes_wait_closed_return():
    async def body():
        async with service_server() as (server, client):
            closed = asyncio.ensure_future(server.wait_closed())
            assert (await client.healthz())["status"] == "ok"
            assert not closed.done()
            await client.shutdown()
            await asyncio.wait_for(closed, timeout=10.0)
            with pytest.raises(OSError):  # the listener is gone
                await asyncio.open_connection(server.host, server.port)

    asyncio.run(body())


def test_state_copies_per_request_are_exact_counts(tmp_path, monkeypatch):
    """The service's state-copy budget as counts, which no host can blur:
    with persistence on, a mutating request serialises the simulator once,
    a read never does, a what-if forks once, and nothing deep-copies."""
    copies = {"snapshot": 0, "fork": 0}
    forking = []
    real_snapshot, real_fork = ClusterSimulator.snapshot, ClusterSimulator.fork
    real_deepcopy = copy.deepcopy

    def snapshot(sim):
        if not forking:  # fork() is itself restore(snapshot())
            copies["snapshot"] += 1
        return real_snapshot(sim)

    def fork(sim):
        copies["fork"] += 1
        forking.append(sim)
        try:
            return real_fork(sim)
        finally:
            forking.pop()

    def deepcopy(obj, memo=None):
        if type(obj).__module__.startswith("repro."):
            raise AssertionError(f"copy.deepcopy reached a {type(obj).__name__}")
        return real_deepcopy(obj, memo)

    monkeypatch.setattr(ClusterSimulator, "snapshot", snapshot)
    monkeypatch.setattr(ClusterSimulator, "fork", fork)
    monkeypatch.setattr(copy, "deepcopy", deepcopy)

    async def counted(awaitable):
        before = dict(copies)
        result = await awaitable
        return result, {k: copies[k] - before[k] for k in copies}

    async def body():
        persisted, free, forked = ({"snapshot": 1, "fork": 0}, {"snapshot": 0, "fork": 0},
                                   {"snapshot": 0, "fork": 1})
        async with service_server(state_dir=tmp_path) as (server, client):
            session, cost = await counted(client.create_session(**PARAMS))
            sid = session["session_id"]
            assert cost == persisted
            node_id = server._sessions[sid].sim.cluster.nodes[0].node_id

            for request in (
                client.submit(sid, _wave("cnt", 10)),
                client.advance(sid, until=1800.0),
                client.inject(sid, node_id=node_id, kind="NODE_FAIL"),
            ):
                assert (await counted(request))[1] == persisted
            for request in (client.status(sid), client.quota(sid), client.occupancy(sid)):
                assert (await counted(request))[1] == free
            advice, cost = await counted(client.what_if(sid, _payload("cnt-probe", 1800.0), 2.0))
            assert advice["task_id"] == "cnt-probe" and cost == forked
            with pytest.raises(ServiceError) as err:
                await counted(client.what_if(sid, _payload("cnt-000", 0.0)))
            assert err.value.status == 400
            blob, cost = await counted(client.snapshot(sid))
            assert cost == persisted  # the export itself
            assert (await counted(client.restore(sid, blob)))[1] == persisted
            assert copies == {"snapshot": 6, "fork": 1}  # create, 3 mutations, export, restore

    asyncio.run(body())


def test_http_snapshot_restore_rewinds_session():
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.submit(sid, _wave("snap", 10))
            await client.advance(sid, until=1800.0)
            blob = await client.snapshot(sid)
            now_at_snap = (await client.status(sid))["now"]
            reference = _metrics_fingerprint(
                await self_advance_and_metrics(client, sid)
            )
            restored = await client.restore(sid, blob)
            assert restored["now"] == now_at_snap
            await client.advance(sid)
            assert _metrics_fingerprint(await client.metrics(sid)) == reference

    async def self_advance_and_metrics(client, sid):
        await client.advance(sid)
        return await client.metrics(sid)

    asyncio.run(body())


def test_query_load_does_not_change_session_metrics():
    """A hammered session == a quiet session == the in-process reference."""
    waves = [(900.0, _wave("load", 6)), (2700.0, _wave("load2", 6, start=900.0)), (None, [])]
    reference = _reference_metrics(waves)

    async def body():
        async with service_server() as (server, quiet):
            noisy = AsyncServiceClient(server.host, server.port)
            prober = AsyncServiceClient(server.host, server.port)
            try:
                quiet_id = (await quiet.create_session(**PARAMS))["session_id"]
                noisy_id = (await noisy.create_session(**PARAMS))["session_id"]

                async def drive(client, sid):
                    for advance_to, wave in waves:
                        if wave:
                            await client.submit(sid, wave)
                        await client.advance(sid, until=advance_to)
                    await client.advance(sid)
                    return _metrics_fingerprint(await client.metrics(sid))

                async def hammer(sid, stop):
                    queries = 0
                    while not stop.is_set():
                        await prober.occupancy(sid)
                        await prober.quota(sid)
                        await prober.what_if(sid, _payload(f"probe-{queries}", 0.0), 2.0)
                        queries += 1
                    return queries

                stop = asyncio.Event()
                hammer_task = asyncio.ensure_future(hammer(noisy_id, stop))
                quiet_result, noisy_result = await asyncio.gather(
                    drive(quiet, quiet_id), drive(noisy, noisy_id)
                )
                stop.set()
                queries = await hammer_task
                assert queries > 0, "the query hammer never ran"
                assert noisy_result == quiet_result == reference
            finally:
                await noisy.close()
                await prober.close()

    asyncio.run(body())


def test_concurrent_clients_keep_sessions_isolated():
    """N clients, N sessions, different schedulers, one server — every
    session must match the single-session run of the same inputs."""
    schedulers = ("gfs", "fgd", "yarn-cs", "chronus")

    def reference(kind):
        session = SimulationSession({**PARAMS, "scheduler": kind})
        session.submit(_wave(f"iso-{kind}", 8))
        session.advance()
        return _metrics_fingerprint(session.metrics())

    references = {kind: reference(kind) for kind in schedulers}

    async def body():
        async with service_server() as (server, _):
            async def worker(kind):
                client = AsyncServiceClient(server.host, server.port)
                try:
                    sid = (await client.create_session(**{**PARAMS, "scheduler": kind}))[
                        "session_id"
                    ]
                    # Interleave in small steps so the server genuinely
                    # multiplexes sessions rather than serialising whole runs.
                    await client.submit(sid, _wave(f"iso-{kind}", 8))
                    for stop in (600.0, 1200.0, 2400.0):
                        await client.advance(sid, until=stop, max_events=32)
                        await client.occupancy(sid)
                    await client.advance(sid)
                    return kind, _metrics_fingerprint(await client.metrics(sid))
                finally:
                    await client.close()

            return dict(await asyncio.gather(*(worker(k) for k in schedulers)))

    results = asyncio.run(body())
    for kind in schedulers:
        assert results[kind] == references[kind], f"session isolation broke for {kind}"


# ----------------------------------------------------------------------
# Observability: /metrics, per-session stats, structured access log
# ----------------------------------------------------------------------
def test_metrics_endpoint_is_prometheus_parseable():
    from repro.obs import parse_prometheus_text

    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.submit(sid, _wave("prom", 6))
            await client.advance(sid, until=1800.0)
            page = await client.metrics_text()
            samples = parse_prometheus_text(page)  # raises on malformed lines
            names = {key.split("{", 1)[0] for key in samples}
            # Server-level request accounting...
            assert "repro_http_requests_total" in names
            assert "repro_http_request_s_count" in names
            # ...and per-session live gauges labelled with the session id.
            assert f'repro_session_now{{session="{sid}"}}' in samples
            assert samples[f'repro_session_submitted_tasks{{session="{sid}"}}'] == 6.0
            # The simulator's own counters surface through the session too.
            assert any(
                key.startswith("repro_sim_events_total") and f'session="{sid}"' in key
                for key in samples
            )

    asyncio.run(body())


def test_stats_endpoint_returns_recorder_snapshot():
    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.submit(sid, _wave("stats", 4))
            await client.advance(sid, until=1800.0)
            stats = await client.stats(sid)
            assert stats["session_id"] == sid
            recorder = stats["recorder"]
            assert recorder["enabled"] is True
            assert recorder["counters"]["sim.passes"] > 0
            assert "session.now" in recorder["gauges"]
            json.dumps(stats)  # endpoint payloads must be JSON-clean

    asyncio.run(body())


def test_metrics_survive_restore_and_session_deletion():
    from repro.obs import parse_prometheus_text

    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.submit(sid, _wave("oblife", 4))
            await client.advance(sid, until=900.0)
            blob = await client.snapshot(sid)
            await client.restore(sid, blob)
            await client.advance(sid, until=1800.0)
            # The reattached recorder keeps counting after a restore.
            stats = await client.stats(sid)
            assert stats["recorder"]["counters"]["sim.passes"] > 0
            await client.delete_session(sid)
            page = await client.metrics_text()
            samples = parse_prometheus_text(page)
            assert not any(f'session="{sid}"' in key for key in samples)
            assert any(key.startswith("repro_http_requests_total") for key in samples)

    asyncio.run(body())


def test_structured_access_log_lines(caplog):
    import logging

    async def body():
        async with service_server() as (server, client):
            sid = (await client.create_session(**PARAMS))["session_id"]
            await client.status(sid)
            with pytest.raises(ServiceError):
                await client.status("no-such-session")
            return sid

    with caplog.at_level(logging.INFO, logger="repro.telemetry"):
        sid = asyncio.run(body())
    records = [
        parse_log_line(r.getMessage())
        for r in caplog.records
        if r.name == "repro.telemetry"
    ]
    requests = [r for r in records if r["event"] == "http_request"]
    assert requests, records
    # every request line is a telemetry record of the server's own bus
    for rec in requests:
        assert rec["level"] == "info"
        assert isinstance(rec["ts"], float)
        assert rec["run_id"].startswith("svc-")
        assert isinstance(rec["duration_ms"], (int, float))
        validate_telemetry_record(rec)
    assert len({r["run_id"] for r in requests}) == 1
    seqs = [r["seq"] for r in requests]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert any(
        r["method"] == "POST" and r["path"] == "/sessions" and r["status"] == 200
        for r in requests
    ), requests
    status_lines = [
        r for r in requests if r["method"] == "GET" and r.get("session_id") == sid
    ]
    assert status_lines, requests
    assert any(
        r["status"] == 404 and r.get("session_id") == "no-such-session"
        for r in requests
    ), requests


def test_configure_logging_levels(monkeypatch):
    import logging

    from repro.service import cli as service_cli

    async def no_server(*args, **kwargs):
        return None

    monkeypatch.setattr(service_cli, "serve", no_server)
    logger = logging.getLogger("repro")
    old_level, old_handlers = logger.level, list(logger.handlers)
    try:
        service_cli.main([])  # no --log-level: stays unconfigured
        assert logger.level == old_level and logger.handlers == old_handlers
        service_cli.main(["--log-level", "debug"])
        assert logger.level == logging.DEBUG
        assert len(logger.handlers) == len(old_handlers) + 1
        # the server's telemetry logger inherits the wiring
        assert logging.getLogger("repro.telemetry").isEnabledFor(logging.DEBUG)
    finally:
        for handler in logger.handlers[len(old_handlers):]:
            logger.removeHandler(handler)
        logger.setLevel(old_level)

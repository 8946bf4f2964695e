"""Streaming fan-out benchmark: SSE event throughput and observer cost.

Boots a real :class:`~repro.service.server.SchedulerServer` and measures
the two numbers that decide whether live telemetry is free to leave on:

* **events/sec fan-out** — a loaded session (the one
  ``benchmarks/test_bench_service.py`` drives) run to completion while
  1, 4 and 16 concurrent SSE subscribers consume every event; the rate is total delivered events
  over the wall time from first submission until the slowest subscriber
  has caught up;
* **streamed-vs-unstreamed overhead** — the same drive with the stream
  attached (default backlog) but **zero** subscribers, against a
  ``stream_backlog=0`` session with no stream object at all.  Emitting
  to the ring must be cheap, because every session pays it by default.
  Metrics from the two variants must be bit-identical (the
  zero-observer-effect guarantee, here enforced end-to-end over HTTP).

The overhead ceiling and the delivery floor go through
:func:`_bench_common.gate`; metric identity always asserts.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List

from _bench_common import gate
from repro.service import AsyncServiceClient, SchedulerServer

STREAM_CONFIG: Dict[str, float] = dict(
    num_nodes=8, duration_hours=6.0, waves=4, wave_size=25, reps=3
)

FANOUT_SUBSCRIBERS = (1, 4, 16)
#: large enough that no benchmark subscriber ever falls off the ring
FANOUT_BACKLOG = 1 << 17

#: streaming attached but unobserved is ~free; the drive's sub-2s walls
#: jitter by more than 5% on their own, so the gate is a loose "did emit
#: become pathological?" ceiling
OVERHEAD_CEILING = 1.5
#: single-subscriber delivery is bounded by event *production* (a few
#: hundred events per drive), not transport capacity
EVENTS_PER_SEC_FLOOR = 40.0


def _task(task_id: str, submit_time: float, hp: bool) -> dict:
    return {
        "task_id": task_id,
        "task_type": 1 if hp else 0,
        "num_pods": 1,
        "gpus_per_pod": 4.0,
        "duration": 2400.0,
        "submit_time": submit_time,
        "org": f"org-{sum(task_id.encode()) % 3}",
    }


async def _drive_waves(client, sid: str, cfg: Dict[str, float]) -> None:
    waves, wave_size = int(cfg["waves"]), int(cfg["wave_size"])
    span = cfg["duration_hours"] * 3600.0
    for wave in range(waves):
        wave_start = wave * span / waves
        tasks = [
            _task(
                f"w{wave:02d}-{i:04d}",
                wave_start + i * (span / waves / wave_size),
                hp=(i % 4 == 0),
            )
            for i in range(wave_size)
        ]
        await client.submit(sid, tasks)
        await client.advance(sid, until=(wave + 1) * span / waves)
    await client.advance(sid)


async def _fanout_run(cfg: Dict[str, float], n_subs: int) -> Dict[str, float]:
    """Drive the tier with ``n_subs`` live SSE subscribers consuming."""
    server = SchedulerServer()
    await server.start(port=0)
    client = AsyncServiceClient(server.host, server.port)
    try:
        sid = (
            await client.create_session(
                scheduler="gfs",
                num_nodes=int(cfg["num_nodes"]),
                duration_hours=cfg["duration_hours"],
                seed=19,
                stream_backlog=FANOUT_BACKLOG,
            )
        )["session_id"]
        subs = [await client.open_stream(sid) for _ in range(n_subs)]
        counts = [0] * n_subs
        end_seq: List[int] = []  # set (len 1) once the drive is done

        async def reader(index: int, sub) -> None:
            while True:
                event = await sub.read_event(timeout=120.0)
                assert event is not None, "stream closed mid-benchmark"
                if event["id"] is None:
                    continue  # subscription-local gap frame
                counts[index] += 1
                if end_seq and int(event["id"]) >= end_seq[0]:
                    break

        readers = [asyncio.ensure_future(reader(i, s)) for i, s in enumerate(subs)]
        begin = time.perf_counter()
        await _drive_waves(client, sid, cfg)
        stats = (await client.stats(sid))["stream"]
        end_seq.append(stats["last_seq"])
        # one sentinel event so every caught-up reader observes end_seq
        await client.submit(sid, [_task("sentinel-0000", cfg["duration_hours"] * 3600.0, False)])
        await asyncio.gather(*readers)
        wall = time.perf_counter() - begin
        for sub in subs:
            await sub.close()
        final = (await client.stats(sid))["stream"]
        return {
            "subscribers": n_subs,
            "events": end_seq[0],
            "delivered": sum(counts),
            "wall_s": wall,
            "events_per_sec": sum(counts) / wall if wall > 0 else 0.0,
            "subscriber_drops": final["subscriber_drops"],
        }
    finally:
        await client.close()
        await server.stop()


async def _overhead_run(cfg: Dict[str, float], streamed: bool) -> Dict[str, object]:
    """One unobserved drive; ``streamed=False`` disables the stream entirely."""
    server = SchedulerServer()
    await server.start(port=0)
    client = AsyncServiceClient(server.host, server.port)
    try:
        params = dict(
            scheduler="gfs",
            num_nodes=int(cfg["num_nodes"]),
            duration_hours=cfg["duration_hours"],
            seed=19,
        )
        if not streamed:
            params["stream_backlog"] = 0
        sid = (await client.create_session(**params))["session_id"]
        begin = time.perf_counter()
        await _drive_waves(client, sid, cfg)
        wall = time.perf_counter() - begin
        metrics = await client.metrics(sid)
        return {"wall_s": wall, "metrics": json.dumps(metrics, sort_keys=True)}
    finally:
        await client.close()
        await server.stop()


async def _measure(cfg: Dict[str, float]) -> Dict[str, object]:
    fanout = [await _fanout_run(cfg, n) for n in FANOUT_SUBSCRIBERS]

    reps = int(cfg["reps"])
    await _overhead_run(cfg, streamed=True)  # warm-up, not measured
    streamed_walls, unstreamed_walls = [], []
    streamed_metrics = unstreamed_metrics = None
    for _ in range(reps):  # alternate variants so drift hits both equally
        streamed = await _overhead_run(cfg, streamed=True)
        unstreamed = await _overhead_run(cfg, streamed=False)
        streamed_walls.append(streamed["wall_s"])
        unstreamed_walls.append(unstreamed["wall_s"])
        streamed_metrics = streamed["metrics"]
        unstreamed_metrics = unstreamed["metrics"]
    assert streamed_metrics == unstreamed_metrics, (
        "stream attachment changed simulation metrics (observer effect)"
    )
    return {
        "fanout": fanout,
        "streamed_wall_s": min(streamed_walls),
        "unstreamed_wall_s": min(unstreamed_walls),
        "overhead_ratio": min(streamed_walls) / min(unstreamed_walls),
    }


def test_bench_stream_fanout():
    result = asyncio.run(_measure(STREAM_CONFIG))

    for row in result["fanout"]:
        print(
            f"\n[stream] subs={row['subscribers']} events={row['events']} "
            f"delivered={row['delivered']} rate={row['events_per_sec']:.0f}/s "
            f"drops={row['subscriber_drops']}"
        )
    print(
        f"[stream] overhead streamed={result['streamed_wall_s']:.3f}s "
        f"unstreamed={result['unstreamed_wall_s']:.3f}s "
        f"ratio={result['overhead_ratio']:.3f} (ceiling {OVERHEAD_CEILING})"
    )
    failures = []
    if result["overhead_ratio"] > OVERHEAD_CEILING:
        failures.append(
            f"unobserved streaming overhead above ceiling: "
            f"{result['overhead_ratio']:.3f}x (ceiling {OVERHEAD_CEILING}x)"
        )
    for row in result["fanout"]:
        if row["events_per_sec"] < EVENTS_PER_SEC_FLOOR:
            failures.append(
                f"fan-out rate below floor with {row['subscribers']} subscriber(s): "
                f"{row['events_per_sec']:.0f}/s (floor {EVENTS_PER_SEC_FLOOR:.0f}/s)"
            )
    gate("stream", failures)

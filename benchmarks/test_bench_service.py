"""Service load benchmark: streaming throughput and advice latency.

Boots a real :class:`~repro.service.server.SchedulerServer` (in-process,
ephemeral port) and measures the two rates that make the streaming mode
usable as an operational tool:

* **sustained submissions/sec** — waves of task submissions streamed
  over HTTP into a live session, interleaved with ``advance`` steps, the
  way a real client feeds a shadow scheduler;
* **what-if advice latency (p50/p99)** — speculative placement queries,
  each forking the live session and advancing the fork until the probe
  task finishes; the p99 is the number a dashboard integration would
  care about.

The session is small (8 nodes, 4 waves of 25 submissions, 15 what-if
queries): enough load to catch wiring or order-of-magnitude regressions
on every suite run.  The floor and ceiling go through
:func:`_bench_common.gate`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict

from _bench_common import gate
from repro.cluster.metrics import percentile
from repro.service import AsyncServiceClient, SchedulerServer

SERVICE_CONFIG: Dict[str, float] = dict(
    num_nodes=8, duration_hours=6.0, waves=4, wave_size=25, whatif_queries=15
)

#: floor/ceiling the gate enforces; deliberately loose (~5x slack
#: against a dev laptop) so only real regressions trip them
SUBMISSIONS_PER_SEC_FLOOR = 200.0
WHATIF_P99_CEILING_S = 5.0


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


async def _drive(cfg: Dict[str, float]) -> Dict[str, float]:
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
            )
        )["session_id"]

        # Streaming phase: waves of submissions interleaved with advances.
        waves, wave_size = int(cfg["waves"]), int(cfg["wave_size"])
        span = cfg["duration_hours"] * 3600.0
        submitted = 0
        submit_wall = 0.0
        for wave in range(waves):
            wave_start = wave * span / waves
            tasks = [
                _task(f"w{wave:02d}-{i:04d}", wave_start + i * (span / waves / wave_size),
                      hp=(i % 4 == 0))
                for i in range(wave_size)
            ]
            begin = time.perf_counter()
            await client.submit(sid, tasks)
            submit_wall += time.perf_counter() - begin
            submitted += len(tasks)
            await client.advance(sid, until=(wave + 1) * span / waves)

        # Advice phase against the now-loaded live session.
        latencies = []
        status = await client.status(sid)
        for i in range(int(cfg["whatif_queries"])):
            begin = time.perf_counter()
            await client.what_if(
                sid, _task(f"probe-{i:04d}", status["now"], hp=(i % 2 == 0)), horizon_hours=12.0
            )
            latencies.append(time.perf_counter() - begin)

        await client.advance(sid)
        metrics = await client.metrics(sid)
        assert metrics["unfinished_tasks"] == 0
        return {
            "submitted": submitted,
            "submit_wall_s": submit_wall,
            "submissions_per_sec": submitted / submit_wall,
            "whatif_queries": len(latencies),
            "whatif_p50_ms": percentile(latencies, 50) * 1000.0,
            "whatif_p99_ms": percentile(latencies, 99) * 1000.0,
        }
    finally:
        await client.close()
        await server.stop()


def test_bench_service_streaming():
    result = asyncio.run(_drive(SERVICE_CONFIG))

    print(
        f"\n[service] submitted={result['submitted']} "
        f"rate={result['submissions_per_sec']:.0f}/s "
        f"whatif p50={result['whatif_p50_ms']:.0f}ms p99={result['whatif_p99_ms']:.0f}ms"
    )
    failures = []
    if result["submissions_per_sec"] < SUBMISSIONS_PER_SEC_FLOOR:
        failures.append(
            f"submission throughput below floor: {result['submissions_per_sec']:.0f}/s "
            f"(floor {SUBMISSIONS_PER_SEC_FLOOR:.0f}/s)"
        )
    if result["whatif_p99_ms"] > WHATIF_P99_CEILING_S * 1000.0:
        failures.append(
            f"what-if p99 above ceiling: {result['whatif_p99_ms']:.0f}ms "
            f"(ceiling {WHATIF_P99_CEILING_S * 1000:.0f}ms)"
        )
    gate("service", failures)

"""The four benchmark workloads.

Each workload is a function ``(seed, seconds, smoke, traced) ->
WorkloadResult``.  A plain run reports the end-to-end metrics, a traced
run the per-layer ones (see :mod:`perf_layers`).  Sizes are frozen:
changing one changes what every recorded number means.

Why these four (the traced run shows each has a different phase mix):

``gfs_replay``
    The paper's scheduler, batch replay.  Host time is dominated by the
    GDE forecast behind every quota tick, so cost follows simulated
    hours x organizations rather than tasks.
``baseline_lineup``
    The same kind of trace on a 2x larger cluster under Chronus, then
    PTS without admission control.  No GDE or SQA code runs: a forecaster
    or quota change must leave it unmoved.  Chronus is placement-search
    bound, PTS scoring and victim-selection bound.
``sweep_small_cells``
    The paper-table shape: many small cells through the experiment
    engine with cache and journal on.  Event loop and node bookkeeping
    dominate; the only workload through ``experiments``, ``runtime`` and
    per-cell trace generation.  No GFS cells on purpose: one would cost
    as much as dozens of the others and drown them.
``service_session``
    The GFS simulator used differently: a live session stepped over
    HTTP (never drained), deep-copied for every what-if and pickled +
    fsync'd after every mutating request.  A change that speeds batch replay by adding scheduler
    state shows here as slower steps.
"""

from __future__ import annotations

import asyncio
import hashlib
import pickle
import shutil
import statistics
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perf_harness import (
    OUT_DIR,
    Checks,
    Rep,
    WorkloadResult,
    end_to_end,
    floor_s,
    metrics_digest,
    p90_or_zero,
    percentile,
)
from perf_layers import (
    bench_layer_metrics,
    floor,
    policy_layer_metrics,
    quality_layer_metrics,
    ratio,
    recorder_totals,
    run_variants,
    simulator_layer_metrics,
    sum_totals,
)
from perf_tracing import Tracer

from repro.cluster import Cluster, GPUModel, reset_task_counter
from repro.cluster.simulator import ClusterSimulator, SimulatorConfig
from repro.core.gfs import GFSScheduler
from repro.experiments import ExperimentScale
from repro.experiments.artifacts import ArtifactCache, content_key
from repro.experiments.engine import (
    ExperimentEngine,
    SchedulerSpec,
    WorkloadSpec,
    cache_payload,
    sweep_jobs,
)
from repro.obs import Recorder
from repro.runtime.journal import SweepJournal
from repro.schedulers.registry import create_scheduler
from repro.service import AsyncServiceClient, SchedulerServer, ServiceError
from repro.service.session import reset_session_counter
from repro.workloads import generate_trace

HOUR = 3600.0

#: frozen sizes; the smoke sizes only exist so the harness's own test
#: can run every workload, plain and traced, in a few seconds.
#: ``chunk_s`` is the simulated time one ``advance()`` segment covers:
#: small enough that a segment is tens of milliseconds of host time.
#: ``gfs_replay``'s 16 h is the shortest trace on which the cluster fills:
#: at 10-14 h most seeds never refuse a spot task or preempt one.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "gfs_replay": {
        "full": dict(kinds=("gfs",), nodes=64, hours=16.0, chunk_s=900.0, overrides={}),
        "smoke": dict(
            kinds=("gfs",), nodes=8, hours=1.5, chunk_s=900.0, overrides={"max_runtime": 900.0}
        ),
    },
    "baseline_lineup": {
        "full": dict(kinds=("chronus", "pts"), nodes=128, hours=24.0, chunk_s=1800.0, overrides={}),
        "smoke": dict(
            kinds=("chronus", "pts"), nodes=16, hours=4.0, chunk_s=1800.0,
            overrides={"max_runtime": 3600.0},
        ),
    },
    "sweep_small_cells": {
        "full": dict(nodes=16, hours=8.0, offsets=3),
        "smoke": dict(nodes=8, hours=2.0, offsets=1),
    },
    "service_session": {
        "full": dict(nodes=32, hours=4.0, steps=16, batch=10, horizon_hours=0.25),
        "smoke": dict(nodes=4, hours=1.0, steps=2, batch=4, horizon_hours=0.25),
    },
}
SWEEP_SCHEDULERS = ("yarn-cs", "chronus", "lyra", "fgd", "pts")
SWEEP_SCENARIOS = ("default", "burst", "diurnal", "spot_heavy")
SPOT_SCALE = 2.0
#: simulated seconds one client iteration of the service session advances
STEP_SECONDS = 900.0


def _size(workload: str, smoke: bool) -> Dict[str, object]:
    return SIZES[workload]["smoke" if smoke else "full"]


def _scratch_dir() -> Path:
    """A fresh directory under ``out/`` (inside the checkout, git-ignored)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))


def _timed(fn: Callable[[], object]) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def _check_against(reference: str, results: Dict[str, List[Rep]], checks: Checks, what: str) -> None:
    """Every repetition of every variant reproduces the reference digest."""
    for variant, reps in results.items():
        for rep in reps:
            checks.attempt()
            checks.expect(rep.digest == reference, f"{what}/{variant}: digest differs from the reference")


def _info(results: Dict[str, List[Rep]], **extra: object) -> Dict[str, object]:
    plain = results["plain"]
    return {
        "tasks": plain[0].tasks,
        "repetitions": {variant: len(reps) for variant, reps in results.items()},
        "segments": len(plain[0].segments),
        "floor_s": floor_s(plain),
        **extra,
    }


# ----------------------------------------------------------------------
# gfs_replay and baseline_lineup: batch replays through ClusterSimulator
# ----------------------------------------------------------------------
def _build_scheduler(kind: str, trace):
    if kind == "gfs":
        return GFSScheduler(org_history=trace.org_history)
    return create_scheduler(kind)


def _replay(
    kind: str,
    size: Dict[str, object],
    seed: int,
    tracer: Optional[Tracer],
    with_recorder: bool,
    chunked: bool,
) -> Dict[str, object]:
    """One fresh replay of one scheduler over the seed's trace.

    ``chunked`` advances ``chunk_s`` simulated seconds at a time — the
    deterministic segments of the floor estimator.  Chunk-invariance of
    the stepping API is a tested guarantee, and every run re-checks it
    against one batch ``run()``.
    """
    reset_task_counter()
    build_start = perf_counter()
    cluster = Cluster.homogeneous(int(size["nodes"]), 8, GPUModel.A100)
    frame = tracer.begin("workloads.generate_trace") if tracer else None
    trace = generate_trace(
        cluster_gpus=cluster.total_gpus(),
        duration_hours=float(size["hours"]),
        spot_scale=SPOT_SCALE,
        seed=seed,
        **size["overrides"],
    )
    if tracer:
        tracer.end(frame)
        tracer.count("workloads.tasks", len(trace.tasks))
    recorder = Recorder() if with_recorder else None
    sim = ClusterSimulator(cluster, _build_scheduler(kind, trace), SimulatorConfig(), recorder=recorder)
    tasks = trace.sorted_tasks()
    segment_start = perf_counter()
    sim.submit_all(tasks)
    sim.start()
    now = perf_counter()
    build_s = now - build_start
    segments = [now - segment_start]
    step_of = [-1]
    if chunked:
        origin = until = sim.now
        chunk_s = float(size["chunk_s"])
        while not sim.done:
            step_of.append(int((until - origin) // HOUR))
            until += chunk_s
            frame = tracer.begin("cluster.simulator.advance") if tracer else None
            start = perf_counter()
            sim.advance(until=until)
            segments.append(perf_counter() - start)
            if tracer:
                tracer.end(frame)
        start = perf_counter()
        metrics = sim.finalize()
        segments.append(perf_counter() - start)
        step_of.append(-1)
    else:
        metrics = sim.run()
    return {
        "build_s": build_s,
        "segments": segments,
        "step_of": step_of,
        "tasks": len(tasks),
        "metrics": metrics,
        "digest": metrics_digest(metrics),
        "takes_ctx": sim._scheduler_takes_ctx,
        "recorder": recorder_totals(recorder) if recorder else None,
    }


def _replay_rep(
    size: Dict[str, object],
    seed: int,
    tracer: Optional[Tracer],
    with_recorder: bool,
    chunked: bool = True,
    rep: int = 0,
) -> Rep:
    """One repetition: every scheduler of the workload replayed in turn.

    The same simulated hour under every scheduler of a line-up is one
    step, so the step distribution has one mode, not one per scheduler.
    """
    if tracer:
        tracer.start_rep(rep)
        root = tracer.begin("bench.repetition")
    runs = [_replay(kind, size, seed, tracer, with_recorder, chunked) for kind in size["kinds"]]
    if tracer:
        tracer.end(root)
    return Rep(
        build_s=sum(run["build_s"] for run in runs),
        segments=[s for run in runs for s in run["segments"]],
        step_of=[s for run in runs for s in run["step_of"]],
        tasks=sum(run["tasks"] for run in runs),
        digest=hashlib.sha256("".join(run["digest"] for run in runs).encode()).hexdigest(),
        trace=tracer.finish_rep() if tracer else None,
        recorder=sum_totals([run["recorder"] for run in runs]) if with_recorder else None,
        extra={"runs": runs},
    )


def _replay_workload(
    name: str, seed: int, seconds: float, smoke: bool = False, traced: bool = False
) -> WorkloadResult:
    size = _size(name, smoke)
    checks = Checks()
    tracer = Tracer()

    # One batch run() first: the reference digest, and the process's warm-up.
    reference = _replay_rep(size, seed, None, False, chunked=False)
    checks.attempt()
    for kind, run in zip(size["kinds"], reference.extra["runs"]):
        checks.conserved(run["metrics"], run["tasks"], f"{name}/{kind}")

    results = run_variants(
        lambda i, tr, rec: _replay_rep(size, seed, tr, rec, rep=i), seconds, traced, tracer, smoke
    )
    _check_against(reference.digest, results, checks, f"{name} chunked vs batch")
    for variant, reps in results.items():
        checks.expect(
            all(run["takes_ctx"] for rep in reps for run in rep.extra["runs"]),
            f"{name}/{variant}: the scheduler lost its ctx parameter",
        )

    digests = {
        f"{name}/{kind}": run["digest"] for kind, run in zip(size["kinds"], reference.extra["runs"])
    }
    info = _info(results)
    if not traced:
        return WorkloadResult(checks, end_to_end(results["plain"]), digests, info)

    metrics = policy_layer_metrics(results["traced"], checks)
    metrics.update(simulator_layer_metrics(results["traced"], info["floor_s"]))
    last = reference.extra["runs"][-1]["metrics"]
    metrics.update(
        quality_layer_metrics(last.spot.eviction_rate, last.spot.jqt_mean, last.allocation_rate_mean)
    )
    metrics.update(bench_layer_metrics(results))
    return WorkloadResult(checks, metrics, digests, info, trace=tracer.export())


# ----------------------------------------------------------------------
# sweep_small_cells: the experiment engine, cold / warm / resume
# ----------------------------------------------------------------------
CELLS_PER_REPLICATE = len(SWEEP_SCHEDULERS) * len(SWEEP_SCENARIOS)


def _sweep_grid(size: Dict[str, object], seed: int):
    """The job list: one replicate of the 5 x 4 paper-table grid per seed offset."""
    scale = ExperimentScale(
        name="perf", num_nodes=int(size["nodes"]), duration_hours=float(size["hours"]), seed=seed
    )
    schedulers = [SchedulerSpec(kind=kind) for kind in SWEEP_SCHEDULERS]
    jobs = []
    for offset in range(int(size["offsets"])):
        workloads = [
            WorkloadSpec(scenario=scenario, spot_scale=SPOT_SCALE, seed_offset=offset)
            for scenario in SWEEP_SCENARIOS
        ]
        jobs.extend(sweep_jobs(scale, schedulers, workloads, prefix="perf"))
    return jobs


def _results_digest(jobs, results) -> str:
    return hashlib.sha256(
        "".join(metrics_digest(results[job.key]) for job in jobs).encode()
    ).hexdigest()


def _profile_totals(engine: ExperimentEngine) -> Dict[str, float]:
    """Recorder totals of a ``profile=True`` engine, summed over its cells."""
    columns = {
        "events": "obs_events", "passes": "obs_passes", "searches": "obs_searches",
        "memo_hits": "obs_memo_hits", "index_rejects": "obs_index_rejects",
        "pass_s": "obs_pass_wall_s", "dispatch_s": "obs_dispatch_wall_s",
        "accrual_s": "obs_accrual_wall_s",
    }
    return {
        key: float(sum(row[column] for row in engine.profiles.values()))
        for key, column in columns.items()
    }


def _sweep_rep(
    size: Dict[str, object],
    seed: int,
    tracer: Optional[Tracer],
    with_recorder: bool,
    checks: Checks,
    rep: int = 0,
) -> Rep:
    """Cold sweep (cache + journal on), then warm (cache only), then resume (journal only).

    The cold sweep is the measured work, one segment per cell and one
    step per grid replicate; warm, resume and journal replay are timed
    whole for the per-layer numbers.
    """
    if tracer:
        tracer.start_rep(rep)
        root = tracer.begin("bench.repetition")
    build_start = perf_counter()
    jobs = _sweep_grid(size, seed)
    scratch = _scratch_dir()
    try:
        cache = ArtifactCache(scratch / "cache")
        journal_path = scratch / "journal.jsonl"
        stamps: List[float] = []
        engine = ExperimentEngine(
            workers=1,
            cache=cache,
            journal=journal_path,
            profile=with_recorder,
            progress=lambda job, outcome: stamps.append(perf_counter()),
        )
        start = perf_counter()
        build_s = start - build_start
        cold = engine.run(jobs)
        end = perf_counter()
        # one segment per cell (the engine's work before the first cell
        # rides on it), then whatever the engine does after the last one
        segments = [b - a for a, b in zip([start] + stamps[:-1], stamps)] + [end - stamps[-1]]
        step_of = [i // CELLS_PER_REPLICATE for i in range(len(jobs))] + [-1]

        warm_engine = ExperimentEngine(workers=1, cache=cache)
        warm: Dict[str, object] = {}
        warm_s = _timed(lambda: warm.update(warm_engine.run(jobs)))
        resume_engine = ExperimentEngine(workers=1, journal=journal_path)
        resumed: Dict[str, object] = {}
        resume_s = _timed(lambda: resumed.update(resume_engine.run(jobs)))
        replay_s = _timed(SweepJournal(journal_path).replay)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer:
        tracer.end(root)

    checks.attempt(3 * len(jobs))
    failed = engine.stats.failed + warm_engine.stats.failed + resume_engine.stats.failed
    if failed:
        checks.fail("sweep: the engine reported failed cells", failed)
    checks.expect(engine.stats.executed == len(jobs), "sweep: cold pass did not execute every cell")
    checks.expect(warm_engine.stats.cache_hits == len(jobs), "sweep: warm pass missed the cache")
    checks.expect(
        resume_engine.stats.journal_hits == len(jobs), "sweep: resume pass missed the journal"
    )
    digest = _results_digest(jobs, cold)
    if rep == 0:
        # digesting costs a tenth of a repetition: the cache and the journal
        # are compared with the cold results once per variant, and every
        # later repetition with the first through its cold digest
        checks.expect(_results_digest(jobs, warm) == digest, "sweep: warm results differ from cold")
        checks.expect(_results_digest(jobs, resumed) == digest, "sweep: resumed results differ from cold")
    checks.expect(
        all(m.unfinished_tasks == 0 for m in cold.values()), "sweep: a cell left tasks unfinished"
    )
    return Rep(
        build_s=build_s,
        segments=segments,
        step_of=step_of,
        tasks=sum(m.hp.count + m.spot.count for m in cold.values()),
        digest=digest,
        trace=tracer.finish_rep() if tracer else None,
        recorder=_profile_totals(engine) if with_recorder else None,
        extra={
            "cells": len(jobs),
            "cold_s": end - start,
            "warm_s": warm_s,
            "resume_s": resume_s,
            "replay_s": replay_s,
            "last_metrics": cold[jobs[-1].key],
        },
    )


def _engine_layer_metrics(
    size: Dict[str, object], seed: int, results: Dict[str, List[Rep]]
) -> Dict[str, float]:
    """``experiments.*`` and ``runtime.*``: spans, direct calls and one pool run."""
    plain, traced_reps = results["plain"], results["traced"]
    cells = plain[0].extra["cells"]
    last = traced_reps[-1].trace

    def mean_us(name: str) -> float:
        return ratio(last.total(name) * 1e6, last.calls(name))

    def plain_ms_per_cell(key: str) -> float:
        return floor([rep.extra[key] for rep in plain]) * 1000.0 / cells

    jobs = _sweep_grid(size, seed)
    key_s = min(
        _timed(lambda: [content_key(cache_payload(job)) for job in jobs]) for _ in range(3)
    )
    # the pool path is informational: two workers on two shared cores
    # measured 25% apart between back-to-back runs
    scratch = _scratch_dir()
    try:
        pool_engine = ExperimentEngine(
            workers=2, cache=ArtifactCache(scratch / "cache"), journal=scratch / "journal.jsonl"
        )
        pool_s = _timed(lambda: pool_engine.run(jobs))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "experiments.engine.execute_job_s": floor(
            [rep.trace.total("experiments.engine.execute_job") for rep in traced_reps]
        ),
        "experiments.engine.overhead_ms_per_cell": floor(
            [
                (rep.extra["cold_s"] - rep.trace.total("experiments.engine.execute_job")) * 1000.0 / cells
                for rep in traced_reps
            ]
        ),
        "experiments.engine.warm_ms_per_cell": plain_ms_per_cell("warm_s"),
        "experiments.engine.resume_ms_per_cell": plain_ms_per_cell("resume_s"),
        "experiments.engine.job_pickle_bytes": statistics.mean(len(pickle.dumps(job)) for job in jobs),
        "experiments.artifacts.key_us": key_s * 1e6 / cells,
        "experiments.artifacts.store_us": mean_us("experiments.artifacts.store"),
        "experiments.artifacts.load_us": mean_us("experiments.artifacts.load"),
        "runtime.journal.record_done_us": mean_us("runtime.journal.record_done"),
        "runtime.journal.replay_ms": floor([rep.extra["replay_s"] for rep in plain]) * 1000.0,
        "runtime.executor.pool_cold_s": pool_s,
        "runtime.executor.pool_speedup": floor([rep.extra["cold_s"] for rep in plain]) / pool_s,
    }


def sweep_small_cells(seed: int, seconds: float, smoke: bool = False, traced: bool = False) -> WorkloadResult:
    size = _size("sweep_small_cells", smoke)
    checks = Checks()
    tracer = Tracer()
    results = run_variants(
        lambda i, tr, rec: _sweep_rep(size, seed, tr, rec, checks, rep=i),
        seconds, traced, tracer, smoke,
    )
    plain = results["plain"]
    _check_against(plain[0].digest, results, checks, "sweep_small_cells")
    info = _info(results, cells=plain[0].extra["cells"])
    digests = {"sweep_small_cells/cold": plain[0].digest}
    if not traced:
        return WorkloadResult(checks, end_to_end(plain), digests, info)

    metrics = policy_layer_metrics(results["traced"], checks)
    checks.expect(
        metrics["workloads.tasks"] == plain[0].tasks,
        "sweep: finished tasks differ from the tasks the traces held",
    )
    metrics.update(simulator_layer_metrics(results["traced"], info["floor_s"]))
    metrics.update(_engine_layer_metrics(size, seed, results))
    last = plain[0].extra["last_metrics"]
    metrics.update(
        quality_layer_metrics(last.spot.eviction_rate, last.spot.jqt_mean, last.allocation_rate_mean)
    )
    metrics.update(bench_layer_metrics(results))
    return WorkloadResult(checks, metrics, digests, info, trace=tracer.export())


# ----------------------------------------------------------------------
# service_session: one client stepping a persisted GFS session over HTTP
# ----------------------------------------------------------------------
def _session_script(size: Dict[str, object], seed: int) -> List[Tuple[List[dict], dict]]:
    """Per step: the batch to submit and the what-if probe, made from the seed."""
    rng = np.random.default_rng(seed)
    batch_size = int(size["batch"])
    script = []
    for step in range(int(size["steps"])):
        now = step * STEP_SECONDS
        batch = [
            {
                "task_id": f"live-{step:03d}-{i:03d}",
                "task_type": 1 if rng.random() < 0.3 else 0,
                "num_pods": 1,
                "gpus_per_pod": float(rng.choice([1.0, 2.0, 4.0, 8.0])),
                "duration": float(rng.uniform(600.0, 5400.0)),
                "submit_time": now + i * (STEP_SECONDS / batch_size),
                "org": f"org-{int(rng.integers(0, 3))}",
            }
            for i in range(batch_size)
        ]
        probe = {
            "task_id": f"probe-{step:03d}",
            "task_type": 1,
            "num_pods": 1,
            "gpus_per_pod": 4.0,
            "duration": 1800.0,
            "submit_time": now + STEP_SECONDS,
            "org": "org-0",
        }
        script.append((batch, probe))
    return script


class _Requests:
    """Client-side timing of every request: one client, one connection, closed loop."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        #: request name -> latencies of every session of the run
        self.latencies: Dict[str, List[float]] = {}
        #: client latency minus the server-side spans it covered
        self.overheads: List[float] = []
        self.sent = 0
        self.non_2xx = 0
        #: the current session's segments: one per request
        self.segments: List[float] = []
        self.step_of: List[int] = []

    def begin_session(self) -> None:
        self.segments, self.step_of = [], []

    async def call(self, name: str, awaitable, step: int = -1):
        self.sent += 1
        frame = self.tracer.begin(f"service.{name}", request=True) if self.tracer else None
        start = perf_counter()
        try:
            return await awaitable
        except ServiceError:
            self.non_2xx += 1
            raise
        finally:
            elapsed = perf_counter() - start
            self.latencies.setdefault(name, []).append(elapsed)
            self.segments.append(elapsed)
            self.step_of.append(step)
            if frame is not None:
                self.tracer.end(frame)
                if name in ("submit", "advance", "whatif"):
                    self.overheads.append(elapsed - frame[2])


async def _session(size: Dict[str, object], seed: int, script, requests: _Requests) -> Dict[str, object]:
    """Boot a persisting server, run one scripted session, tear everything down."""
    reset_task_counter()
    reset_session_counter()
    requests.begin_session()
    scratch = _scratch_dir()
    build_start = perf_counter()
    server = SchedulerServer(state_dir=scratch)
    await server.start(port=0)
    client = AsyncServiceClient(server.host, server.port)
    try:
        status = await requests.call(
            "create",
            client.create_session(
                scheduler="gfs",
                num_nodes=int(size["nodes"]),
                duration_hours=float(size["hours"]),
                spot_scale=SPOT_SCALE,
                seed=seed,
                preload=True,
            ),
        )
        build_s = perf_counter() - build_start
        sid = status["session_id"]
        submitted = status["submitted_tasks"]
        streamed = 0
        now = 0.0
        for step, (batch, probe) in enumerate(script):
            now += STEP_SECONDS
            await requests.call("submit", client.submit(sid, batch), step)
            await requests.call("advance", client.advance(sid, until=now), step)
            await requests.call("status", client.status(sid), step)
            await requests.call("quota", client.quota(sid), step)
            await requests.call(
                "whatif", client.what_if(sid, probe, horizon_hours=float(size["horizon_hours"])), step
            )
            streamed += len(batch)
        final = await requests.call("metrics", client.metrics(sid))
        stats = await requests.call("stats", client.stats(sid))
        snapshot = await requests.call("snapshot", client.snapshot(sid))
        await requests.call("delete", client.delete_session(sid))
    finally:
        await client.close()
        await server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "build_s": build_s,
        "final": final,
        "stats": stats,
        "snapshot_bytes": len(snapshot),
        "submitted": submitted + streamed,
        "streamed": streamed,
    }


def _stats_recorder_totals(stats: Dict[str, object]) -> Dict[str, float]:
    """Recorder totals out of the ``GET /sessions/{id}/stats`` document."""
    counters = stats["recorder"]["counters"]
    hist = stats["recorder"]["histograms"]

    def hist_sum(name: str) -> float:
        return float(hist[name]["sum"]) if name in hist else 0.0

    return {
        "events": sum(v for k, v in counters.items() if k.startswith("sim.events")),
        "passes": counters.get("sim.passes", 0.0),
        "searches": counters.get("sim.pass.searches", 0.0),
        "memo_hits": counters.get("sim.pass.memo_hits", 0.0),
        "index_rejects": counters.get("sim.pass.index_rejects", 0.0),
        "pass_s": hist_sum("sim.pass_wall_s"),
        "dispatch_s": sum(hist_sum(k) for k in hist if k.startswith("sim.dispatch_s.")),
        "accrual_s": hist_sum("sim.metric_accrual_s"),
    }


def _service_rep(
    size: Dict[str, object], seed: int, script, tracer: Optional[Tracer], requests: _Requests, rep: int
) -> Rep:
    if tracer:
        tracer.start_rep(rep)
        root = tracer.begin("bench.repetition")
    outcome = asyncio.run(_session(size, seed, script, requests))
    if tracer:
        tracer.end(root)
    final = outcome["final"]
    return Rep(
        build_s=outcome["build_s"],
        segments=list(requests.segments),
        step_of=list(requests.step_of),
        # throughput through this front door is the tasks the client streams
        # in, the same number at every seed; the preloaded ones are background
        # load whose count the seed draws (cost follows simulated time here)
        tasks=outcome["streamed"],
        digest=hashlib.sha256(repr(sorted((k, repr(v)) for k, v in final.items())).encode()).hexdigest(),
        trace=tracer.finish_rep() if tracer else None,
        recorder=_stats_recorder_totals(outcome["stats"]),
        extra=outcome,
    )


def _service_layer_metrics(
    traced_reps: Sequence[Rep], plain: _Requests, traced: _Requests
) -> Dict[str, float]:
    """``service.*``: client-observed latency beside the server-side spans.

    Client latencies pool the plain and the traced sessions of the run
    (the proxies add about 1%), so that a p90 has its hundred samples.
    """
    lat = {name: plain.latencies[name] + traced.latencies[name] for name in traced.latencies}
    samples: Dict[str, List[float]] = {}
    for rep in traced_reps:
        for name, durations in rep.trace.samples.items():
            samples.setdefault(name, []).extend(durations)

    def p50_ms(values: Sequence[float]) -> float:
        return percentile(values, 50.0) * 1000.0 if values else 0.0

    def span_p50_ms(name: str) -> float:
        return p50_ms(samples.get(name, ()))

    return {
        "service.http_floor_p50_ms": p50_ms(lat["status"]),
        "service.submit_p50_ms": p50_ms(lat["submit"]),
        "service.advance_p50_ms": p50_ms(lat["advance"]),
        "service.whatif_p50_ms": p50_ms(lat["whatif"]),
        "service.submit_p90_ms": p90_or_zero(lat["submit"]) * 1000.0,
        "service.advance_p90_ms": p90_or_zero(lat["advance"]) * 1000.0,
        "service.http_overhead_p50_ms": p50_ms(traced.overheads),
        "service.session.submit_p50_ms": span_p50_ms("service.session.submit"),
        "service.session.advance_p50_ms": span_p50_ms("service.session.advance"),
        "service.session.whatif_p50_ms": span_p50_ms("service.session.what_if"),
        "service.session.snapshot_p50_ms": span_p50_ms("service.session.snapshot"),
        "service.store.save_p50_ms": span_p50_ms("service.store.save"),
        "cluster.simulator.fork_p50_ms": span_p50_ms("cluster.simulator.fork"),
        "service.snapshot.bytes": traced_reps[-1].extra["snapshot_bytes"],
        "service.requests": plain.sent + traced.sent,
        "service.non_2xx": plain.non_2xx + traced.non_2xx,
    }


def service_session(seed: int, seconds: float, smoke: bool = False, traced: bool = False) -> WorkloadResult:
    size = _size("service_session", smoke)
    checks = Checks()
    tracer = Tracer()
    script = _session_script(size, seed)
    plain_requests, traced_requests = _Requests(None), _Requests(tracer)

    def one_rep(i: int, tr: Optional[Tracer], with_recorder: bool) -> Rep:
        return _service_rep(size, seed, script, tr, traced_requests if tr else plain_requests, i)

    # a session's recorder is always on, so there is no recorder variant
    try:
        results = run_variants(one_rep, seconds, traced, tracer, smoke, variants=("plain", "traced"))
    except ServiceError as error:
        # the script means nothing after a refused request: report the run
        # as failed instead of dying without a result line
        checks.attempt(plain_requests.sent + traced_requests.sent)
        checks.fail(f"service_session: {error}", plain_requests.non_2xx + traced_requests.non_2xx)
        return WorkloadResult(checks, {}, {}, {"aborted": str(error)})
    plain = results["plain"]
    _check_against(plain[0].digest, results, checks, "service_session final metrics")
    for reps in results.values():
        for rep in reps:
            final = rep.extra["final"]
            accounted = final["hp"]["count"] + final["spot"]["count"] + final["unfinished_tasks"]
            submitted = rep.extra["submitted"]
            checks.expect(
                accounted == submitted,
                f"service_session: finished+unfinished {accounted} != submitted {submitted}",
            )
    sent = plain_requests.sent + traced_requests.sent
    non_2xx = plain_requests.non_2xx + traced_requests.non_2xx
    checks.attempt(sent)
    if non_2xx:
        checks.fail("service_session: non-2xx responses", non_2xx)

    info = _info(results, requests=sent, samples_per_operation=len(plain_requests.latencies["submit"]))
    digests = {"service_session/final_metrics": plain[0].digest}
    if not traced:
        return WorkloadResult(checks, end_to_end(plain), digests, info)

    metrics = policy_layer_metrics(results["traced"], checks)
    metrics.update(
        simulator_layer_metrics(results["traced"], info["floor_s"], subtract_tick_hook=False)
    )
    metrics.update(_service_layer_metrics(results["traced"], plain_requests, traced_requests))
    final = plain[0].extra["final"]
    metrics.update(
        quality_layer_metrics(
            final["spot"]["eviction_rate"], final["spot"]["jqt_mean"], final["allocation_rate_mean"]
        )
    )
    metrics.update(bench_layer_metrics(results))
    return WorkloadResult(checks, metrics, digests, info, trace=tracer.export())


WORKLOADS: Dict[str, Callable[..., WorkloadResult]] = {
    "gfs_replay": partial(_replay_workload, "gfs_replay"),
    "baseline_lineup": partial(_replay_workload, "baseline_lineup"),
    "sweep_small_cells": sweep_small_cells,
    "service_session": service_session,
}

"""Parallel experiment engine: fan a simulation grid out across processes.

The engine turns the scheduler x workload x seed matrix behind every paper
table into *declarative, picklable job specs* and executes them either
serially or on a :class:`concurrent.futures.ProcessPoolExecutor`.  Because
each job re-creates its trace, cluster and scheduler from the spec inside
the worker process — with an explicit RNG seed and a reset task-id counter
— results are bit-identical at any worker count (guarded by
``tests/test_engine.py::test_worker_count_parity``).

Results are memoised in a content-keyed :class:`~.artifacts.ArtifactCache`
(SHA-256 of the canonical job payload), so re-runs and ``cli all`` are
incremental: only cells whose configuration changed are re-simulated.

Execution is fault-tolerant (see ``docs/fault_tolerance.md``): jobs run
under a :class:`~repro.runtime.JobGuard` (timeout, bounded retries with
deterministic backoff), worker-process deaths re-spawn the pool and
re-queue in-flight cells instead of aborting the sweep, exhausted cells
collapse into structured :class:`~repro.runtime.JobFailure` results in
``engine.failures``, and an optional write-ahead
:class:`~repro.runtime.SweepJournal` makes sweeps resumable across
crashes and ``kill -9`` (``cli sweep --resume``).  SIGINT/SIGTERM drain
gracefully: in-flight cells finish and are journaled before the
interrupt surfaces.

Typical use::

    engine = ExperimentEngine(workers=8, cache=ArtifactCache(".repro-cache"))
    jobs = sweep_jobs(scale, comparison_specs(), [WorkloadSpec(spot_scale=2.0)])
    metrics = engine.run(jobs)          # {job.key: SimulationMetrics}
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..cluster import ClusterSimulator, SimulationMetrics, SimulatorConfig, reset_task_counter
from ..core import GFSConfig
from ..dynamics import DynamicsSpec, FaultInjector, get_dynamics
from ..obs import Recorder
from ..obs.profiler import phase_totals
from ..obs.telemetry import TelemetryBus
from ..runtime import (
    ChaosPlan,
    ChaosWorker,
    GracefulShutdown,
    JobFailure,
    JobGuard,
    ResilientExecutor,
    SweepError,
    SweepJournal,
)
from ..schedulers.registry import available_schedulers, create_scheduler, display_name
from ..workloads import Scenario, Trace, get_scenario
from .artifacts import (
    ArtifactCache,
    content_key,
    flatten_metrics,
    metrics_from_payload,
    metrics_to_payload,
)
from .config import ExperimentScale

#: Hashable key/value pairs standing in for a dict in frozen specs.
OverridePairs = Tuple[Tuple[str, object], ...]


def as_pairs(overrides: Optional[Mapping[str, object]]) -> OverridePairs:
    """Convert an override mapping into sorted hashable pairs."""
    if not overrides:
        return ()
    return tuple(sorted(overrides.items()))


# ----------------------------------------------------------------------
# Declarative job specs (must stay picklable: no lambdas, no closures)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduler to build inside the worker.

    ``kind`` is any name in :mod:`repro.schedulers.registry` — a baseline
    (``yarn-cs``/``chronus``/``lyra``/``fgd``), ``pts``, ``gfs`` or a GFS
    ablation variant (``gfs-e``/``gfs-d``/``gfs-s``/``gfs-p``/``gfs-sp``).
    ``gfs_config`` holds :class:`GFSConfig` keyword overrides as sorted
    pairs (e.g. ``(("guarantee_hours", 4.0),)``).
    """

    kind: str
    label: str = ""
    gfs_config: OverridePairs = ()

    @property
    def display(self) -> str:
        return self.label or display_name(self.kind)


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workload to generate inside the worker.

    ``scenario`` names a registered :class:`~repro.workloads.Scenario`.
    ``dynamics`` optionally names a registered
    :class:`~repro.dynamics.DynamicsSpec` preset to attach cluster
    dynamics to this cell — it *overrides* any dynamics the scenario
    itself carries, so chaos presets compose with every scenario
    including ``trace:<path>`` replays.
    """

    scenario: str = "default"
    spot_scale: float = 1.0
    seed_offset: int = 0
    label: str = ""
    dynamics: str = ""

    @property
    def display(self) -> str:
        return self.label or self.scenario

    @property
    def cell(self) -> str:
        """Grid label of this workload: ``display`` plus the seed-offset
        suffix that keeps seed replicates of one workload apart."""
        return f"{self.display}+s{self.seed_offset}" if self.seed_offset else self.display


@dataclass(frozen=True)
class SimulationJob:
    """One cell of the experiment grid: scale x scheduler x workload.

    This is *the* description of a run — :func:`build_simulation` turns
    one into a live simulator for the engine, service sessions, ``cli
    trace-viz``/``profile`` and the observation runners alike.
    ``scenario`` is the resolved :class:`Scenario` object; leave it
    ``None`` and the engine fills it in from the registry before
    dispatch, so custom scenarios registered in the parent process reach
    workers on any multiprocessing start method (fork *and* spawn).
    """

    key: str
    scale: ExperimentScale
    scheduler: SchedulerSpec
    workload: WorkloadSpec
    scenario: Optional[Scenario] = None

    def resolved_scenario(self) -> Scenario:
        return self.scenario if self.scenario is not None else get_scenario(
            self.workload.scenario
        )

    @property
    def seed(self) -> int:
        """The one seed of this cell: trace generator and fault schedule."""
        return self.scale.seed + self.workload.seed_offset

    def resolved_dynamics(self) -> Optional[DynamicsSpec]:
        """The dynamics spec this cell runs under (workload overrides scenario)."""
        if self.workload.dynamics:
            return get_dynamics(self.workload.dynamics)
        return self.resolved_scenario().dynamics

    def describe(self) -> Dict[str, object]:
        """Flat descriptor used in exports and cache payload auditing."""
        dynamics = self.resolved_dynamics()
        return {
            "key": self.key,
            "scale": self.scale.name,
            "scenario": self.workload.scenario,
            "workload": self.workload.display,
            "scheduler": self.scheduler.display,
            "spot_scale": self.workload.spot_scale,
            "seed": self.seed,
            "dynamics": dynamics.name if dynamics is not None else "",
        }


class JobSpecError(ValueError):
    """A run description no simulation can run; ``flag`` names the bad
    field as the command-line option that sets it."""

    #: fields whose option is not simply ``--<field>``
    FLAGS = {"num_nodes": "--nodes", "duration_hours": "--hours", "spot_scale": "--spot-scale"}

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.flag = self.FLAGS.get(field, f"--{field}")


def check_job(job: SimulationJob) -> SimulationJob:
    """The one input check of a run description, before anything is built.

    Service sessions (a 400), engine stage 1 (before any executor runs a
    cell), ``cli profile``/``trace-viz`` and the observation runs call it.  Returns the job with
    its scenario resolved; raises :class:`JobSpecError` naming the first
    bad field.
    """
    scale, workload = job.scale, job.workload
    kinds = available_schedulers()
    for name, value, ok, want in (
        ("num_nodes", scale.num_nodes, scale.num_nodes >= 1, "at least 1"),
        ("gpus_per_node", scale.gpus_per_node, scale.gpus_per_node >= 1, "at least 1"),
        ("duration_hours", scale.duration_hours, 0.0 < scale.duration_hours < math.inf,
         "positive and finite"),
        ("spot_scale", workload.spot_scale, 0.0 <= workload.spot_scale < math.inf,
         "non-negative and finite"),
        ("scheduler", job.scheduler.kind, job.scheduler.kind.lower() in kinds, f"one of {kinds}"),
    ):
        if not ok:
            raise JobSpecError(name, f"{name}={value!r} must be {want}")
    name = "scenario"
    try:
        job = dataclasses.replace(job, scenario=job.resolved_scenario())
        name = "dynamics"
        job.resolved_dynamics()
    except (KeyError, FileNotFoundError) as exc:  # unknown name, missing ``trace:`` file
        raise JobSpecError(name, exc.args[0]) from exc
    return job


def build_scheduler(spec: SchedulerSpec, trace: Trace) -> object:
    """Materialise a scheduler from its spec through the scheduler registry.

    The GFS family additionally receives the trace's per-organization
    demand history and the spec's :class:`GFSConfig` overrides.
    """
    kwargs: Dict[str, object] = {}
    if spec.kind.lower().startswith("gfs"):
        kwargs["org_history"] = trace.org_history
        if spec.gfs_config:
            kwargs["config"] = GFSConfig(**dict(spec.gfs_config))
    return create_scheduler(spec.kind, **kwargs)


def cache_payload(job: SimulationJob) -> Dict[str, object]:
    """The *semantic* payload a job's cache key is derived from.

    Deliberately excludes the grid key and display labels (so e.g. the
    GFS/medium cell of Table 8 and Table 9 share one cache entry) and
    deliberately *includes* the resolved scenario's ``cache_descriptor``
    — for synthetic scenarios the overrides, fleet mix and the
    organization mix materialised for this job's seed; for ``trace:``
    scenarios the SHA-256 of the trace file — so editing a scenario *or*
    a trace file invalidates its cached results instead of serving stale
    metrics.
    """
    scale = job.scale
    scenario = job.resolved_scenario()
    descriptor = scenario.cache_descriptor(job.seed)
    dynamics = job.resolved_dynamics()
    return {
        "scale": {
            "num_nodes": scale.num_nodes,
            "gpus_per_node": scale.gpus_per_node,
            "duration_hours": scale.duration_hours,
            "seed": scale.seed,
            "gpu_model": scale.gpu_model,
            "workload_overrides": scale.workload_overrides,
        },
        "scheduler": {"kind": job.scheduler.kind.lower(), "gfs_config": job.scheduler.gfs_config},
        "workload": {
            "scenario": descriptor,
            "spot_scale": job.workload.spot_scale,
            "seed_offset": job.workload.seed_offset,
            # The *resolved* dynamics (a workload-level preset overrides the
            # scenario's own), so attaching/editing chaos invalidates
            # exactly the affected cells.
            "dynamics": dynamics.descriptor() if dynamics is not None else None,
        },
    }


def build_simulation(
    job: SimulationJob,
    config: Optional[SimulatorConfig] = None,
    recorder: Optional[Recorder] = None,
) -> Tuple[ClusterSimulator, Trace]:
    """The one path from a run description to a live simulator.

    The scenario's cluster and trace, the scheduler from the registry
    and the resolved dynamics (a workload preset overrides the
    scenario's own) bound to the job seed.  Nothing is submitted: batch
    callers ``submit_all(trace.sorted_tasks())`` and ``run()``, the
    service keeps the simulator live.  Deterministic given the job alone
    (seeded trace RNG, task-id counter reset), with or without a
    ``recorder`` (the obs parity suite guards this).
    """
    reset_task_counter()
    scale = job.scale
    scenario = job.resolved_scenario()
    trace = scenario.build_trace(
        cluster_gpus=scale.total_gpus,
        duration_hours=scale.duration_hours,
        spot_scale=job.workload.spot_scale,
        seed=job.seed,
        gpu_model=scale.gpu_model,
        base_overrides=scale.workload_overrides,
    )
    cluster = scenario.build_cluster(scale.num_nodes, scale.gpus_per_node, scale.gpu_model)
    dynamics = job.resolved_dynamics()
    simulator = ClusterSimulator(
        cluster,
        build_scheduler(job.scheduler, trace),
        config,
        dynamics=FaultInjector(dynamics, seed=job.seed) if dynamics is not None else None,
        recorder=recorder,
    )
    return simulator, trace


def execute_job(job: SimulationJob, recorder: Optional[Recorder] = None) -> SimulationMetrics:
    """Run one grid cell; top-level so it pickles into worker processes.

    A cell computes the same metrics whether it runs serially, in a pool,
    or from cache (see :func:`build_simulation`); profiled and unprofiled
    cells share one cache entry.
    """
    simulator, trace = build_simulation(job, recorder=recorder)
    simulator.submit_all(trace.sorted_tasks())
    return simulator.run()


def job_profile_summary(recorder: Recorder, wall_s: float) -> Dict[str, object]:
    """Flatten one cell's recorder into ``obs_*`` grid columns.

    Counter-derived columns (events, passes, examined, …) are
    deterministic; the ``*_wall_s`` columns are the profiler's
    :func:`~repro.obs.profiler.phase_totals` and vary run to run
    (``obs_tick_wall_s`` is the scheduler's tick hook: GDE forecast and
    SQA quota under GFS).
    """
    totals = phase_totals(recorder)
    events = sum(
        value for (name, _), value in recorder.counters.items() if name == "sim.events"
    )
    return {
        "obs_wall_s": round(wall_s, 6),
        "obs_events": int(events),
        "obs_passes": int(recorder.counter_value("sim.passes")),
        "obs_examined": int(recorder.counter_value("sim.pass.examined")),
        "obs_scheduled": int(recorder.counter_value("sim.pass.scheduled")),
        "obs_memo_hits": int(recorder.counter_value("sim.pass.memo_hits")),
        "obs_index_rejects": int(recorder.counter_value("sim.pass.index_rejects")),
        "obs_searches": int(recorder.counter_value("sim.pass.searches")),
        "obs_pass_wall_s": round(totals["pass"][0], 6),
        "obs_dispatch_wall_s": round(totals["dispatch"][0], 6),
        "obs_accrual_wall_s": round(totals["accrual"][0], 6),
        "obs_tick_wall_s": round(totals["tick"][0], 6),
    }


def run_cell(job: SimulationJob, attempt: int = 1) -> SimulationMetrics:
    """Executor-protocol adapter for :func:`execute_job`.

    The resilient executor calls workers as ``worker(item, attempt)``;
    a simulation cell is attempt-independent (fully deterministic from
    the spec), so the attempt number is ignored — it exists for the
    chaos harness, which keys fault injection on it.
    """
    return execute_job(job)


def run_cell_profiled(
    job: SimulationJob, attempt: int = 1
) -> Tuple[SimulationMetrics, Dict[str, object]]:
    """:func:`run_cell` with a recorder attached; returns ``(metrics, obs_* row)``."""
    recorder = Recorder()
    start = time.perf_counter()
    metrics = execute_job(job, recorder=recorder)
    return metrics, job_profile_summary(recorder, time.perf_counter() - start)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """Cell counts of one run; ``engine.stats`` sums them over its lifetime."""

    executed: int = 0
    cache_hits: int = 0
    #: cells restored from a sweep journal instead of being re-simulated
    journal_hits: int = 0
    #: cells whose retry budget was exhausted (see ``engine.failures``)
    failed: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cache_hits + self.journal_hits

    def __iadd__(self, other: "EngineStats") -> "EngineStats":
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


#: one resolved grid cell: the job with its scenario filled in, its
#: content key and the cache payload that key hashes (both ``None`` when
#: the engine has neither a cache nor a journal)
_Cell = Tuple[SimulationJob, Optional[str], Optional[Dict[str, object]]]


class ExperimentEngine:
    """Runs simulation grids, fanning out across processes and caching.

    ``workers=1`` (the default) executes in-process — the reference serial
    path.  ``workers=N`` uses a process pool; results are identical by
    construction because each job is self-seeding.  With a ``cache``,
    finished cells are persisted and looked up by content key before any
    simulation is launched.

    ``profile=True`` attaches an observability recorder to every
    *simulated* cell and keeps a compact per-job summary in
    :attr:`profiles`; :meth:`grid_rows` merges those ``obs_*`` columns
    into the export.  Metrics stay bit-identical (parity-suite
    guarantee), so profiling neither splits nor invalidates the cache —
    cells served from cache simply carry no ``obs_*`` columns.

    Fault tolerance: a ``guard`` bounds each cell (timeout, retries with
    deterministic backoff); cells that exhaust the budget become
    :class:`~repro.runtime.JobFailure` entries in :attr:`failures`
    rather than aborting the sweep, and — when ``guard.strict`` (the
    default) — a :class:`~repro.runtime.SweepError` summarising them is
    raised *after* every other cell has run and been persisted.  A
    ``journal`` (path or :class:`~repro.runtime.SweepJournal`) makes the
    sweep resumable: completed cells replay from the journal on the next
    run, crashes included.  ``chaos`` wraps workers in the self-chaos
    harness (tests/benchmarks only).  ``progress`` is an optional
    ``callback(job, outcome)`` fired as each cell completes or fails.
    ``telemetry`` is the :class:`~repro.obs.TelemetryBus` the engine and
    its executor report every sweep-plane event on (``sweep_start``,
    ``cache_hit``/``journal_hit``, the job lifecycle, per-cell
    ``progress`` with rate and ETA, ``sweep_end``); the bus writes each
    as a log line — see ``docs/observability.md`` for the event schema.
    Without one the engine builds a bus with no sinks.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ArtifactCache] = None,
        profile: bool = False,
        guard: Optional[JobGuard] = None,
        journal: Union[SweepJournal, str, Path, None] = None,
        chaos: Optional[ChaosPlan] = None,
        progress: Optional[Callable[[SimulationJob, object], None]] = None,
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.profile = profile
        self.guard = guard or JobGuard()
        self.journal = (
            journal if isinstance(journal, SweepJournal) or journal is None
            else SweepJournal(journal)
        )
        self.chaos = chaos
        self.progress = progress
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self.stats = EngineStats()
        #: every (job, metrics) pair this engine has produced, in run order
        self.history: List[Tuple[SimulationJob, SimulationMetrics]] = []
        #: job key -> ``obs_*`` profile summary (profiled cells only)
        self.profiles: Dict[str, Dict[str, object]] = {}
        #: job key -> structured failure for cells that exhausted retries
        self.failures: Dict[str, JobFailure] = {}

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[SimulationJob]) -> Dict[str, SimulationMetrics]:
        """Execute a grid; returns ``{job.key: metrics}`` in job order.

        Failed cells (retry budget exhausted) are absent from the result;
        with ``guard.strict`` a :class:`SweepError` is raised after all
        other cells completed and were journaled/cached, so nothing
        already computed is lost.  On SIGINT/SIGTERM the engine drains
        in-flight cells, journals them and re-raises
        ``KeyboardInterrupt``; completed work is in :attr:`history`.

        Four stages: :meth:`_resolve` the grid, :meth:`_lookup` cells in
        the journal and the cache, :meth:`_execute` the rest, then finish
        (history, ``sweep_end``, the interrupt or the failures).
        """
        cells = self._resolve(jobs)
        started = time.monotonic()
        self.telemetry.emit("sweep_start", cells=len(cells), workers=self.workers)
        stats = EngineStats()
        results: Dict[str, SimulationMetrics] = {}
        failures: Dict[str, JobFailure] = {}
        interrupted = False
        try:
            pending = self._lookup(cells, results, stats)
            if pending:
                interrupted = self._execute(pending, len(cells), results, failures, stats)
        finally:
            self.stats += stats
            if self.journal is not None:
                # Also after a run with nothing pending: cache-hit
                # mirroring may have opened the handle.
                self.journal.close()

        done = [(job, results[job.key]) for job, _, _ in cells if job.key in results]
        self.history.extend(done)
        self.telemetry.emit(
            "sweep_end",
            done=len(done),
            total=len(cells),
            failed=stats.failed,
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            journal_hits=stats.journal_hits,
            wall_s=round(time.monotonic() - started, 6),
        )
        if interrupted:
            # Everything drained is journaled/cached and now in
            # :attr:`history`; surface the interrupt so callers (the
            # CLI) can flush a partial grid and exit 130.
            raise KeyboardInterrupt
        if failures and self.guard.strict:
            raise SweepError(list(failures.values()))
        return {job.key: metrics for job, metrics in done}

    def _resolve(self, jobs: Sequence[SimulationJob]) -> List[_Cell]:
        """Stage 1: refuse duplicate keys, check each job, key each cell.

        :func:`check_job` runs here, in the parent, so a bad input fails
        once, naming its field, before any cell is simulated or retried.
        It resolves scenario names against the registry: the resolved
        object rides inside the (picklable) job, so custom scenarios
        survive spawn-based worker processes.  A cell's cache payload (for a
        ``trace:`` scenario it hashes the trace file) is derived once,
        and only when a cache or a journal will use it.
        """
        keys = [job.key for job in jobs]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate job keys in grid: {dupes}")
        keyed = self.cache is not None or self.journal is not None
        cells: List[_Cell] = []
        for job in jobs:
            job = check_job(job)
            payload = cache_payload(job) if keyed else None
            cells.append((job, content_key(payload) if keyed else None, payload))
        return cells

    def _lookup(
        self, cells: List[_Cell], results: Dict[str, SimulationMetrics], stats: EngineStats
    ) -> List[_Cell]:
        """Stage 2: serve cells from the journal, then the cache; return the rest.

        The journal replays before anything runs: cells a previous
        (possibly killed) invocation completed are restored from their
        journaled payloads, keyed by content hash so they survive grid
        renames exactly like cache entries do.
        """
        replayed = self.journal.replay().completed if self.journal is not None else {}
        pending: List[_Cell] = []
        for cell in cells:
            job, key, _ = cell
            if key in replayed:
                results[job.key] = metrics_from_payload(replayed[key])
                stats.journal_hits += 1
                self.telemetry.emit("journal_hit", job=job.key)
                continue
            cached = self.cache.load(key) if self.cache is not None else None
            if cached is None:
                pending.append(cell)
                continue
            results[job.key] = cached
            stats.cache_hits += 1
            self.telemetry.emit("cache_hit", job=job.key)
            if self.journal is not None:
                # Mirror cache hits into the journal so a resume of this
                # sweep is self-contained even if the cache vanishes.
                self.journal.record_done(job.key, key, metrics_to_payload(cached))
        return pending

    def _execute(
        self,
        pending: List[_Cell],
        total: int,
        results: Dict[str, SimulationMetrics],
        failures: Dict[str, JobFailure],
        stats: EngineStats,
    ) -> bool:
        """Stage 3: run the pending cells, absorbing each outcome as it
        arrives; returns whether SIGINT/SIGTERM drained the sweep early."""
        if self.journal is not None:
            self.journal.begin_sweep(
                len(pending), meta={"workers": self.workers, "profile": self.profile}
            )
        worker: Callable = run_cell_profiled if self.profile else run_cell
        if self.chaos is not None:
            worker = ChaosWorker(self.chaos, worker)
        # A lone pending cell needs one worker (no pool startup cost),
        # unless chaos needs separate worker processes to kill.
        lone = len(pending) == 1 and self.chaos is None
        executor = ResilientExecutor(
            worker,
            workers=1 if lone else self.workers,
            guard=self.guard,
            telemetry=self.telemetry,
        )
        by_key = {cell[0].key: cell for cell in pending}
        started = time.monotonic()
        try:
            with GracefulShutdown() as stop:
                for job, outcome in executor.run(
                    [job for job, _, _ in pending], should_stop=stop.triggered
                ):
                    self._absorb(by_key[job.key], outcome, results, failures, stats)
                    # Rate and ETA count the cells this run completed;
                    # journal and cache hits are already done.
                    done = stats.total + stats.failed
                    elapsed = time.monotonic() - started
                    rate = (stats.executed + stats.failed) / elapsed if elapsed > 0 else 0.0
                    self.telemetry.emit(
                        "progress",
                        done=done,
                        total=total,
                        failed=stats.failed,
                        rate_per_s=round(rate, 6),
                        eta_s=round((total - done) / rate, 3) if rate > 0 else None,
                    )
                    if self.progress is not None:
                        self.progress(job, outcome)
                return stop.requested
        except KeyboardInterrupt:
            return True

    def _absorb(
        self,
        cell: _Cell,
        outcome: object,
        results: Dict[str, SimulationMetrics],
        failures: Dict[str, JobFailure],
        stats: EngineStats,
    ) -> None:
        """Fold one executor outcome into results, journal and cache."""
        job, key, payload = cell
        if isinstance(outcome, JobFailure):
            self.failures[job.key] = failures[job.key] = outcome
            stats.failed += 1
            if self.journal is not None:
                self.journal.record_failed(job.key, key, outcome.as_payload())
            return
        if self.profile:
            metrics, self.profiles[job.key] = outcome
        else:
            metrics = outcome
        results[job.key] = metrics
        stats.executed += 1
        if self.journal is not None:
            self.journal.record_done(job.key, key, metrics_to_payload(metrics))
        if self.cache is not None:
            self.cache.store(key, metrics, payload=payload)

    # ------------------------------------------------------------------
    def grid_rows(self) -> List[Dict[str, object]]:
        """Flat descriptor + headline-metric rows for everything run.

        Profiled cells additionally carry their ``obs_*`` columns (event
        counts, pass statistics, wall-clock phase totals).
        """
        return [
            {
                **job.describe(),
                **flatten_metrics(metrics),
                **self.profiles.get(job.key, {}),
            }
            for job, metrics in self.history
        ]


# ----------------------------------------------------------------------
# Spec and grid builders
# ----------------------------------------------------------------------
def baseline_specs() -> List[SchedulerSpec]:
    """The four baseline schedulers of the Table 5 comparison."""
    return [
        SchedulerSpec(kind="yarn-cs"),
        SchedulerSpec(kind="chronus"),
        SchedulerSpec(kind="lyra"),
        SchedulerSpec(kind="fgd"),
    ]


def gfs_spec(label: str = "", **config_overrides) -> SchedulerSpec:
    """The full GFS scheduler, optionally with :class:`GFSConfig` overrides."""
    return SchedulerSpec(kind="gfs", label=label, gfs_config=as_pairs(config_overrides))


def gfs_variant_spec(variant: str, **config_overrides) -> SchedulerSpec:
    """A GFS ablation variant (``gfs-e``/``gfs-d``/``gfs-s``/``gfs-p``/``gfs-sp``)."""
    return SchedulerSpec(kind=variant.lower(), gfs_config=as_pairs(config_overrides))


def comparison_specs(include_gfs: bool = True) -> List[SchedulerSpec]:
    """Baselines plus (by default) GFS — the Table 5 line-up."""
    specs = baseline_specs()
    if include_gfs:
        specs.append(gfs_spec())
    return specs


def sweep_jobs(
    scale: ExperimentScale,
    scheduler_specs: Sequence[SchedulerSpec],
    workload_specs: Sequence[WorkloadSpec],
    prefix: str = "sweep",
) -> List[SimulationJob]:
    """The full cross product of schedulers and workloads as a job list."""
    return [
        SimulationJob(
            key=f"{prefix}/{workload.cell}/{spec.display}",
            scale=scale,
            scheduler=spec,
            workload=workload,
        )
        for workload in workload_specs
        for spec in scheduler_specs
    ]

"""Live simulation sessions: one streaming simulator behind the service.

A :class:`SimulationSession` owns one incrementally-stepped
:class:`~repro.cluster.simulator.ClusterSimulator` plus the JSON codecs
the HTTP layer needs: task payloads in the exact field vocabulary of
``Task.to_record`` (so a trace file row pastes straight into a submit
request), dynamics injections, live occupancy/quota views and what-if
placement advice computed on a :meth:`~ClusterSimulator.fork` so the
live state is never perturbed.

Sessions are synchronous, deterministic objects — all asyncio locking
and scheduling lives in :mod:`repro.service.server`, which serialises
operations per session.  That split keeps the determinism suite able to
drive sessions directly, with no event loop in sight.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Mapping, Optional, Sequence

from ..cluster.events import DYNAMICS_EVENT_KINDS, DynamicsAction, EventKind
from ..cluster.gpu import GPUModel
from ..cluster.simulator import ClusterSimulator, SimulatorConfig
from ..cluster.task import Task, TaskType
from ..experiments.config import ExperimentScale
from ..experiments.engine import (
    SchedulerSpec,
    SimulationJob,
    WorkloadSpec,
    build_simulation,
    check_job,
)
from ..obs import Recorder, render_recorder
from .stream import SessionStream

#: event-stream ring size (and the lossless ``Last-Event-ID`` resume
#: window) per session, the session's one bounded buffer;
#: ``stream_backlog=0`` disables streaming
STREAM_BACKLOG = 4096

#: session-creation parameters the service accepts, with their defaults —
#: anything else in a create request is rejected as a typo guard
SESSION_DEFAULTS: Dict[str, object] = {
    "scheduler": "gfs",
    "scenario": "default",
    "num_nodes": 16,
    "gpus_per_node": 8,
    "gpu_model": "A100",
    "duration_hours": 8.0,
    "spot_scale": 1.0,
    "seed": 7,
    "dynamics": "",
    "tick_interval": 300.0,
    "max_time": None,
    "preload": False,
    "stream_backlog": STREAM_BACKLOG,
}

_session_counter = itertools.count(1)


class SessionError(ValueError):
    """A request payload is invalid for this session or the service."""


def _finite(name: str, value: object, non_negative: bool = False) -> float:
    """``value`` as a finite float (and ``>= 0`` if ``non_negative``), else a
    :class:`SessionError` naming ``name``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or (non_negative and number < 0):
        kind = "non-negative finite" if non_negative else "finite"
        raise SessionError(f"{name}={value!r} must be a {kind} number")
    return number


# ----------------------------------------------------------------------
# Task payloads (the ``Task.to_record`` vocabulary, checked at the door)
# ----------------------------------------------------------------------
def task_from_payload(payload: Mapping[str, object]) -> Task:
    """Build a :class:`Task` from a JSON payload arriving over HTTP.

    The codec is :meth:`Task.from_record`, so rows from a saved trace
    file are valid submit payloads as-is; what is added here is the
    required-field check and :class:`SessionError` for every bad input.
    """
    if not isinstance(payload, Mapping):
        raise SessionError(f"task payload must be an object, got {type(payload).__name__}")
    missing = [k for k in ("task_id", "num_pods", "gpus_per_pod", "duration") if k not in payload]
    if missing:
        raise SessionError(f"task payload missing required fields: {', '.join(missing)}")
    try:
        return Task.from_record(payload)
    except (TypeError, ValueError) as exc:
        raise SessionError(f"invalid task payload: {exc}") from exc


def _action_from_payload(payload: Mapping[str, object]) -> DynamicsAction:
    if "node_id" not in payload:
        raise SessionError("dynamics payload missing required field: node_id")
    return DynamicsAction(
        node_id=str(payload["node_id"]),
        cause=str(payload.get("cause", "failure")),
        graceful=bool(payload.get("graceful", False)),
        online=bool(payload.get("online", False)),
    )


_KIND_NAMES = {kind.name: kind for kind in DYNAMICS_EVENT_KINDS}


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class SimulationSession:
    """One live, incrementally-stepped simulation behind the service.

    Construction *is* one cell of the experiment grid — the create
    parameters become a :class:`~repro.experiments.engine.SimulationJob`
    and :func:`~repro.experiments.engine.build_simulation` builds it, so
    a session runs under exactly the scenario, scheduler and dynamics
    (the ``dynamics`` preset, else the scenario's own) the engine would —
    but instead of running to completion the simulator sits live,
    accepting streamed submissions, dynamics injections and bounded
    :meth:`advance` calls.
    ``preload=True`` additionally submits the scenario's synthetic trace
    up front (useful for what-if experiments against a realistic
    background load); the scenario's trace is generated either way so
    GFS-family schedulers get their demand history.
    """

    def __init__(self, params: Optional[Mapping[str, object]] = None, session_id: Optional[str] = None):
        merged = dict(SESSION_DEFAULTS)
        unknown = sorted(set(params or ()) - set(SESSION_DEFAULTS))
        if unknown:
            raise SessionError(
                f"unknown session parameters: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(SESSION_DEFAULTS))})"
            )
        merged.update(params or {})
        self.session_id = session_id or f"session-{next(_session_counter):04d}"
        self.params = merged
        try:
            job = check_job(SimulationJob(
                key=self.session_id,
                scale=ExperimentScale(
                    name="session",
                    num_nodes=int(merged["num_nodes"]),
                    gpus_per_node=int(merged["gpus_per_node"]),
                    duration_hours=float(merged["duration_hours"]),
                    seed=int(merged["seed"]),
                    gpu_model=GPUModel(str(merged["gpu_model"])),
                ),
                scheduler=SchedulerSpec(kind=str(merged["scheduler"])),
                workload=WorkloadSpec(
                    scenario=str(merged["scenario"]),
                    spot_scale=float(merged["spot_scale"]),
                    dynamics=str(merged["dynamics"] or ""),
                ),
            ))
            stream_backlog = int(merged["stream_backlog"])
            if stream_backlog < 0:
                raise ValueError(
                    f"stream_backlog={merged['stream_backlog']!r} must be at least 0 "
                    "(0 disables streaming)"
                )
            tick_interval = _finite("tick_interval", merged["tick_interval"])
            max_time = merged["max_time"]
            max_time = None if max_time is None else _finite("max_time", max_time)
            for name, value in (("tick_interval", tick_interval), ("max_time", max_time)):
                if value is not None and value <= 0:
                    raise ValueError(f"{name}={value!r} must be positive")
            if not isinstance(merged["preload"], bool):
                raise ValueError(f"preload={merged['preload']!r} must be true or false")
        except (KeyError, ValueError) as exc:
            raise SessionError(f"invalid session parameters: {exc}") from exc

        config = SimulatorConfig(tick_interval=tick_interval, max_time=max_time)
        self.recorder = Recorder()
        #: live SSE event channel (``None`` when ``stream_backlog=0``);
        #: taps the recorder's deterministic sim channel, so attaching it
        #: cannot perturb the run (zero-observer-effect, tests/test_stream.py)
        self.stream: Optional[SessionStream] = None
        if stream_backlog > 0:
            self.stream = SessionStream(self.session_id, backlog=stream_backlog)
            self.recorder.sim_listener = self.stream
        self.sim, trace = build_simulation(job, config, recorder=self.recorder)
        if merged["preload"]:
            self.sim.submit_all(trace.sorted_tasks())

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Cheap liveness summary (no metric computation)."""
        sim = self.sim
        return {
            "session_id": self.session_id,
            "scheduler": self.params["scheduler"],
            "scenario": self.params["scenario"],
            "now": sim.now,
            "started": sim.started,
            "done": sim.done,
            "submitted_tasks": len(sim.all_tasks),
            "pending_tasks": len(sim.pending),
            "running_tasks": len(sim.cluster.running_tasks),
            "heap_events": len(sim._events),
        }

    def advance(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> Dict[str, object]:
        """Step the simulator; returns processed-event count plus status."""
        # A session's clock starts at 0: a negative time would move it (and
        # GFS's forecast hour origin) before the trace.
        if until is not None:
            until = _finite("until", until, non_negative=True)
        if max_events is not None:
            max_events = int(_finite("max_events", max_events, non_negative=True))
        processed = self.sim.advance(until=until, max_events=max_events)
        result = self.status()
        result["processed_events"] = processed
        return result

    def submit(self, payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
        """Submit a batch of task payloads; returns accepted task ids.

        Validation is all-or-nothing: every payload is decoded before any
        task reaches the simulator, so a malformed batch leaves the
        session untouched.
        """
        tasks = [task_from_payload(p) for p in payloads]
        ids = {t.task_id for t in tasks}
        if len(ids) != len(tasks):
            raise SessionError("duplicate task_id within one submit batch")
        clash = sorted(i for i in ids if self.sim.has_task(i))
        if clash:
            raise SessionError(f"task ids already submitted: {', '.join(clash[:5])}")
        for task in tasks:
            self.sim.submit(task)
        if self.stream is not None:
            self.stream.emit("submit", {"t": self.sim.now, "count": len(tasks)})
        return {"accepted": [t.task_id for t in tasks], "now": self.sim.now}

    def inject(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """Inject one dynamics action (node outage/return, capacity change)."""
        action = _action_from_payload(payload)
        kind_name = str(payload.get("kind", EventKind.CAPACITY_CHANGE.name))
        kind = _KIND_NAMES.get(kind_name)
        if kind is None:
            raise SessionError(
                f"unknown dynamics kind {kind_name!r} (accepted: {', '.join(sorted(_KIND_NAMES))})"
            )
        time = payload.get("time")
        time = None if time is None else _finite("time", time, non_negative=True)
        self.sim.inject(action, time=time, kind=kind)
        if self.stream is not None:
            self.stream.emit(
                "inject", {"t": self.sim.now, "node": action.node_id, "kind": kind.name}
            )
        return {"injected": action.node_id, "kind": kind.name, "now": self.sim.now}

    # ------------------------------------------------------------------
    # Live queries
    # ------------------------------------------------------------------
    def occupancy(self) -> Dict[str, object]:
        """Live cluster occupancy: fleet aggregates, per-model capacity,
        per-org running usage and queued demand.

        Reads only O(1) aggregates and the incremental capacity index —
        no metric computation, no task scans beyond the running set — so
        clients can poll it at query rates without slowing the session.
        """
        sim = self.sim
        stats = sim.cluster.stats()
        return {
            "session_id": self.session_id,
            "now": sim.now,
            "total_gpus": stats.total_gpus,
            "idle_gpus": stats.idle_gpus,
            "hp_gpus": stats.hp_gpus,
            "spot_gpus": stats.spot_gpus,
            "allocation_rate": stats.allocation_rate,
            "running_hp_tasks": stats.running_hp_tasks,
            "running_spot_tasks": stats.running_spot_tasks,
            "pending_tasks": len(sim.pending),
            "capacity": sim.cluster.capacity_index.summary(),
            "org_usage": sim.cluster.org_usage(),
            "org_queued_demand": sim.pending.org_demand(),
        }

    def quota(self) -> Dict[str, object]:
        """Per-org quota headroom for high-priority work.

        ``quota`` is the scheduler's live per-org HP quota when it
        exposes one (GFS's SQA does, via ``current_quota()``); baselines
        without quota accounting report ``null`` and clients fall back
        to raw usage.  ``headroom = quota - hp_usage`` says how many more
        HP GPUs an org can claim before the quota gate closes on it.
        """
        sim = self.sim
        quota = None
        if hasattr(sim.scheduler, "current_quota"):
            quota = sim.scheduler.current_quota()
        hp_usage = sim.cluster.org_usage(TaskType.HP)
        hp_demand = sim.pending.org_demand(hp_only=True)
        orgs = sorted(set(hp_usage) | set(hp_demand))
        per_org = {}
        for org in orgs:
            used = hp_usage.get(org, 0.0)
            entry: Dict[str, object] = {
                "hp_gpus_running": used,
                "hp_gpus_queued": hp_demand.get(org, 0.0),
            }
            if quota is not None:
                entry["quota"] = quota
                entry["headroom"] = max(0.0, quota - used)
            per_org[org] = entry
        return {
            "session_id": self.session_id,
            "now": sim.now,
            "quota": quota,
            "orgs": per_org,
        }

    def sync_gauges(self) -> None:
        """Push the session's live state into its recorder's gauges.

        The recorder never *reads* simulator state (the zero-perturbation
        rule), so scrape-time values are pushed here instead — cheap O(1)
        aggregate reads only.
        """
        sim = self.sim
        rec = self.recorder
        rec.gauge("session.now", sim.now)
        rec.gauge("session.pending_tasks", len(sim.pending))
        rec.gauge("session.running_tasks", len(sim.cluster.running_tasks))
        rec.gauge("session.submitted_tasks", len(sim.all_tasks))
        rec.gauge("session.heap_events", len(sim._events))
        rec.gauge("session.allocation_rate", sim.cluster.allocation_rate())

    def stats(self) -> Dict[str, object]:
        """Live per-session observability: status plus the recorder view."""
        self.sync_gauges()
        result = self.status()
        result["recorder"] = self.recorder.snapshot()
        result["stream"] = self.stream.stats() if self.stream is not None else None
        return result

    def prometheus_section(self, emit_type_lines: bool = False) -> str:
        """This session's slice of the server's ``GET /metrics`` page.

        Every sample carries a ``session="<id>"`` label; ``# TYPE`` lines
        are suppressed by default so one page can stack many sessions
        without duplicate type declarations.
        """
        self.sync_gauges()
        return render_recorder(
            self.recorder,
            extra_labels={"session": self.session_id},
            emit_type_lines=emit_type_lines,
        )

    def metrics(self) -> Dict[str, object]:
        """Full simulation metrics of the run so far.

        :meth:`~ClusterSimulator.finalize` is a read — it changes no
        simulator attribute — so live metric queries never change what
        the session will eventually report, nor what it persists.
        """
        return self.sim.finalize().as_dict()

    def what_if(
        self,
        payload: Mapping[str, object],
        horizon_hours: float = 24.0,
    ) -> Dict[str, object]:
        """Speculative placement advice: where would this task land?

        Forks the live simulator, submits the candidate task into the
        fork and advances it until the task finishes or the horizon
        expires, then reports when the task would start and finish and
        what it would displace.  The live session is untouched — the
        fork shares no mutable state — and because the fork inherits the
        full deterministic state, the advice is exact, not an estimate,
        under the assumption of no further external submissions.
        """
        candidate = task_from_payload(payload)
        horizon_hours = _finite("horizon_hours", horizon_hours)
        if horizon_hours <= 0:
            raise SessionError("horizon_hours must be positive")
        # Validate against the live simulator first: a rejected request
        # must not pay for the copy.
        if self.sim.has_task(candidate.task_id):
            raise SessionError(f"task id {candidate.task_id!r} already submitted")
        evictions_before = sum(t.eviction_count for t in self.sim.all_tasks)
        fork = self.sim.fork()
        fork.submit(candidate)
        deadline = max(fork.now, candidate.submit_time) + horizon_hours * 3600.0
        # Bounded chunks so one advice request can never wedge the server
        # on a pathological fork; the loop exits as soon as the candidate
        # finishes, the horizon passes, or the fork drains.
        while candidate.finish_time is None and not fork.done and fork.now < deadline:
            if fork.advance(until=deadline, max_events=256) == 0:
                break
        evictions_caused = sum(t.eviction_count for t in fork.all_tasks) - evictions_before
        started = candidate.first_start_time is not None
        result: Dict[str, object] = {
            "session_id": self.session_id,
            "task_id": candidate.task_id,
            "now": self.sim.now,
            "horizon_hours": horizon_hours,
            "would_start": started,
            "would_finish": candidate.finish_time is not None,
            "start_time": candidate.first_start_time,
            "finish_time": candidate.finish_time,
            "queue_wait": (
                candidate.first_start_time - max(self.sim.now, candidate.submit_time)
                if started
                else None
            ),
            "spot_evictions_caused": evictions_caused,
        }
        return result

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    @classmethod
    def from_stored(
        cls,
        params: Mapping[str, object],
        session_id: str,
        snapshot: bytes,
    ) -> "SimulationSession":
        """Rebuild a session from a durable store record (boot recovery).

        Construction re-derives the host-local scaffolding (scenario,
        trace, recorder) from the stored parameters, then the simulator
        state is replaced wholesale from the checksummed snapshot — so a
        recovered session advances bit-identically to one that never
        went down (guarded by ``tests/test_service_durability.py``).
        """
        session = cls(params, session_id=session_id)
        session.restore_bytes(snapshot)
        return session

    def snapshot_bytes(self) -> bytes:
        """The full session state as a versioned, checksummed envelope."""
        from .snapshot import encode_snapshot

        return encode_snapshot(self.sim.snapshot())

    def restore_bytes(self, data: bytes) -> Dict[str, object]:
        """Replace this session's simulator with a decoded snapshot."""
        from .snapshot import decode_snapshot

        self.sim = ClusterSimulator.restore(decode_snapshot(data))
        # Snapshots restore with the no-op recorder (instrumentation is
        # host-local, not simulation state); reattach this session's.
        self.sim.obs = self.recorder
        if self.stream is not None:
            self.stream.emit("restore", {"t": self.sim.now})
        return self.status()


def reset_session_counter() -> None:
    """Restart session-id numbering (test isolation)."""
    global _session_counter
    _session_counter = itertools.count(1)


def advance_session_counter(min_next: int) -> None:
    """Make newly-created sessions number from at least ``min_next``.

    Boot recovery calls this with one past the highest recovered
    ``session-NNNN`` ordinal so restored ids are never re-issued to new
    sessions.  Only call before any new sessions exist (at boot or after
    :func:`reset_session_counter`): the counter is replaced outright.
    """
    global _session_counter
    _session_counter = itertools.count(max(1, int(min_next)))

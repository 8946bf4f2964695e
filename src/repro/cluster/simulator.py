"""Discrete-event GPU cluster simulator.

The simulator drives a scheduler (GFS or any baseline) over a task trace.
It owns the event loop, queue/metrics accounting, preemption mechanics and
checkpoint-aware restarts; schedulers only make placement decisions.

Scheduler interface (duck-typed, see :class:`repro.schedulers.base.Scheduler`):

* ``sort_queue(pending, now)`` — ordering of the waiting queue.
* ``try_schedule(task, cluster, now, ctx=None)`` — returns a
  :class:`~repro.cluster.events.SchedulingDecision` or ``None``; ``ctx``
  is the simulator's shared per-pass
  :class:`~repro.schedulers.placement.PlacementContext` and is only passed
  to schedulers whose signature declares it (duck-typed compatibility).
* ``blocks_on_failure(task)`` — optional FCFS semantics: a failed head
  blocks the rest of its class for this pass.
* ``on_task_submit / on_task_start / on_task_finish / on_task_evicted`` —
  optional notification hooks.
* ``on_tick(cluster, now, pending)`` — periodic hook (spot-quota updates).
* ``on_simulation_start(cluster, now)`` — optional setup hook.
* ``on_node_down / on_node_up / on_task_killed`` — optional cluster-
  dynamics hooks (node failures, maintenance drains, elastic capacity).

Cluster dynamics
----------------
A :class:`~repro.dynamics.FaultInjector` (or the
:class:`~repro.dynamics.DynamicsSpec` it wraps) can be attached via the
``dynamics`` argument.  Its pre-generated schedule of node outages is
pushed into the event heap up front, so a run is a pure function of
``(tasks, seed, cluster spec, dynamics spec)`` regardless of worker
count.  When a node goes offline, every task running on it is killed
through the normal release paths — rolled back to its last checkpoint
(failures, reclamations) or checkpointed in place (planned drains) — and
requeued; the node is excluded from all placement candidates until its
repair event restores it.  Reliability accounting (kills, lost work, the
paid-capacity integral) lands in ``SimulationMetrics.reliability``.

Hot-path design
---------------
The waiting queue is a :class:`~repro.cluster.pending.PendingQueue` — a
dict-backed ordered set with O(1) membership and removal — so one pass of
``_schedule_pending`` over ``P`` waiting tasks costs ``O(P log P)`` for
the scheduler's sort instead of the ``O(P^2)`` list scans the naive
implementation paid.  The event loop additionally maintains a counter of
non-tick events so the tick handler's liveness check is O(1) instead of
scanning the whole event heap every tick.  Placement search runs through
a per-pass :class:`~repro.schedulers.placement.PlacementContext`: node
views are built once per pass and refreshed only for mutated nodes,
candidates come from the cluster's capacity index, and task shapes that
already failed against unchanged capacity are skipped without a search
(see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.recorder import NULL_RECORDER, EventLoopCounters
from .cluster import Cluster
from .events import DYNAMICS_EVENT_KINDS, DynamicsAction, Event, EventKind, SchedulingDecision
from .metrics import DynamicsCounts, SimulationMetrics, compute_metrics
from .pending import PendingQueue
from .task import RunLog, Task, TaskState


@dataclass
class SimulatorConfig:
    """Tunable knobs of the simulation engine.

    Controls preemption mechanics (grace period, restart overhead), the
    periodic quota/sampling tick and the optional hard time cap.  The
    defaults mirror the paper's deployment parameters (Table 4).

    Example
    -------
    >>> config = SimulatorConfig(tick_interval=300.0, max_time=86_400.0)
    >>> metrics = run_simulation(cluster, scheduler, tasks, config)
    """

    #: grace period granted to evicted spot tasks before the preemptor starts
    preemption_grace_period: float = 30.0
    #: restart overhead paid by an evicted spot task when it runs again
    #: (environment re-setup and checkpoint reload)
    restart_overhead: float = 300.0
    #: periodic tick used for quota updates and allocation-rate sampling
    tick_interval: float = 300.0
    #: hard cap on simulated time (None = run until the trace drains)
    max_time: Optional[float] = None


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent state."""


#: what ``pickle.dumps`` raises for lambdas, closures, local classes and
#: open handles (``PicklingError``, ``AttributeError`` and ``TypeError``
#: respectively, depending on the object and the Python version)
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def _unpicklable_attribute(obj: object, depth: int = 4) -> str:
    """Dotted path of the first attribute under ``obj`` that pickle refuses.

    Only runs after a failed :meth:`ClusterSimulator.snapshot`, to turn an
    error from deep inside pickle into one a scheduler author can act on.
    It walks what pickle would store (``__getstate__``), so the recorder
    the simulator swaps out is never blamed.
    """
    state = None if isinstance(obj, type) else obj.__getstate__()
    if not isinstance(state, dict):  # a class, no instance dict, or slots
        return ""
    for name, value in state.items():
        try:
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except _PICKLE_ERRORS:
            inner = _unpicklable_attribute(value, depth - 1) if depth > 0 else ""
            return f"{name}.{inner}" if inner else name
    return ""


class ClusterSimulator:
    """Event-driven simulator binding a scheduler to a cluster and a trace.

    Tasks are registered with :meth:`submit` / :meth:`submit_all` and the
    whole trace is replayed by :meth:`run`, which returns a
    :class:`~repro.cluster.metrics.SimulationMetrics`.  The simulator owns
    the event heap, the indexed pending queue, preemption/restart
    mechanics and allocation-rate sampling; the scheduler only decides
    placements.  Use :func:`run_simulation` unless you need to inspect
    simulator state mid-run.

    Example
    -------
    >>> sim = ClusterSimulator(cluster, scheduler, SimulatorConfig())
    >>> sim.submit_all(trace.sorted_tasks())
    >>> metrics = sim.run()
    >>> metrics.unfinished_tasks
    0

    Incremental stepping (streaming service mode)
    ---------------------------------------------
    :meth:`run` is sugar over a stepping API that the scheduler service
    (:mod:`repro.service`) drives directly:

    * :meth:`start` lazily initialises the run (dynamics injection, the
      scheduler's ``on_simulation_start``, the first quota tick);
    * :meth:`advance` processes events up to a simulated-time bound —
      ``advance(t1); advance(t2); …`` is **bit-identical** to a single
      uninterrupted run for any sequence of bounds (guarded by
      ``tests/test_stepping_determinism.py``), because event processing
      order is a pure function of the heap, never of chunk boundaries;
    * :meth:`submit` keeps working *mid-flight*: late submissions are
      clamped to the current simulated time and arrivals tie-break on
      task id, so a streamed submission lands exactly where a batch
      replay of the merged trace would put it;
    * :meth:`inject` schedules cluster-dynamics actions mid-flight;
    * :meth:`snapshot` / :meth:`restore` round-trip the **complete**
      simulator state (event heap, pending queue, cluster + capacity
      index, scheduler including its RNGs, run logs, accounting) through
      bytes, and :meth:`fork` round-trips those bytes into an independent
      copy for speculative what-if runs that leave the live state
      untouched.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler,
        config: Optional[SimulatorConfig] = None,
        dynamics=None,
        recorder=None,
    ):
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulatorConfig()
        #: optional cluster-dynamics injector; anything exposing
        #: ``schedule(cluster) -> DynamicsSchedule`` works (duck-typed so
        #: the cluster package never imports :mod:`repro.dynamics`)
        self.dynamics = dynamics
        #: instrumentation sink (:mod:`repro.obs`); the shared no-op
        #: :data:`~repro.obs.NULL_RECORDER` by default, so every hook
        #: point below costs one ``.enabled`` attribute check.  A real
        #: :class:`~repro.obs.Recorder` never perturbs the run: the
        #: parity suite asserts bit-identical metrics either way.
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.now: float = 0.0
        #: heap of ``(time, kind, tiebreak, seq, event)``, compared in C
        self._events: List[Tuple[float, EventKind, str, int, Event]] = []
        self._seq = itertools.count()
        #: indexed waiting queue (insertion-ordered, O(1) membership/removal)
        self.pending: PendingQueue = PendingQueue()
        self.all_tasks: List[Task] = []
        #: run epoch per task; finish events from stale epochs are ignored
        self._epochs: Dict[str, int] = {}
        #: per-kind counters of heaped events (arrivals+finishes / dynamics
        #: / ticks) so liveness decisions never scan the heap
        self._event_counts = EventLoopCounters()
        #: dynamics bookkeeping: event counters and the paid-capacity integral
        self.dynamics_counts = DynamicsCounts()
        self._paid_gpu_seconds: float = 0.0
        self._capacity_accrued_until: Optional[float] = None
        self.allocation_samples: List[float] = []
        self.allocation_sample_times: List[float] = []
        #: lazily flipped by :meth:`start`; guards one-time run setup
        self._started = False
        #: a ``max_time`` cap was reached; the run is over for good
        self._time_capped = False
        #: shared per-pass placement state (indexed candidates, cached node
        #: views, failed-shape memo) handed to every ``try_schedule`` call
        from ..schedulers.placement import PlacementContext

        self.placement_ctx = PlacementContext(cluster)
        self._scheduler_takes_ctx = self._accepts_ctx(scheduler)

    @staticmethod
    def _accepts_ctx(scheduler) -> bool:
        """Whether ``scheduler.try_schedule`` takes the per-pass context.

        The scheduler interface is duck-typed, so third-party schedulers
        written against the pre-context three-argument signature must keep
        working; they simply forgo the shared-context fast path.
        """
        try:
            signature = inspect.signature(scheduler.try_schedule)
        except (TypeError, ValueError):  # builtins / exotic callables
            return False
        return "ctx" in signature.parameters

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the attached recorder.

        Instrumentation is host-local observation, not simulation state:
        snapshots stay deterministic (a live recorder holds wall-clock
        histograms) and forks start unobserved — a what-if fork must not
        pollute the live session's metrics.  Callers that want an
        instrumented restore reattach a recorder explicitly (the service
        session does).
        """
        state = dict(self.__dict__)
        state["obs"] = NULL_RECORDER
        return state

    def _push(
        self,
        time: float,
        kind: EventKind,
        task: Optional[Task] = None,
        epoch: int = 0,
        payload: Optional[DynamicsAction] = None,
        tiebreak: str = "",
    ) -> None:
        self._event_counts.count(kind is EventKind.QUOTA_TICK, kind in DYNAMICS_EVENT_KINDS, +1)
        seq = next(self._seq)
        event = Event(time, kind, tiebreak, seq, task, epoch, payload)
        heapq.heappush(self._events, (time, kind, tiebreak, seq, event))

    def _pop(self) -> Event:
        event = heapq.heappop(self._events)[4]
        kind = event.kind
        self._event_counts.count(kind is EventKind.QUOTA_TICK, kind in DYNAMICS_EVENT_KINDS, -1)
        return event

    def submit(self, task: Task) -> None:
        """Register a task arrival event at its submission time.

        Works both before :meth:`start` (batch mode) and mid-flight
        (streaming service mode).  Mid-flight submissions timestamped in
        the simulated past are clamped to the current simulated time —
        the clock never runs backwards — and arrivals tie-break on task
        id (see :class:`~repro.cluster.events.Event`), so a submission
        timestamped equal to an already-heaped event is processed in
        exactly the order a batch replay of the merged trace would use.

        A task that has already run is refused: ``Task`` objects carry
        their run state, so a replay would corrupt both runs' metrics.
        """
        if task.run_logs or task.state is not TaskState.PENDING:
            raise SimulationError(
                f"task {task.task_id!r} is not in its initial state (state={task.state.value}, "
                f"{len(task.run_logs)} run log(s)); build a fresh trace for every run"
            )
        self.all_tasks.append(task)
        self._epochs[task.task_id] = 0
        arrival_time = task.submit_time
        if self._started and arrival_time < self.now:
            arrival_time = self.now
        self._push(arrival_time, EventKind.TASK_ARRIVAL, task, tiebreak=task.task_id)

    def submit_all(self, tasks: Sequence[Task]) -> None:
        for task in tasks:
            self.submit(task)

    def has_task(self, task_id: str) -> bool:
        """Whether a task with this id was ever submitted (O(1))."""
        return task_id in self._epochs

    def inject(
        self,
        action: DynamicsAction,
        time: Optional[float] = None,
        kind: EventKind = EventKind.CAPACITY_CHANGE,
    ) -> None:
        """Schedule a cluster-dynamics action mid-flight.

        The pre-generated fault schedules of :mod:`repro.dynamics` cover
        batch runs; a live scheduler service additionally needs to feed
        *observed* infrastructure events (a node really failed, capacity
        was really added) into a running simulation.  ``time`` defaults
        to the current simulated time and is clamped to it when it lies
        in the simulated past; ``kind`` must be a dynamics event kind.
        """
        if kind not in DYNAMICS_EVENT_KINDS:
            raise ValueError(f"inject() only accepts dynamics event kinds, got {kind!r}")
        event_time = self.now if time is None else float(time)
        if self._started and event_time < self.now:
            event_time = self.now
        self._push(event_time, kind, payload=action)

    # ------------------------------------------------------------------
    # Main loop: start / advance / run
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (directly or via advance/run)."""
        return self._started

    @property
    def done(self) -> bool:
        """Whether no processable work remains right now.

        True once the heap has drained, a ``max_time`` cap was hit, or
        only trailing dynamics events remain with no task work anywhere
        (the same abandonment rule the batch loop applies).  In streaming
        mode a later :meth:`submit` can make a drained simulator live
        again — ``done`` is a statement about *current* state, not a
        terminal latch (except after ``max_time``).
        """
        if not self._started:
            return False
        if self._time_capped:
            return True
        if not self._events:
            return True
        head_time, head_kind = self._events[0][:2]
        if self.config.max_time is not None and head_time > self.config.max_time:
            return True
        return (
            head_kind in DYNAMICS_EVENT_KINDS
            and self._event_counts.task_events == 0
            and not self.pending
            and not self.cluster.running_tasks
        )

    def start(self) -> None:
        """One-time run setup; idempotent, called lazily by :meth:`advance`.

        Materialises the dynamics schedule, moves the clock to the first
        event (the heap root — no O(n) scan), opens the paid-capacity
        integral, fires the scheduler's ``on_simulation_start`` hook and
        arms the periodic quota tick.  A simulator started with an empty
        heap (a streaming session awaiting its first submission) starts
        at time zero.
        """
        if self._started:
            return
        self._started = True
        self._inject_dynamics()
        first_time = self._events[0][0] if self._events else self.now
        self.now = first_time
        self._capacity_accrued_until = first_time
        if hasattr(self.scheduler, "on_simulation_start"):
            self.scheduler.on_simulation_start(self.cluster, self.now)
        if self.config.tick_interval > 0:
            self._push(first_time + self.config.tick_interval, EventKind.QUOTA_TICK)

    def advance(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events up to simulated time ``until`` (inclusive).

        Returns the number of events processed.  ``until=None`` drains
        the heap (batch semantics); ``max_events`` optionally bounds the
        work per call so a service can interleave long advances with
        other requests.  Chunking is invisible to the simulation: for
        any boundary sequence the events processed, and therefore every
        metric, are bit-identical to one uninterrupted run, because the
        loop never consults ``until`` for anything except *when to
        pause* — it peeks at the heap root and stops before popping.
        """
        if not self._started:
            self.start()
        processed = 0
        rec = self.obs
        while self._events:
            head_time, head_kind = self._events[0][:2]
            if until is not None and head_time > until:
                break
            if self.config.max_time is not None and head_time > self.config.max_time:
                self._time_capped = True
                break
            # A fault schedule can stretch far past the trace: once no task
            # work remains anywhere (no waiting or running tasks and no
            # future arrivals/finishes), trailing dynamics events cannot
            # affect any result and are abandoned unprocessed.
            if (
                head_kind in DYNAMICS_EVENT_KINDS
                and self._event_counts.task_events == 0
                and not self.pending
                and not self.cluster.running_tasks
            ):
                break
            if max_events is not None and processed >= max_events:
                break
            event = self._pop()
            self.now = event.time
            dispatch_start = perf_counter() if rec.enabled else 0.0
            if event.kind is EventKind.TASK_ARRIVAL:
                self._handle_arrival(event.task)
            elif event.kind is EventKind.TASK_FINISH:
                self._handle_finish(event.task, event.epoch)
            elif event.kind is EventKind.QUOTA_TICK:
                self._handle_tick()
            elif event.kind in DYNAMICS_EVENT_KINDS:
                self._handle_dynamics(event)
            if rec.enabled:
                rec.record_dispatch(event.kind.name, perf_counter() - dispatch_start)
            processed += 1
        return processed

    def run(self) -> SimulationMetrics:
        """Run the simulation until the trace drains (or ``max_time`` hits)."""
        if not self._started and not self._events:
            raise SimulationError("no tasks submitted")
        self.advance()
        return self.finalize()

    def finalize(self) -> SimulationMetrics:
        """Collect the metrics of the run so far.

        A read: it changes no simulator attribute, so a mid-run call for
        a live query leaves the run's final metrics bit-identical to an
        unqueried run's.
        """
        with self.obs.span("sim.metric_accrual_s"):
            return self.collect_metrics()

    # ------------------------------------------------------------------
    # Snapshot / fork (streaming service mode)
    # ------------------------------------------------------------------
    def fork(self) -> "ClusterSimulator":
        """An independent copy sharing no mutable state with ``self``.

        ``restore(snapshot())``: the pickle round trip is the one way a
        simulator is copied, so a fork is exactly what a restored session
        would be.  The copy carries the complete simulator graph —
        cluster, capacity index, event heap, pending queue, tasks,
        scheduler (including any RNG state) — with object identity
        preserved *within* the copy, so it can be advanced, submitted to
        and finished without perturbing the live simulator by a single
        bit.  Like a restored simulator it starts unobserved (see
        :meth:`__getstate__`), and like :meth:`snapshot` it needs a
        picklable scheduler.  This is what serves speculative what-if
        queries in :mod:`repro.service`.
        """
        return self.restore(self.snapshot())

    def snapshot(self) -> bytes:
        """Serialise the complete simulator state to bytes.

        ``ClusterSimulator.restore(sim.snapshot())`` continues
        bit-identically to the simulator it was taken from — including
        mid-outage dynamics state and same-timestamp event ties (guarded
        by ``tests/test_snapshot_fork.py``).  Registry schedulers are all
        picklable; a custom scheduler must be too, or this raises a
        :class:`SimulationError` naming the attribute pickle refused.
        The service layer wraps these bytes in a versioned, checksummed
        envelope (:mod:`repro.service.snapshot`) for transport.
        """
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except _PICKLE_ERRORS as exc:
            where = _unpicklable_attribute(self) or "<unknown>"
            raise SimulationError(
                f"simulator state is not picklable (scheduler "
                f"{type(self.scheduler).__name__}): attribute {where!r} — {exc}"
            ) from exc

    @classmethod
    def restore(cls, data: bytes) -> "ClusterSimulator":
        """Rebuild a simulator from :meth:`snapshot` bytes."""
        sim = pickle.loads(data)
        if not isinstance(sim, cls):
            raise SimulationError(
                f"snapshot does not contain a {cls.__name__} (got {type(sim).__name__})"
            )
        return sim

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_arrival(self, task: Task) -> None:
        task.state = TaskState.PENDING
        task.queue_enter_time = self.now
        self.pending.append(task)
        if hasattr(self.scheduler, "on_task_submit"):
            self.scheduler.on_task_submit(task, self.cluster, self.now)
        # Arrivals only trigger a scheduling attempt for the new task; the
        # full queue is re-examined on completions and periodic ticks.  This
        # keeps the event loop close to linear in the number of events.
        self._schedule_pending(only=task, trigger="arrival")
        # In batch replays the tick chain is always alive while arrivals
        # remain, so this is a no-op; in streaming mode a submission into a
        # drained session must revive the periodic tick itself.
        self._ensure_tick()

    def _handle_finish(self, task: Task, epoch: int) -> None:
        if task is None or self._epochs.get(task.task_id) != epoch:
            return  # stale finish event from a run that was preempted
        if task.state is not TaskState.RUNNING:
            return
        task.run_logs[-1].end = self.now
        task.run_logs[-1].checkpoint_index = len(task.checkpoints) - 1
        task.completed_work = task.duration
        task.state = TaskState.COMPLETED
        task.finish_time = self.now
        self.cluster.remove_task(task)
        if task.is_spot:
            self.cluster.record_spot_outcome(evicted=False)
        if hasattr(self.scheduler, "on_task_finish"):
            self.scheduler.on_task_finish(task, self.cluster, self.now)
        self._schedule_pending(trigger="finish")

    def _handle_tick(self) -> None:
        rec = self.obs
        with rec.span("sim.metric_accrual_s"):
            self.allocation_samples.append(self.cluster.allocation_rate())
            self.allocation_sample_times.append(self.now)
        if hasattr(self.scheduler, "on_tick"):
            with rec.span("sim.scheduler_tick_s"):
                self.scheduler.on_tick(self.cluster, self.now, self.pending.snapshot())
        pending_before = len(self.pending)
        self._schedule_pending(trigger="tick")
        if rec.enabled:
            rec.sample_tick({
                "t": self.now,
                "pending": len(self.pending),
                "running": len(self.cluster.running_tasks),
                "alloc": self.cluster.allocation_rate(),
            })
        # Keep ticking while there is still work anywhere in the system, but
        # stop once the only remaining work is pending tasks that can never
        # be scheduled (nothing running, no future arrivals/finishes, and the
        # tick made no progress) — otherwise the loop would tick forever.
        # Future dynamics events do not keep ticks alive on their own: a
        # repair that unblocks stuck pending work revives the tick itself.
        has_task_events = self._event_counts.task_events > 0
        stuck = (
            bool(self.pending)
            and not self.cluster.running_tasks
            and not has_task_events
            and len(self.pending) == pending_before
        )
        if (self.pending or self.cluster.running_tasks or has_task_events) and not stuck:
            self._push(self.now + self.config.tick_interval, EventKind.QUOTA_TICK)

    # ------------------------------------------------------------------
    # Cluster dynamics
    # ------------------------------------------------------------------
    def _inject_dynamics(self) -> None:
        """Materialise the fault schedule into the event heap (run start).

        Nodes offline from the very beginning (elastic fleets that grow
        later) are deactivated before ``on_simulation_start`` so the
        scheduler's first view of the cluster already reflects them.
        """
        if self.dynamics is None:
            return
        schedule = self.dynamics.schedule(self.cluster)
        for node_id in schedule.initial_offline:
            node = self.cluster.node(node_id)
            if node.available:
                self.cluster.deactivate_node(node_id)
        for time, kind, action in schedule.events:
            self._push(time, kind, payload=action)

    def _handle_dynamics(self, event: Event) -> None:
        """Apply one scheduled dynamics action (node leaving or rejoining)."""
        action = event.payload
        node = self.cluster.node(action.node_id)
        if event.kind is EventKind.CAPACITY_CHANGE:
            self.dynamics_counts.capacity_changes += 1
        if action.online:
            if node.available:
                return  # defensive: duplicate activation in a schedule
            if event.kind is EventKind.NODE_REPAIR:
                self.dynamics_counts.node_repairs += 1
            self._accrue_capacity()
            self.cluster.activate_node(node.node_id)
            if hasattr(self.scheduler, "on_node_up"):
                self.scheduler.on_node_up(node, self.cluster, self.now)
            # Restored capacity may unblock waiting tasks immediately.
            self._schedule_pending(trigger="dynamics")
        else:
            if not node.available:
                return  # defensive: overlapping outages collapse to one
            if event.kind is EventKind.NODE_FAIL:
                self.dynamics_counts.node_failures += 1
            elif event.kind is EventKind.NODE_DRAIN:
                self.dynamics_counts.node_drains += 1
            self._kill_tasks_on_node(node, graceful=action.graceful)
            self._accrue_capacity()
            self.cluster.deactivate_node(node.node_id)
            if hasattr(self.scheduler, "on_node_down"):
                self.scheduler.on_node_down(node, self.cluster, self.now)
            # Displaced tasks may fit on the surviving fleet right away.
            self._schedule_pending(trigger="dynamics")
        self._ensure_tick()

    def _kill_tasks_on_node(self, node, graceful: bool) -> None:
        """Kill (and requeue) every task holding GPUs on ``node``."""
        # Snapshot: _kill_task mutates node.task_shares via release_task.
        for task_id in list(node.task_shares):
            task = self.cluster.running_tasks.get(task_id)
            if task is None:
                raise SimulationError(
                    f"node {node.node_id} holds shares of unknown task {task_id}"
                )
            self._kill_task(task, graceful=graceful)

    def _kill_task(self, task: Task, graceful: bool) -> None:
        """End a running task because a node under it vanished, and requeue it.

        Deliberately parallel to — not shared with — :meth:`_evict`: kills
        may hit HP tasks, never touch the spot success/eviction counters or
        the node eviction history (those model scheduler behaviour, not
        infrastructure faults), support the ``graceful`` drain semantics
        (checkpoint in place, no work lost) alongside the abrupt rollback
        to the last checkpoint milestone, and exclude restart overhead
        from banked progress; ``_evict`` keeps the paper's exact eviction
        arithmetic, which the recorded benchmark references pin
        bit-for-bit.
        """
        run = task.run_logs[-1]
        # A task placed with a start delay can die before its run begins,
        # and the first `run.overhead` seconds of wall time are setup /
        # checkpoint reload, not task progress.
        elapsed = max(0.0, self.now - run.start)
        worked = max(0.0, elapsed - run.overhead)
        progress = min(task.duration, task.completed_work + worked)
        if graceful:
            saved = progress
        else:
            ckpt_idx = task.highest_checkpoint_before(progress)
            saved = task.checkpoints[ckpt_idx] if ckpt_idx >= 0 else 0.0
        new_completed = min(task.duration, max(task.completed_work, saved))
        lost = max(0.0, progress - new_completed)
        run.end = self.now
        run.killed = True
        run.checkpoint_index = task.highest_checkpoint_before(new_completed)
        task.completed_work = new_completed
        task.dynamics_kill_count += 1
        task.lost_gpu_seconds += lost * task.total_gpus
        self.cluster.remove_task(task)
        task.state = TaskState.PENDING
        task.queue_enter_time = self.now
        self.pending.append(task)
        if hasattr(self.scheduler, "on_task_killed"):
            self.scheduler.on_task_killed(task, self.cluster, self.now)

    def _ensure_tick(self) -> None:
        """Revive the periodic tick if work exists but no tick is scheduled.

        The tick chain dies when the system looks permanently stuck; a
        dynamics event that changes capacity (or requeues tasks) can make
        the system live again and must restart it.
        """
        if (
            self.config.tick_interval > 0
            and self._event_counts.tick_events == 0
            and (self.pending or self.cluster.running_tasks or self._event_counts.task_events > 0)
        ):
            self._push(self.now + self.config.tick_interval, EventKind.QUOTA_TICK)

    def _accrue_capacity(self) -> None:
        """Fold the online-capacity integral forward to the current time.

        Called before every fleet-size change (``collect_metrics`` adds
        the open span since the last one), so ``paid_gpu_hours``
        integrates the capacity that was actually online over each
        interval.
        """
        if self._capacity_accrued_until is None:
            return
        span = self.now - self._capacity_accrued_until
        if span > 0:
            self._paid_gpu_seconds += self.cluster.total_gpus() * span
            self._capacity_accrued_until = self.now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedule_pending(self, only: Optional[Task] = None, trigger: str = "direct") -> None:
        """Offer pending tasks to the scheduler in its preferred order.

        When ``only`` is given, just that task is offered (used on arrivals).
        All queue membership checks and removals are O(1) against the
        indexed :class:`~repro.cluster.pending.PendingQueue`.  ``trigger``
        names the event that prompted the pass (arrival / finish / tick /
        dynamics) and only feeds the observability ``pass`` event.
        """
        if not self.pending:
            return
        rec = self.obs
        pass_start = perf_counter() if rec.enabled else 0.0
        self.placement_ctx.begin_pass()
        if only is not None:
            ordered = [only] if only in self.pending else []
        else:
            ordered = self.scheduler.sort_queue(self.pending.snapshot(), self.now)
        scheduled: List[Task] = []
        examined = 0
        blocked_spot = False
        blocked_hp = False
        blocks = getattr(self.scheduler, "blocks_on_failure", None)
        for task in ordered:
            if task not in self.pending:
                continue
            if (blocked_spot and task.is_spot) or (blocked_hp and task.is_hp):
                continue
            examined += 1
            if self._scheduler_takes_ctx:
                decision = self.scheduler.try_schedule(
                    task, self.cluster, self.now, ctx=self.placement_ctx
                )
            else:
                decision = self.scheduler.try_schedule(task, self.cluster, self.now)
            if decision is None:
                if blocks is not None and blocks(task):
                    # FCFS semantics: the head of this class blocks the rest.
                    if task.is_spot:
                        blocked_spot = True
                    else:
                        blocked_hp = True
                continue
            self._apply_decision(task, decision)
            scheduled.append(task)
        for task in scheduled:
            # A task scheduled this pass may already have been evicted again
            # (as a preemption victim of a later task in the same pass) and
            # re-queued; it is PENDING again and must stay in the queue.
            if task.state is not TaskState.PENDING:
                self.pending.discard(task)
        if rec.enabled:
            ctx = self.placement_ctx
            rec.record_pass(
                {
                    "t": self.now,
                    "trigger": trigger,
                    "examined": examined,
                    "scheduled": len(scheduled),
                    "memo_hits": ctx.pass_memo_hits,
                    "index_rejects": ctx.pass_index_rejects,
                    "searches": ctx.pass_searches,
                    "pending": len(self.pending),
                },
                perf_counter() - pass_start,
            )

    def _apply_decision(self, task: Task, decision: SchedulingDecision) -> None:
        delay = max(0.0, decision.start_delay)
        if decision.preempted_task_ids:
            delay += self.config.preemption_grace_period
            for victim_id in decision.preempted_task_ids:
                victim = self.cluster.running_tasks.get(victim_id)
                if victim is None:
                    raise SimulationError(f"preemption target {victim_id} is not running")
                if victim.is_hp:
                    raise SimulationError("HP tasks must never be preempted")
                self._evict(victim)
        self._start_task(task, decision.placements, start_delay=delay)

    def _start_task(self, task: Task, placements, start_delay: float = 0.0) -> None:
        start = self.now + start_delay
        self.cluster.place_task(task, placements)
        task.total_queue_time += max(0.0, self.now - task.queue_enter_time)
        restarted = task.eviction_count > 0 or task.dynamics_kill_count > 0
        overhead = self.config.restart_overhead if restarted else 0.0
        task.run_logs.append(RunLog(start=start, overhead=overhead))
        task.state = TaskState.RUNNING
        if task.first_start_time is None:
            task.first_start_time = start
        self._epochs[task.task_id] = self._epochs.get(task.task_id, 0) + 1
        finish_time = start + task.remaining_work + overhead
        self._push(finish_time, EventKind.TASK_FINISH, task, epoch=self._epochs[task.task_id])
        if hasattr(self.scheduler, "on_task_start"):
            self.scheduler.on_task_start(task, self.cluster, self.now)

    def _evict(self, task: Task) -> None:
        """Evict a running spot task: roll back to its last checkpoint and re-queue.

        The evicted task re-enters the pending queue at the tail, behind
        every task already waiting (schedulers re-sort the queue on every
        pass, so FCFS schedulers still see its original submit time).
        """
        run = task.run_logs[-1]
        elapsed = max(0.0, self.now - run.start)
        progress = task.completed_work + elapsed
        ckpt_idx = task.highest_checkpoint_before(progress)
        saved = task.checkpoints[ckpt_idx] if ckpt_idx >= 0 else 0.0
        task.completed_work = min(task.duration, max(task.completed_work, saved))
        run.end = self.now
        run.evicted = True
        run.checkpoint_index = ckpt_idx
        task.eviction_count += 1
        for pod in task.placements:
            self.cluster.node(pod.node_id).record_eviction(self.now)
        self.cluster.remove_task(task)
        self.cluster.record_spot_outcome(evicted=True)
        task.state = TaskState.PENDING
        task.queue_enter_time = self.now
        self.pending.append(task)
        if hasattr(self.scheduler, "on_task_evicted"):
            self.scheduler.on_task_evicted(task, self.cluster, self.now)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def collect_metrics(self) -> SimulationMetrics:
        # The paid-capacity integral is folded only at fleet-size changes
        # (``_accrue_capacity``); the open span since the last one is added
        # here to a local, so reading metrics never writes the fold.
        paid_gpu_seconds = self._paid_gpu_seconds
        open_since = self._capacity_accrued_until
        if open_since is not None and self.now > open_since:
            paid_gpu_seconds += self.cluster.total_gpus() * (self.now - open_since)
        return compute_metrics(
            self.all_tasks,
            allocation_series=self.allocation_samples,
            allocation_times=self.allocation_sample_times,
            makespan=self.now - (min(t.submit_time for t in self.all_tasks) if self.all_tasks else 0.0),
            dynamics_counts=self.dynamics_counts,
            paid_gpu_hours=paid_gpu_seconds / 3600.0,
        )


def run_simulation(
    cluster: Cluster,
    scheduler,
    tasks: Sequence[Task],
    config: Optional[SimulatorConfig] = None,
    dynamics=None,
    dynamics_seed: int = 0,
    recorder=None,
) -> SimulationMetrics:
    """Build a simulator, submit ``tasks`` and run the trace to completion.

    This is the one-call entry point used by the examples and every
    experiment runner: it wires ``cluster`` and ``scheduler`` into a fresh
    :class:`ClusterSimulator` and returns the resulting
    :class:`~repro.cluster.metrics.SimulationMetrics`.

    Example
    -------
    >>> from repro import Cluster, GFSScheduler, run_simulation
    >>> from repro.workloads import generate_trace
    >>> cluster = Cluster.homogeneous(num_nodes=32)
    >>> trace = generate_trace(cluster_gpus=cluster.total_gpus(), duration_hours=16.0)
    >>> metrics = run_simulation(cluster, GFSScheduler(org_history=trace.org_history),
    ...                          trace.sorted_tasks())
    >>> print(metrics.summary())

    ``dynamics`` optionally attaches cluster dynamics: pass a
    :class:`~repro.dynamics.FaultInjector`, or a
    :class:`~repro.dynamics.DynamicsSpec` plus ``dynamics_seed`` and the
    injector is built here (the schedule is then a pure function of the
    spec, the seed and the cluster's node list).

    ``recorder`` optionally attaches a :class:`repro.obs.Recorder`; the
    default is the shared no-op :data:`repro.obs.NULL_RECORDER`, and
    attaching a live recorder never changes the returned metrics (the
    parity suite in ``tests/test_obs_parity.py`` pins this).
    """
    if dynamics is not None and not hasattr(dynamics, "schedule"):
        # A bare DynamicsSpec: bind it to the seed.  Imported lazily so the
        # cluster package stays free of a dynamics dependency.
        from ..dynamics import FaultInjector

        dynamics = FaultInjector(dynamics, seed=dynamics_seed)
    simulator = ClusterSimulator(cluster, scheduler, config, dynamics=dynamics, recorder=recorder)
    simulator.submit_all(tasks)
    return simulator.run()

"""Preemptive Task Scheduler (Algorithm 3).

The PTS converts quota-level decisions into concrete placements: it first
attempts non-preemptive scheduling (Algorithm 1) for any task and, for HP
tasks only, falls back to preemptive scheduling (Algorithm 2).

On its own it is the registry's ``"pts"`` family: every spot task is
admitted and only placement decides, which isolates placement behaviour
from admission control (under node churn the quota loop reacts to
capacity loss; PTS without quota shows how much of the resilience comes
from placement alone).  :class:`~repro.core.gfs.GFSScheduler` extends it
with the GDE/SQA hooks and the quota gate.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ...cluster import Cluster, SchedulingDecision, Task
from ...schedulers.base import Scheduler
from ...schedulers.placement import PlacementContext
from ..config import GFSConfig
from .nonpreemptive import non_preemptive_placement
from .preemptive import preemptive_placement


class PreemptiveTaskScheduler(Scheduler):
    """The preemption-aware task scheduler with admission wide open.

    Example
    -------
    >>> from repro import create_scheduler
    >>> metrics = run_simulation(cluster, create_scheduler("pts"), trace.sorted_tasks())
    """

    name = "PTS"

    def __init__(self, config: Optional[GFSConfig] = None):
        self.config = config or GFSConfig()
        self._rng = random.Random(self.config.seed)
        #: the origin of the total GPU-seconds Eq. (19) divides waste by
        self._start_time: float = 0.0

    def on_simulation_start(self, cluster: Cluster, now: float) -> None:
        self._start_time = now

    def try_schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        return self.schedule(task, cluster, now, ctx)

    # ------------------------------------------------------------------
    def schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        """Algorithm 3: non-preemptive first, preemptive fallback for HP tasks."""
        cfg = self.config
        if ctx is None:
            ctx = PlacementContext(cluster)
        # Fast capacity gate: the task's total demand exceeding the free
        # capacity (an O(1) cached aggregate) makes non-preemptive placement
        # impossible — skip the per-node scoring scan entirely.  The margin
        # stays above the card-level fit EPSILON so the gate can only skip
        # genuinely infeasible attempts.
        placements = None
        if task.total_gpus <= cluster.idle_gpus(task.gpu_model) + 1e-6:
            if not ctx.infeasible(task, "pts-np"):
                placements = non_preemptive_placement(
                    task,
                    ctx,
                    now,
                    cfg,
                    use_colocation=cfg.use_colocation,
                    use_eviction_awareness=cfg.use_eviction_awareness,
                )
                if placements is None:
                    ctx.note_failure(task, "pts-np")
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if not task.is_hp:
            return None
        # The failed-shape memo must not swallow the rng draws of the
        # random-preemption ablation: a skipped search would desynchronise
        # the rng stream from the unmemoised run.
        memo = not cfg.random_preemption
        if memo and ctx.infeasible(task, "pts-preempt", track_spot=True):
            return None
        result = preemptive_placement(
            task,
            ctx,
            cluster,
            now,
            beta=cfg.beta,
            total_gpu_seconds=cluster.total_gpus() * max(1.0, now - self._start_time),
            random_selection=cfg.random_preemption,
            rng=self._rng,
        )
        if result is None:
            if memo:
                ctx.note_failure(task, "pts-preempt", track_spot=True)
            return None
        placements, victim_ids = result
        return SchedulingDecision(placements=placements, preempted_task_ids=victim_ids)

    # ------------------------------------------------------------------
    def sort_queue(self, pending: List[Task], now: float) -> List[Task]:
        """Queue ordering: HP first, larger requests first, then FCFS."""
        return sorted(
            pending,
            key=lambda t: (
                not t.is_hp,
                -(t.num_pods * t.gpus_per_pod),
                -t.num_pods,
                t.submit_time,
                t.task_id,
            ),
        )

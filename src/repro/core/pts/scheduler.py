"""Preemptive Task Scheduler (Algorithm 3).

The PTS converts quota-level decisions into concrete placements: it first
attempts non-preemptive scheduling (Algorithm 1) for any task and, for HP
tasks only, falls back to preemptive scheduling (Algorithm 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ...cluster import Cluster, SchedulingDecision, Task
from ...schedulers.placement import PlacementContext
from .nonpreemptive import non_preemptive_placement
from .preemptive import preemptive_placement
from .scoring import ScoringConfig


@dataclass
class PTSConfig:
    """Parameters of the preemptive task scheduler (Table 4)."""

    #: weighting factor beta of the preemption cost (Eq. 19)
    beta: float = 0.5
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    #: ablation switches
    use_colocation: bool = True
    use_eviction_awareness: bool = True
    random_preemption: bool = False
    seed: int = 0


class PreemptiveTaskScheduler:
    """Placement engine used by :class:`repro.core.gfs.GFSScheduler`."""

    def __init__(self, config: Optional[PTSConfig] = None):
        self.config = config or PTSConfig()
        self._rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------
    def schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        total_gpu_seconds: float,
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
                    cfg.scoring,
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
            total_gpu_seconds=total_gpu_seconds,
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

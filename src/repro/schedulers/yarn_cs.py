"""YARN-CS baseline: FCFS ordering, best-fit placement, naive preemption.

Modelled after the YARN capacity scheduler as used in the paper's
comparison: tasks are served first-come-first-served, placed with a
best-fit heuristic, HP tasks may preempt spot tasks, and there is no
predictive spot quota (spot tasks are admitted whenever idle GPUs exist).
"""

from __future__ import annotations

from typing import Optional

from ..cluster import Cluster, Node, SchedulingDecision, Task
from .base import Scheduler
from .placement import NodeView, PlacementContext


def best_fit_score(node: Node, view: NodeView, task: Task) -> float:
    """Best fit: prefer the node with the least free capacity that still fits."""
    return -view.free_capacity


class YarnCSScheduler(Scheduler):
    """Classic FCFS + best-fit scheduler with unrestricted preemption.

    The paper's YARN capacity-scheduler baseline: tasks are served in
    submission order (a stuck spot task blocks the spot tasks behind it),
    placed best-fit, and HP tasks may evict any spot task — there is no
    predictive quota, so spot eviction rates climb with HP load.

    Example
    -------
    >>> from repro import Cluster, YarnCSScheduler, run_simulation
    >>> metrics = run_simulation(Cluster.homogeneous(4), YarnCSScheduler(), tasks)
    """

    name = "YARN-CS"

    def blocks_on_failure(self, task: Task) -> bool:
        # Plain FCFS: a spot task stuck at the head of the queue blocks the
        # spot tasks submitted after it (HP tasks preempt, so they rarely wait).
        return task.is_spot

    def try_schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        if ctx is None:
            ctx = PlacementContext(cluster)
        placements = ctx.find_placement(task, score=best_fit_score, pool="yarn-np")
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if not task.is_hp:
            return None
        # Naive preemption: densest spot usage first, and on each node the
        # most recently started spot tasks first, until the task fits.
        found = ctx.evict_until_fit(
            task,
            cluster,
            best_fit_score,
            pool="yarn-preempt",
            node_order=lambda n: -n.spot_gpus,
            victim_order=lambda t: -(t.run_logs[-1].start if t.run_logs else 0.0),
        )
        if found is None:
            return None
        return SchedulingDecision(placements=found[0], preempted_task_ids=found[1])

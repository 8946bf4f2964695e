"""Lyra baseline: elastic node loaning between HP and spot pools.

Lyra (EuroSys '23) leases idle inference nodes to training tasks and uses a
heuristic to minimise preemption cost.  Mapped onto this paper's task
model: HP tasks play the role of inference tasks and spot tasks the role of
training tasks.  Spot tasks may only run on *loaned* nodes (nodes currently
hosting no HP task); when HP demand grows, whole loaned nodes are reclaimed
(all spot tasks on them are preempted), choosing the reclaim set that
minimises the number of preempted tasks.

The node-granularity loan keeps the eviction rate low but throttles how
much capacity spot tasks can use, which is what produces Lyra's long spot
queuing times in the paper's comparison.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import Cluster, Node, SchedulingDecision, Task
from .base import Scheduler
from .placement import NodeView, PlacementContext, spot_tasks_on_node
from .yarn_cs import best_fit_score


def _hp_affinity_score(node: Node, view: NodeView, t: Task) -> float:
    """Prefer nodes that host no spot task so reclaims stay rare."""
    return (0.0 if node.spot_gpus > 0 else 1000.0) - view.free_capacity


class LyraScheduler(Scheduler):
    """Node-loaning scheduler with preemption-cost-aware reclaims.

    ``capacity_reserve`` is the fraction of total cluster capacity Lyra
    keeps free of spot tasks as a buffer for HP growth; the conservative
    loaning policy is what keeps Lyra's eviction rate low at the price of
    long spot queuing times.

    Example
    -------
    >>> from repro import Cluster, LyraScheduler, run_simulation
    >>> scheduler = LyraScheduler(capacity_reserve=0.15)
    >>> metrics = run_simulation(Cluster.homogeneous(4), scheduler, tasks)
    """

    name = "Lyra"

    def __init__(self, capacity_reserve: float = 0.15):
        self.capacity_reserve = capacity_reserve

    def try_schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        if ctx is None:
            ctx = PlacementContext(cluster)
        if task.is_spot:
            return self._schedule_spot(task, cluster, ctx)
        return self._schedule_hp(task, cluster, now, ctx)

    # ------------------------------------------------------------------
    def _schedule_spot(
        self, task: Task, cluster: Cluster, ctx: PlacementContext
    ) -> Optional[SchedulingDecision]:
        # The reserve check runs against the cluster's O(1) cached
        # aggregates before any per-node work, so a throttled spot queue
        # costs O(1) per waiting task instead of a full node scan.
        reserve = self.capacity_reserve * cluster.total_gpus(task.gpu_model)
        if cluster.idle_gpus(task.gpu_model) - task.total_gpus < reserve:
            return None  # keep a buffer of idle capacity for HP growth
        loaned = [n for n in ctx.fit_candidates(task) if n.hp_gpus == 0]
        placements = ctx.find_placement(
            task, score=best_fit_score, pool="lyra-loaned", candidates=loaned
        )
        if placements is None:
            return None
        return SchedulingDecision(placements=placements)

    def _schedule_hp(
        self, task: Task, cluster: Cluster, now: float, ctx: PlacementContext
    ) -> Optional[SchedulingDecision]:
        placements = ctx.find_placement(task, score=_hp_affinity_score, pool="lyra-hp")
        if placements is not None:
            return SchedulingDecision(placements=placements)

        # Reclaim loaned nodes: order candidate nodes by how few spot tasks
        # would be displaced, then virtually reclaim whole nodes until the
        # task fits.
        found = ctx.evict_until_fit(
            task,
            cluster,
            _hp_affinity_score,
            pool="lyra-reclaim",
            node_order=lambda n: (len(spot_tasks_on_node(n, cluster)), -n.spot_gpus),
            probe_per_victim=False,
        )
        if found is None:
            return None
        return SchedulingDecision(placements=found[0], preempted_task_ids=found[1])

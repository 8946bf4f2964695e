"""FGD baseline: fragmentation-gradient-descent placement.

FGD (USENIX ATC '23) scores candidate nodes by how much expected
fragmentation a placement would add and picks the minimum.  Following the
paper's adaptation, the fragmentation measure is applied at node
granularity.  FGD has no notion of spot quota, workload-type co-location
or eviction awareness; when an HP task cannot be placed it preempts spot
tasks purely to minimise post-preemption fragmentation, which is why it
shows the highest eviction rates in the comparison.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import Cluster, Node, SchedulingDecision, Task
from ..cluster.gpu import is_fractional_pod
from .base import Scheduler
from .placement import NodeView, PlacementContext


def fragmentation_after(view: NodeView, gpus_per_pod: float) -> float:
    """Fragmentation measure of a node after hypothetically placing one pod.

    Whole idle GPUs left over that are too few to host another pod of the
    same size count as fragmented capacity; fractional remainders always
    count.  Lower is better.
    """
    if is_fractional_pod(gpus_per_pod):
        remaining = view.free_capacity - gpus_per_pod
    else:
        remaining = view.idle_gpus - int(round(gpus_per_pod))
    if remaining < 0:
        return float("inf")
    whole_pods_left = int(remaining // max(gpus_per_pod, 1e-9))
    fragment = remaining - whole_pods_left * gpus_per_pod
    return fragment


def fgd_score(node: Node, view: NodeView, task: Task) -> float:
    """Higher is better: negate the post-placement fragmentation."""
    return -fragmentation_after(view, task.gpus_per_pod)


class FGDScheduler(Scheduler):
    """Fragmentation-gradient-descent baseline (FGD, USENIX ATC '23).

    Places every pod on the node whose post-placement fragmentation is
    lowest.  FGD has no spot quota, co-location or eviction awareness:
    when an HP task does not fit, it preempts spot tasks purely to
    minimise fragmentation, producing the highest eviction rates in the
    paper's comparison (Table 5).

    Example
    -------
    >>> from repro import Cluster, FGDScheduler, run_simulation
    >>> metrics = run_simulation(Cluster.homogeneous(4), FGDScheduler(), tasks)
    """

    name = "FGD"

    def blocks_on_failure(self, task: Task) -> bool:
        # FGD is a placement policy on top of an FCFS queue: spot tasks do
        # not backfill past a stuck spot task.
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
        placements = ctx.find_placement(task, score=fgd_score, pool="fgd-np")
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if not task.is_hp:
            return None

        def node_rank(node: Node) -> float:
            # Prefer nodes whose spot capacity plus idle capacity most tightly
            # matches the per-pod request (fragmentation-style tie breaking).
            reclaimable = node.spot_gpus + node.free_capacity
            overshoot = reclaimable - task.gpus_per_pod
            return overshoot if overshoot >= 0 else float("inf")

        # Preempt spot tasks node by node, ranked by post-preemption tightness.
        found = ctx.evict_until_fit(
            task, cluster, fgd_score, pool="fgd-preempt", node_order=node_rank
        )
        if found is None:
            return None
        return SchedulingDecision(placements=found[0], preempted_task_ids=found[1])

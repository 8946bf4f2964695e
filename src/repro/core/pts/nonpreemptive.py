"""Non-preemptive scheduling (Algorithm 1).

Pods are placed one at a time.  For every pod the candidate set is filtered
by resource feasibility (and, for spot tasks, by the eviction circuit
breaker), then ranked by the lexicographic score tuple
``<Score1, Score2, Score3>``; the top node receives the pod.  If any pod
cannot be placed the whole task fails (gang semantics) and no state is
mutated — the simulator only materialises returned decisions.

A node's key only grows as pods land on it, so the per-pod argmax fills
nodes in their initial key order.  Score 1 (Eq. 13) of a node with ``b``
idle cards is at most ``1 - b / S_max``, so the walk reaches the capacity
index's idle buckets in ascending ``b`` and fills a node only once its
Score 1 beats that bound of every bucket not reached yet: nodes it never
reaches are never scored.  Candidates are ``view_fit_candidates``.
"""

from __future__ import annotations

from typing import List, Optional

from ...cluster import PodPlacement, Task
from ...schedulers.placement import PlacementContext, pod_demand
from ..config import GFSConfig
from .scoring import eviction_penalty, eviction_terms


def non_preemptive_placement(
    task: Task,
    ctx: PlacementContext,
    now: float,
    config: GFSConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
) -> Optional[List[PodPlacement]]:
    """Algorithm 1: place every pod of ``task`` without preempting anyone."""
    # A whole-GPU pod consumes (and Score 1 ranks) idle cards, a fractional one free capacity.
    gpus_per_pod = task.gpus_per_pod
    fractional, need, slack = pod_demand(gpus_per_pod)
    breaker_applies = task.is_spot and not fractional
    task_type = task.task_type
    # Within one call ``now``, the eviction histories and the nodes' real
    # HP/spot allocation are fixed.  A node without eviction history has
    # penalty exactly 0.0.
    calm = eviction_terms(0.0, task) if use_eviction_awareness else (False, 0.0)

    run: list = []  # (s1, s2, s3, node_id, capacity) of reached nodes, best last
    placements: List[PodPlacement] = []

    def fill(bound: float) -> bool:
        """Fill the reached nodes whose Score 1 beats ``bound``; True once the gang is placed."""
        while run and run[-1][0] > bound:
            _, _, _, node_id, capacity = run.pop()
            while capacity + slack >= need:
                capacity -= need
                placements.append(PodPlacement(node_id, (), gpus_per_pod))
                if len(placements) == task.num_pods:
                    return True
        return False

    start = 0 if fractional else need
    size, levels = ctx.index.idle_levels(task.gpu_model, start)
    for idle, buckets in enumerate(levels, start):
        # Every node from this bucket on has ``idle`` idle cards or more.
        if fill(1.0 - idle / size):
            return placements
        for bucket in buckets:
            for node in bucket.values():
                capacity = idle
                if fractional:
                    capacity = node.free_capacity
                    if capacity + slack < need or capacity <= 0.0:
                        continue
                if use_eviction_awareness and node.eviction_history:
                    broken, s3 = eviction_terms(eviction_penalty(node, now, config), task)
                else:
                    broken, s3 = calm
                if broken and breaker_applies:
                    continue
                total = node.num_gpus  # a node has at least one card
                s2 = node.allocated_gpus_by_type(task_type) / total if use_colocation else 0.0
                # Score 1 (Eq. 13): fewer idle GPUs rank higher; ties to the larger id.
                run.append((1.0 - capacity / total, s2, s3, node.node_id, capacity))
        run.sort()
    # Score 1 is never negative: what is left of ``run`` can all be filled.
    return placements if fill(-1.0) else None

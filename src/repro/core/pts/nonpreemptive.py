"""Non-preemptive scheduling (Algorithm 1).

Pods are placed one at a time.  For every pod the candidate set is filtered
by resource feasibility (and, for spot tasks, by the eviction circuit
breaker), then ranked by the lexicographic score tuple
``<Score1, Score2, Score3>``; the top node receives the pod.  If any pod
cannot be placed the whole task fails (gang semantics) and no state is
mutated — the simulator only materialises returned decisions.

The candidate set comes from the cluster's capacity index through the
:class:`~repro.schedulers.placement.PlacementContext` (only nodes that can
host at least one pod right now) instead of a scan over every
model-compatible node; a node that cannot host a pod at pass time can never
become feasible during the task's own greedy loop, so the restriction is
exact.
"""

from __future__ import annotations

from typing import List, Optional

from ...cluster import PodPlacement, Task
from ...cluster.gpu import EPSILON, is_fractional_pod
from ...schedulers.placement import PlacementContext
from .scoring import ScoringConfig, eviction_penalty, eviction_terms


def non_preemptive_placement(
    task: Task,
    ctx: PlacementContext,
    now: float,
    config: ScoringConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
) -> Optional[List[PodPlacement]]:
    """Algorithm 1: place every pod of ``task`` without preempting anyone."""
    views = [ctx.base_view(n) for n in ctx.view_fit_candidates(task)]

    # A whole-GPU pod consumes (and Score 1 ranks) idle cards, a fractional
    # pod free capacity: either way one number per node, and the views are
    # only read.  A pod fits while ``capacity + slack >= need``.
    gpus_per_pod = task.gpus_per_pod
    fractional = is_fractional_pod(gpus_per_pod)
    need = gpus_per_pod if fractional else int(round(gpus_per_pod))
    slack = EPSILON if fractional else 0
    breaker_applies = task.is_spot and not fractional
    task_type = task.task_type

    # Within one call ``now``, the eviction histories and the nodes' real
    # HP/spot allocation are fixed: the circuit breaker, Score 2 (Eq. 14)
    # and Score 3 (Eqs. 15-16) are evaluated once per node that can host a
    # pod; only feasibility and Score 1 follow the tentative assignments.
    # A node without eviction history has penalty exactly 0.0.
    calm = eviction_terms(0.0, task) if use_eviction_awareness else (False, 0.0)
    rows = []
    for view in views:
        capacity = view.free_capacity if fractional else view.idle_gpus
        if capacity + slack < need:
            continue
        node = view.node
        if use_eviction_awareness and node.eviction_history:
            broken, s3 = eviction_terms(eviction_penalty(node, now, config), task)
        else:
            broken, s3 = calm
        if broken and breaker_applies:
            continue
        total = node.num_gpus
        s2 = node.allocated_gpus_by_type(task_type) / total if use_colocation and total > 0 else 0.0
        rows.append([capacity, total, s2, s3, node.node_id])

    placements: List[PodPlacement] = []
    for _ in range(task.num_pods):
        chosen = chosen_key = None
        for row in rows:
            capacity, total, s2, s3, node_id = row
            if capacity + slack < need:
                continue
            # Score 1 (Eq. 13): fewer idle GPUs rank higher.
            key = (1.0 - capacity / total if total > 0 else 0.0, s2, s3, node_id)
            if chosen is None or key > chosen_key:
                chosen, chosen_key = row, key
        if chosen is None:
            return None
        chosen[0] -= need
        placements.append(PodPlacement(node_id=chosen[4], gpu_indices=(), fraction=gpus_per_pod))
    return placements

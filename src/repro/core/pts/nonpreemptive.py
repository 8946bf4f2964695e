"""Non-preemptive scheduling (Algorithm 1).

Pods are placed one at a time.  For every pod the candidate set is filtered
by resource feasibility (and, for spot tasks, by the eviction circuit
breaker), then ranked by the lexicographic score tuple
``<Score1, Score2, Score3>``; the top node receives the pod.  If any pod
cannot be placed the whole task fails (gang semantics) and no state is
mutated — the simulator only materialises returned decisions.

With a :class:`~repro.schedulers.placement.PlacementContext` the candidate
set comes from the cluster's capacity index (only nodes that can host at
least one pod right now) instead of a scan over every model-compatible
node; a node that cannot host a pod at pass time can never become feasible
during the task's own greedy loop, so the restriction is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...cluster import Node, PodPlacement, Task
from ...schedulers.placement import NodeView, PlacementContext
from .scoring import ScoringConfig, packing_score, static_scores


def non_preemptive_placement(
    task: Task,
    nodes: Optional[Sequence[Node]],
    now: float,
    config: ScoringConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
    views: Optional[Dict[str, NodeView]] = None,
    ctx: Optional[PlacementContext] = None,
) -> Optional[List[PodPlacement]]:
    """Algorithm 1: place every pod of ``task`` without preempting anyone.

    Pass either ``nodes`` (index-free scan, used by direct callers and
    tests) or ``ctx`` (capacity-indexed candidates and shared views).
    """
    if ctx is not None:
        view_map = ctx.clone_views(ctx.view_fit_candidates(task))
    else:
        candidates = [
            n for n in (nodes or ()) if task.gpu_model is None or n.gpu_model is task.gpu_model
        ]
        if not candidates:
            return None
        if views is None:
            view_map = {n.node_id: NodeView.from_node(n) for n in candidates}
        else:
            view_map = {
                n.node_id: views[n.node_id].clone() for n in candidates if n.node_id in views
            }
    if not view_map:
        return None

    # Within one call ``now``, the eviction histories and the nodes' real
    # HP/spot allocation are fixed: the circuit breaker, Score 2 and Score 3
    # are evaluated once per node, the first time it can host a pod; only
    # feasibility and Score 1 follow the tentative assignments.
    whole_gpu_pods = task.gpus_per_pod >= 1.0
    breaker_applies = task.is_spot and whole_gpu_pods
    static: Dict[str, Tuple[bool, float, float]] = {}
    placements: List[PodPlacement] = []
    for _ in range(task.num_pods):
        chosen: Optional[NodeView] = None
        chosen_key = None
        for node_id, view in view_map.items():
            if not view.can_fit_pod(task.gpus_per_pod):
                continue
            node = view.node
            scores = static.get(node_id)
            if scores is None:
                scores = static[node_id] = static_scores(
                    node, task, now, config, use_colocation, use_eviction_awareness
                )
            broken, s2, s3 = scores
            if broken and breaker_applies:
                continue
            s1 = packing_score(node, view.idle_gpus if whole_gpu_pods else view.free_capacity)
            key = (s1, s2, s3, node_id)
            if chosen is None or key > chosen_key:
                chosen, chosen_key = view, key
        if chosen is None:
            return None
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements

"""Preemptive scheduling (Algorithm 2).

When an HP task cannot be placed without displacing anyone, the scheduler
evaluates, per candidate node, the cheapest set of spot tasks whose
eviction frees enough GPUs for one pod, and places pods on the nodes with
the lowest preemption cost (Eq. 19):

    cost(n_k) = (F + |T_k|) / (G + F + |T_k|)
              + beta * sum(waste(T_k)) / (total GPU-seconds)

where ``G``/``F`` are the historical numbers of successful/evicted spot
runs, ``|T_k|`` the number of tasks preempted on the node, and waste is the
un-checkpointed GPU-time lost by each victim (Eq. 17).

The candidate set comes from the
:class:`~repro.schedulers.placement.PlacementContext`: the union of
currently feasible nodes and nodes holding spot capacity — any other node
can never receive a pod, with or without preemption — enumerated in
canonical cluster order so victim choices (and the GFS-p random draw
sequence) match the pre-refactor full scan exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...cluster import Cluster, Node, PodPlacement, Task
from ...cluster.gpu import EPSILON, is_fractional_pod
from ...schedulers.placement import (
    NodeView,
    PlacementContext,
    freed_by_preempting,
    spot_tasks_on_node,
    virtually_preempt_task,
    writable_view,
)


@dataclass
class PreemptionCandidate:
    """A node together with the spot tasks that would be evicted on it."""

    node: Node
    victims: List[Task]
    cost: float


def node_preemption_plan(
    node: Node,
    view: NodeView,
    task: Task,
    cluster: Cluster,
    now: float,
    already_victims: Set[str],
) -> Optional[List[Task]]:
    """Smallest-waste victim set freeing one pod of ``task`` on ``node``.

    The paper sorts candidates by descending waste and removes the most
    wasteful tasks from the preemption set while the pod still fits; this
    is equivalent to greedily adding victims in ascending-waste order until
    the pod fits, which is what this function does.  ``view`` is only read.
    """
    gpus_per_pod = task.gpus_per_pod
    if view.can_fit_pod(gpus_per_pod):
        return []
    # The probe is two numbers: what ``view`` has plus what the victims free.
    fractional = is_fractional_pod(gpus_per_pod)
    cards_needed = int(round(gpus_per_pod))
    idle, free = view.idle_gpus, view.free_capacity
    # Most nodes cannot host the pod even with every spot task gone, and
    # idle cards are integers, so that is settled exactly before any waste
    # is computed or sorted.
    candidates = []
    reclaimable = idle
    for t in spot_tasks_on_node(node, cluster):
        if t.task_id not in already_victims and t.task_id not in view.preempted:
            freed = freed_by_preempting(t, node)
            reclaimable += freed[0]
            candidates.append((t, freed))
    if not fractional and reclaimable < cards_needed:
        return None
    candidates.sort(key=lambda c: c[0].preemption_waste(now))
    victims: List[Task] = []
    for candidate, (whole, gpus_here) in candidates:
        idle += whole
        free += gpus_here
        victims.append(candidate)
        if (free + EPSILON >= gpus_per_pod) if fractional else (idle >= cards_needed):
            return victims
    return None


def preemption_cost(
    victims: Sequence[Task],
    cluster: Cluster,
    now: float,
    beta: float,
    total_gpu_seconds: float,
) -> float:
    """Eq. (19): eviction-rate impact plus usage impact of a victim set."""
    successes = cluster.successful_spot_runs
    failures = cluster.evicted_spot_runs
    k = len(victims)
    eviction_impact = (failures + k) / max(1.0, successes + failures + k)
    waste = sum(t.preemption_waste(now) for t in victims)
    usage_impact = beta * waste / max(1.0, total_gpu_seconds)
    return eviction_impact + usage_impact


def preemptive_placement(
    task: Task,
    ctx: PlacementContext,
    cluster: Cluster,
    now: float,
    beta: float,
    total_gpu_seconds: float,
    random_selection: bool = False,
    rng: Optional[random.Random] = None,
) -> Optional[Tuple[List[PodPlacement], List[str]]]:
    """Algorithm 2: place every pod of an HP task, evicting cheap spot tasks.

    Returns ``(placements, victim task ids)`` or ``None`` when even full
    preemption cannot satisfy the task.  With ``random_selection`` the
    cost model is ignored and victims/nodes are picked at random (the
    GFS-p ablation).  Candidates and the shared views they are read from
    come from ``ctx``.
    """
    if not task.is_hp:
        raise ValueError("preemptive scheduling is reserved for HP tasks")
    candidates = ctx.preemption_candidates(task)
    views = {n.node_id: ctx.base_view(n) for n in candidates}
    if not candidates:
        return None
    rng = rng or random.Random(0)
    placements: List[PodPlacement] = []
    all_victims: List[Task] = []
    victim_ids: Set[str] = set()
    owned: Set[str] = set()  # ids of the views copied so far (copy on first write)
    # A node's plan follows from its view and the victims taken on it, so after
    # the first pod only the nodes the previous pod wrote to are planned again.
    plans: Dict[str, PreemptionCandidate] = {}
    stale: Sequence[Node] = candidates

    for _ in range(task.num_pods):
        for node in stale:
            victims = node_preemption_plan(
                node, views[node.node_id], task, cluster, now, victim_ids
            )
            if victims is None:
                plans.pop(node.node_id, None)
                continue
            cost = preemption_cost(victims, cluster, now, beta, total_gpu_seconds)
            plans[node.node_id] = PreemptionCandidate(node=node, victims=victims, cost=cost)
        if not plans:
            return None
        if random_selection:
            chosen = rng.choice([plans[n.node_id] for n in candidates if n.node_id in plans])
        else:
            chosen = min(plans.values(), key=lambda p: (p.cost, p.node.node_id))
        written = {chosen.node.node_id}
        for victim in chosen.victims:
            written |= virtually_preempt_task(views, owned, victim)
            victim_ids.add(victim.task_id)
            all_victims.append(victim)
        writable_view(views, owned, chosen.node.node_id).assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
        stale = [n for n in candidates if n.node_id in written]
    return placements, [t.task_id for t in all_victims]

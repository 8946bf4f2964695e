"""Frozen pre-refactor placement search (linear scans, per-task views).

Verbatim copy of ``src/repro/schedulers/placement.py`` and the PTS
placement algorithms as of PR 3, kept as the reference implementation the
parity harness runs against.  Do not "fix" or optimise this module — its
whole value is staying byte-for-byte equivalent to the old behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster import Cluster, Node, PodPlacement, Task
from repro.cluster.gpu import EPSILON
from repro.core.config import GFSConfig
from repro.core.pts.scoring import circuit_breaker_active, score_tuple

NodeScore = Callable[[Node, "LegacyNodeView", Task], float]


@dataclass
class LegacyNodeView:
    """Pre-refactor ``NodeView`` (identical semantics, frozen copy)."""

    node: Node
    idle_gpus: int = 0
    free_capacity: float = 0.0
    reclaimed_gpus: float = 0.0
    preempted: Set[str] = field(default_factory=set)
    assigned_pods: int = 0

    @classmethod
    def from_node(cls, node: Node) -> "LegacyNodeView":
        return cls(node=node, idle_gpus=node.idle_gpus, free_capacity=node.free_capacity)

    def can_fit_pod(self, gpus_per_pod: float) -> bool:
        if gpus_per_pod < 1.0 - EPSILON:
            return self.free_capacity + EPSILON >= gpus_per_pod
        return self.idle_gpus >= int(round(gpus_per_pod))

    def assign_pod(self, gpus_per_pod: float) -> None:
        if not self.can_fit_pod(gpus_per_pod):
            raise ValueError("pod does not fit in node view")
        if gpus_per_pod < 1.0 - EPSILON:
            self.free_capacity -= gpus_per_pod
        else:
            whole = int(round(gpus_per_pod))
            self.idle_gpus -= whole
            self.free_capacity -= whole
        self.assigned_pods += 1

    def clone(self) -> "LegacyNodeView":
        return LegacyNodeView(
            node=self.node,
            idle_gpus=self.idle_gpus,
            free_capacity=self.free_capacity,
            reclaimed_gpus=self.reclaimed_gpus,
            preempted=set(self.preempted),
            assigned_pods=self.assigned_pods,
        )

    def virtually_preempt(self, task: Task) -> None:
        gpus_here = sum(
            fraction for _, fraction in self.node.task_shares.get(task.task_id, [])
        )
        whole = int(round(gpus_here)) if gpus_here >= 1.0 - EPSILON else 0
        self.idle_gpus += whole
        self.free_capacity += gpus_here
        self.reclaimed_gpus += gpus_here
        self.preempted.add(task.task_id)


def legacy_filter_nodes(task: Task, nodes: Iterable[Node]) -> List[Node]:
    return [
        n
        for n in nodes
        if task.gpu_model is None or n.gpu_model is task.gpu_model
    ]


def legacy_spot_tasks_on_node(node: Node, cluster) -> List[Task]:
    tasks = []
    for task_id in node.running_task_ids():
        task = cluster.running_tasks.get(task_id)
        if task is not None and task.is_spot:
            tasks.append(task)
    return tasks


def legacy_gpus_held_on_node(task: Task, node: Node) -> float:
    return sum(fraction for _, fraction in node.task_shares.get(task.task_id, []))


def legacy_virtually_preempt_task(views: Dict[str, LegacyNodeView], task: Task) -> None:
    seen_nodes = set()
    for pod in task.placements:
        if pod.node_id in seen_nodes:
            continue
        seen_nodes.add(pod.node_id)
        view = views.get(pod.node_id)
        if view is not None and task.task_id not in view.preempted:
            view.virtually_preempt(task)


def legacy_find_placement(
    task: Task,
    nodes: Sequence[Node],
    score: Optional[NodeScore] = None,
    views: Optional[Dict[str, LegacyNodeView]] = None,
) -> Optional[List[PodPlacement]]:
    """The pre-refactor greedy search: rescan every model-compatible node."""
    candidates = legacy_filter_nodes(task, nodes)
    if not candidates:
        return None
    if views is None:
        view_map: Dict[str, LegacyNodeView] = {
            n.node_id: LegacyNodeView.from_node(n)
            for n in candidates
            if n.can_fit_pod(task.gpus_per_pod)
        }
    else:
        view_map = {
            n.node_id: views[n.node_id].clone()
            for n in candidates
            if n.node_id in views and views[n.node_id].can_fit_pod(task.gpus_per_pod)
        }
    if not view_map:
        return None
    if sum(v.free_capacity for v in view_map.values()) + EPSILON < task.total_gpus:
        return None
    placements: List[PodPlacement] = []
    for _ in range(task.num_pods):
        feasible = [
            v for v in view_map.values() if v.can_fit_pod(task.gpus_per_pod)
        ]
        if not feasible:
            return None
        if score is None:
            chosen = min(feasible, key=lambda v: (v.free_capacity, v.node.node_id))
        else:
            chosen = max(
                feasible,
                key=lambda v: (score(v.node, v, task), v.node.node_id),
            )
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


# ----------------------------------------------------------------------
# PTS Algorithm 1 (non-preemptive), frozen
# ----------------------------------------------------------------------
def legacy_non_preemptive_placement(
    task: Task,
    nodes: Sequence[Node],
    now: float,
    config: GFSConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
    views: Optional[Dict[str, LegacyNodeView]] = None,
) -> Optional[List[PodPlacement]]:
    candidates = [
        n for n in nodes if task.gpu_model is None or n.gpu_model is task.gpu_model
    ]
    if not candidates:
        return None
    if views is None:
        view_map = {n.node_id: LegacyNodeView.from_node(n) for n in candidates}
    else:
        view_map = {
            n.node_id: views[n.node_id].clone() for n in candidates if n.node_id in views
        }

    placements: List[PodPlacement] = []
    for _ in range(task.num_pods):
        feasible: List[LegacyNodeView] = []
        for view in view_map.values():
            if not view.can_fit_pod(task.gpus_per_pod):
                continue
            if (
                task.is_spot
                and use_eviction_awareness
                and task.gpus_per_pod >= 1.0
                and circuit_breaker_active(view.node, now, config)
            ):
                continue
            feasible.append(view)
        if not feasible:
            return None
        chosen = max(
            feasible,
            key=lambda v: (
                score_tuple(
                    v.node,
                    v.idle_gpus if task.gpus_per_pod >= 1.0 else v.free_capacity,
                    task,
                    now,
                    config,
                    use_colocation=use_colocation,
                    use_eviction_awareness=use_eviction_awareness,
                ),
                v.node.node_id,
            ),
        )
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


# ----------------------------------------------------------------------
# PTS Algorithm 2 (preemptive), frozen
# ----------------------------------------------------------------------
@dataclass
class LegacyPreemptionCandidate:
    node: Node
    victims: List[Task]
    cost: float


def legacy_node_preemption_plan(
    node: Node,
    view: LegacyNodeView,
    task: Task,
    cluster: Cluster,
    now: float,
    already_victims: Set[str],
) -> Optional[List[Task]]:
    if view.can_fit_pod(task.gpus_per_pod):
        return []
    victims: List[Task] = []
    candidates = [
        t
        for t in legacy_spot_tasks_on_node(node, cluster)
        if t.task_id not in already_victims and t.task_id not in view.preempted
    ]
    candidates.sort(key=lambda t: t.preemption_waste(now))
    probe = view.clone()
    for candidate in candidates:
        probe.virtually_preempt(candidate)
        victims.append(candidate)
        if probe.can_fit_pod(task.gpus_per_pod):
            return victims
    return None


def legacy_preemption_cost(
    victims: Sequence[Task],
    cluster: Cluster,
    now: float,
    beta: float,
    total_gpu_seconds: float,
) -> float:
    successes = cluster.successful_spot_runs
    failures = cluster.evicted_spot_runs
    k = len(victims)
    eviction_impact = (failures + k) / max(1.0, successes + failures + k)
    waste = sum(t.preemption_waste(now) for t in victims)
    usage_impact = beta * waste / max(1.0, total_gpu_seconds)
    return eviction_impact + usage_impact


def legacy_preemptive_placement(
    task: Task,
    nodes: Sequence[Node],
    cluster: Cluster,
    now: float,
    beta: float,
    total_gpu_seconds: float,
    random_selection: bool = False,
    rng: Optional[random.Random] = None,
) -> Optional[Tuple[List[PodPlacement], List[str]]]:
    if not task.is_hp:
        raise ValueError("preemptive scheduling is reserved for HP tasks")
    candidates = [
        n for n in nodes if task.gpu_model is None or n.gpu_model is task.gpu_model
    ]
    if not candidates:
        return None
    rng = rng or random.Random(0)
    views = {n.node_id: LegacyNodeView.from_node(n) for n in candidates}
    placements: List[PodPlacement] = []
    all_victims: List[Task] = []
    victim_ids: Set[str] = set()

    for _ in range(task.num_pods):
        plans: List[LegacyPreemptionCandidate] = []
        for node in candidates:
            view = views[node.node_id]
            victims = legacy_node_preemption_plan(node, view, task, cluster, now, victim_ids)
            if victims is None:
                continue
            cost = legacy_preemption_cost(victims, cluster, now, beta, total_gpu_seconds)
            plans.append(LegacyPreemptionCandidate(node=node, victims=victims, cost=cost))
        if not plans:
            return None
        if random_selection:
            chosen = rng.choice(plans)
        else:
            chosen = min(plans, key=lambda p: (p.cost, p.node.node_id))
        view = views[chosen.node.node_id]
        for victim in chosen.victims:
            for pod in victim.placements:
                victim_view = views.get(pod.node_id)
                if victim_view is not None and victim.task_id not in victim_view.preempted:
                    victim_view.virtually_preempt(victim)
            victim_ids.add(victim.task_id)
            all_victims.append(victim)
        view.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements, [t.task_id for t in all_victims]

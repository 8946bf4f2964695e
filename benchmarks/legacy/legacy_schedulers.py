"""Scheduler variants wired to the frozen pre-refactor placement search.

Each class subclasses the production scheduler and overrides only
``try_schedule`` (and the preemption helpers it calls) with the exact
pre-refactor implementation from ``legacy_placement``.  Queue ordering,
quota plumbing, notification hooks and configuration stay the production
code, so any metrics difference between a legacy scheduler and its
production counterpart isolates the placement-search refactor.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import Cluster, Node, SchedulingDecision, Task
from repro.core.gfs import ABLATION_OVERRIDES, GFSConfig, GFSScheduler
from repro.schedulers import (
    ChronusScheduler,
    FGDScheduler,
    LyraScheduler,
    YarnCSScheduler,
    best_fit_score,
    fgd_score,
)

from .legacy_placement import (
    LegacyNodeView,
    legacy_filter_nodes,
    legacy_find_placement,
    legacy_gpus_held_on_node,
    legacy_non_preemptive_placement,
    legacy_preemptive_placement,
    legacy_spot_tasks_on_node,
    legacy_virtually_preempt_task,
)


def _wrap_score(score):
    """Adapt a production score function to the legacy view type.

    Production scores take ``(node, view, task)`` and only read
    ``view.free_capacity`` / ``view.idle_gpus``, which the legacy view
    exposes identically, so they pass straight through.
    """
    return score


class LegacyChronusScheduler(ChronusScheduler):
    name = "Chronus(legacy)"

    def try_schedule(self, task: Task, cluster: Cluster, now: float) -> Optional[SchedulingDecision]:
        nodes = legacy_filter_nodes(task, cluster.nodes)
        lease = self.hp_lease if task.is_hp else self.spot_lease
        delay = self._lease_alignment_delay(now, lease)
        placements = legacy_find_placement(task, nodes, score=_wrap_score(best_fit_score))
        if placements is None:
            return None
        return SchedulingDecision(placements=placements, start_delay=delay)


class LegacyYarnCSScheduler(YarnCSScheduler):
    name = "YARN-CS(legacy)"

    def try_schedule(self, task: Task, cluster: Cluster, now: float) -> Optional[SchedulingDecision]:
        nodes = legacy_filter_nodes(task, cluster.nodes)
        placements = legacy_find_placement(task, nodes, score=_wrap_score(best_fit_score))
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if task.is_hp:
            return self._legacy_preemptive_schedule(task, cluster, nodes, now)
        return None

    def _legacy_preemptive_schedule(
        self, task: Task, cluster: Cluster, nodes: List[Node], now: float
    ) -> Optional[SchedulingDecision]:
        views = {n.node_id: LegacyNodeView.from_node(n) for n in nodes}
        victims: List[str] = []
        spot_nodes = sorted(
            (n for n in nodes if n.spot_gpus > 0),
            key=lambda n: -n.spot_gpus,
        )
        for node in spot_nodes:
            candidates = sorted(
                legacy_spot_tasks_on_node(node, cluster),
                key=lambda t: -(t.run_logs[-1].start if t.run_logs else 0.0),
            )
            for victim in candidates:
                if victim.task_id in victims:
                    continue
                legacy_virtually_preempt_task(views, victim)
                victims.append(victim.task_id)
                placements = legacy_find_placement(
                    task, nodes, score=_wrap_score(best_fit_score), views=views
                )
                if placements is not None:
                    used_nodes = {p.node_id for p in placements}
                    needed = [
                        vid
                        for vid in victims
                        if any(
                            legacy_gpus_held_on_node(cluster.running_tasks[vid], cluster.node(nid)) > 0
                            for nid in used_nodes
                        )
                    ]
                    return SchedulingDecision(placements=placements, preempted_task_ids=needed or victims)
        return None


class LegacyFGDScheduler(FGDScheduler):
    name = "FGD(legacy)"

    def try_schedule(self, task: Task, cluster: Cluster, now: float) -> Optional[SchedulingDecision]:
        nodes = legacy_filter_nodes(task, cluster.nodes)
        placements = legacy_find_placement(task, nodes, score=_wrap_score(fgd_score))
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if task.is_hp:
            return self._legacy_preempt_for_fragmentation(task, cluster, nodes, now)
        return None

    def _legacy_preempt_for_fragmentation(
        self, task: Task, cluster: Cluster, nodes: List[Node], now: float
    ) -> Optional[SchedulingDecision]:
        views = {n.node_id: LegacyNodeView.from_node(n) for n in nodes}

        def node_rank(node: Node) -> float:
            reclaimable = node.spot_gpus + node.free_capacity
            overshoot = reclaimable - task.gpus_per_pod
            return overshoot if overshoot >= 0 else float("inf")

        victims: List[str] = []
        for node in sorted((n for n in nodes if n.spot_gpus > 0), key=node_rank):
            for spot in legacy_spot_tasks_on_node(node, cluster):
                if spot.task_id in victims:
                    continue
                legacy_virtually_preempt_task(views, spot)
                victims.append(spot.task_id)
                placements = legacy_find_placement(
                    task, nodes, score=_wrap_score(fgd_score), views=views
                )
                if placements is not None:
                    used_nodes = {p.node_id for p in placements}
                    needed = []
                    for vid in victims:
                        victim = cluster.running_tasks[vid]
                        if any(p.node_id in used_nodes for p in victim.placements):
                            needed.append(vid)
                    return SchedulingDecision(
                        placements=placements, preempted_task_ids=needed or victims
                    )
        return None


class LegacyLyraScheduler(LyraScheduler):
    name = "Lyra(legacy)"

    def try_schedule(self, task: Task, cluster: Cluster, now: float) -> Optional[SchedulingDecision]:
        if task.is_spot:
            return self._legacy_schedule_spot(task, cluster)
        return self._legacy_schedule_hp(task, cluster, legacy_filter_nodes(task, cluster.nodes), now)

    def _legacy_schedule_spot(self, task: Task, cluster: Cluster) -> Optional[SchedulingDecision]:
        reserve = self.capacity_reserve * cluster.total_gpus(task.gpu_model)
        if cluster.idle_gpus(task.gpu_model) - task.total_gpus < reserve:
            return None
        nodes = legacy_filter_nodes(task, cluster.nodes)
        loaned = [n for n in nodes if n.hp_gpus == 0]
        placements = legacy_find_placement(task, loaned, score=_wrap_score(best_fit_score))
        if placements is None:
            return None
        return SchedulingDecision(placements=placements)

    def _legacy_schedule_hp(
        self, task: Task, cluster: Cluster, nodes: List[Node], now: float
    ) -> Optional[SchedulingDecision]:
        def hp_affinity_score(node: Node, view, t: Task) -> float:
            return (0.0 if node.spot_gpus > 0 else 1000.0) - view.free_capacity

        placements = legacy_find_placement(task, nodes, score=hp_affinity_score)
        if placements is not None:
            return SchedulingDecision(placements=placements)

        views = {n.node_id: LegacyNodeView.from_node(n) for n in nodes}
        victims: List[str] = []
        reclaim_order = sorted(
            (n for n in nodes if n.spot_gpus > 0),
            key=lambda n: (len(legacy_spot_tasks_on_node(n, cluster)), -n.spot_gpus),
        )
        for node in reclaim_order:
            for spot in legacy_spot_tasks_on_node(node, cluster):
                if spot.task_id in victims:
                    continue
                legacy_virtually_preempt_task(views, spot)
                victims.append(spot.task_id)
            placements = legacy_find_placement(
                task, nodes, score=hp_affinity_score, views=views
            )
            if placements is not None:
                used_nodes = {p.node_id for p in placements}
                needed = []
                for vid in victims:
                    victim = cluster.running_tasks[vid]
                    if any(p.node_id in used_nodes for p in victim.placements):
                        needed.append(vid)
                return SchedulingDecision(placements=placements, preempted_task_ids=needed or victims)
        return None


class LegacyGFSScheduler(GFSScheduler):
    """GFS with the frozen PTS placement algorithms (quota plumbing intact)."""

    def try_schedule(self, task: Task, cluster: Cluster, now: float) -> Optional[SchedulingDecision]:
        if task.is_spot and self.sqa is not None:
            if not self.sqa.admits(task.total_gpus, cluster.spot_gpus()):
                return None
        decision = self._legacy_pts_schedule(
            task, cluster, now, cluster.total_gpus() * max(1.0, now - self._start_time)
        )
        if decision is not None and task.is_spot:
            task.guaranteed_hours = self.config.guarantee_hours
        return decision

    def _legacy_pts_schedule(
        self, task: Task, cluster: Cluster, now: float, total_gpu_seconds: float
    ) -> Optional[SchedulingDecision]:
        cfg = self.config
        placements = None
        nodes: Optional[List] = None
        if task.total_gpus <= cluster.idle_gpus(task.gpu_model) + 1e-6:
            nodes = cluster.nodes_for_model(task.gpu_model)
            placements = legacy_non_preemptive_placement(
                task,
                nodes,
                now,
                cfg,
                use_colocation=cfg.use_colocation,
                use_eviction_awareness=cfg.use_eviction_awareness,
            )
        if placements is not None:
            return SchedulingDecision(placements=placements)
        if not task.is_hp:
            return None
        if nodes is None:
            nodes = cluster.nodes_for_model(task.gpu_model)
        result = legacy_preemptive_placement(
            task,
            nodes,
            cluster,
            now,
            beta=cfg.beta,
            total_gpu_seconds=total_gpu_seconds,
            random_selection=cfg.random_preemption,
            rng=self._rng,
        )
        if result is None:
            return None
        placements, victim_ids = result
        return SchedulingDecision(placements=placements, preempted_task_ids=victim_ids)


_LEGACY_BASELINES = {
    "chronus": LegacyChronusScheduler,
    "yarn-cs": LegacyYarnCSScheduler,
    "yarn_cs": LegacyYarnCSScheduler,
    "fgd": LegacyFGDScheduler,
    "lyra": LegacyLyraScheduler,
}


def create_legacy_scheduler(name: str, **kwargs):
    """Build the legacy twin of any registered scheduler (incl. GFS variants)."""
    key = name.lower()
    if key in _LEGACY_BASELINES:
        return _LEGACY_BASELINES[key](**kwargs)
    if key in ABLATION_OVERRIDES:
        config = kwargs.pop("config", None) or GFSConfig()
        overrides = dict(ABLATION_OVERRIDES[key])
        merged = GFSConfig(**{**config.__dict__, **overrides})
        scheduler = LegacyGFSScheduler(merged, **kwargs)
        scheduler.name = f"{name.upper()}(legacy)" if key != "gfs" else "GFS(legacy)"
        return scheduler
    raise KeyError(f"no legacy twin for scheduler {name!r}")

"""Shared placement utilities used by every scheduler.

Placement works on *virtual* node views so that a multi-pod (gang) decision
can be evaluated atomically without mutating real cluster state; the
simulator materialises the decision afterwards.

Capacity-indexed search
-----------------------
The hot path is :class:`PlacementContext`, owned by the simulator's
``_schedule_pending`` pass and handed to every ``try_schedule`` call.  It
replaces the pre-refactor per-task work — rebuild a ``NodeView`` for every
model-compatible node, linearly rescan them all — with three mechanisms:

* **Indexed candidates.**  Queries go through the cluster's
  :class:`~repro.cluster.capacity_index.CapacityIndex`, so a search only
  ever touches nodes that can actually host a pod (or donate spot
  capacity, for preemptive searches), and an oversized request is rejected
  in O(1) by the per-model watermarks before any node is looked at.
* **Shared per-pass views, copied on write.**  Base node views are built
  lazily, cached on the context and refreshed only for nodes the cluster
  mutated since the cached copy (placements applied earlier in the same
  pass, evictions).  A search *reads* the bases and clones a view only
  when it assigns a pod to it or virtually preempts on it
  (:func:`writable_view`): one clone per node it changes, not one per
  candidate.  The bases are shared by every task of every pass, so a
  search must never write to one.
* **Failed-shape memo.**  When a search fails, the task's *shape*
  ``(pool, task_type, gpu_model, gpus_per_pod, num_pods)`` is recorded
  together with the index's capacity sequence numbers.  A later task of
  the same shape in the same pass is rejected without a search unless
  free capacity grew in between (or, for preemptive searches, spot-held
  capacity grew — new victims can make a previously impossible
  preemption plan viable).  The memo is cleared at every pass start.

Every placement search goes through the context: the greedy fill behind
:meth:`PlacementContext.find_placement`, and the one eviction sweep
(:meth:`PlacementContext.evict_until_fit`) that YARN-CS, FGD and Lyra
parameterise with a node order, a victim order and a probe cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..cluster import Cluster, Node, PodPlacement, Task, TaskType
from ..cluster.gpu import EPSILON, is_fractional_pod

#: A node-scoring function: higher scores are preferred.
NodeScore = Callable[[Node, "NodeView", Task], float]


@dataclass
class NodeView:
    """A lightweight virtual view of a node during one scheduling decision.

    Tracks idle whole cards and free fractional capacity after tentative pod
    assignments and virtual preemptions, without touching the real node.
    """

    node: Node
    idle_gpus: int = 0
    free_capacity: float = 0.0
    #: ids of spot tasks virtually preempted on this node
    preempted: Set[str] = field(default_factory=set)

    @classmethod
    def from_node(cls, node: Node) -> "NodeView":
        return cls(node=node, idle_gpus=node.idle_gpus, free_capacity=node.free_capacity)

    # ------------------------------------------------------------------
    def can_fit_pod(self, gpus_per_pod: float) -> bool:
        if is_fractional_pod(gpus_per_pod):
            return self.free_capacity + EPSILON >= gpus_per_pod
        return self.idle_gpus >= int(round(gpus_per_pod))

    def assign_pod(self, gpus_per_pod: float) -> None:
        if not self.can_fit_pod(gpus_per_pod):
            raise ValueError("pod does not fit in node view")
        if is_fractional_pod(gpus_per_pod):
            self.free_capacity -= gpus_per_pod
        else:
            whole = int(round(gpus_per_pod))
            self.idle_gpus -= whole
            self.free_capacity -= whole

    def clone(self) -> "NodeView":
        """An independent copy used for trial placements."""
        return NodeView(
            node=self.node,
            idle_gpus=self.idle_gpus,
            free_capacity=self.free_capacity,
            preempted=set(self.preempted),
        )

    def virtually_preempt(self, task: Task) -> None:
        """Free the GPUs a running spot task holds on this node (virtual)."""
        whole, gpus_here = freed_by_preempting(task, self.node)
        self.idle_gpus += whole
        self.free_capacity += gpus_here
        self.preempted.add(task.task_id)


def pod_demand(gpus_per_pod: float) -> Tuple[bool, float, float]:
    """``(fractional, need, slack)``: ``NodeView.can_fit_pod`` worked out once.

    A pod fits while ``capacity + slack >= need``, ``capacity`` being the
    free capacity for a fractional pod and the idle cards otherwise.
    """
    if is_fractional_pod(gpus_per_pod):
        return True, gpus_per_pod, EPSILON
    return False, int(round(gpus_per_pod)), 0


def freed_by_preempting(task: Task, node: Node) -> Tuple[int, float]:
    """``(idle cards, free capacity)`` that evicting ``task`` returns on ``node``."""
    gpus_here = gpus_held_on_node(task, node)
    return (0 if is_fractional_pod(gpus_here) else int(round(gpus_here))), gpus_here


def writable_view(views: Dict[str, NodeView], owned: Set[str], node_id: str) -> NodeView:
    """The search's own copy of ``views[node_id]``, cloned on first write.

    ``views`` holds views the search does not own (the context's shared
    bases, a caller's views) except for the ids in ``owned``.
    """
    view = views[node_id]
    if node_id not in owned:
        view = views[node_id] = view.clone()
        owned.add(node_id)
    return view


# ----------------------------------------------------------------------
# Greedy core shared by the context's search and its eviction sweep
# ----------------------------------------------------------------------
def _cheap_infeasibility(task: Task, view_map: Dict[str, NodeView]) -> bool:
    """O(candidates) necessary-condition gates run before the greedy loop.

    Free-capacity gate for every request; for whole-GPU pods additionally
    gate on idle cards: ``sum(idle_i // k)`` is exactly the number of pods
    the candidate set can host simultaneously, so rejecting on it can
    never exclude a placement the greedy loop would have found.
    """
    if sum(v.free_capacity for v in view_map.values()) + EPSILON < task.total_gpus:
        return True
    if not is_fractional_pod(task.gpus_per_pod):
        whole = int(round(task.gpus_per_pod))
        if whole > 0 and sum(v.idle_gpus // whole for v in view_map.values()) < task.num_pods:
            return True
    return False


def _fitting(view_map: Dict[str, NodeView], gpus_per_pod: float) -> Dict[str, NodeView]:
    """The views one pod fits on: ``NodeView.can_fit_pod``, its test worked out once."""
    fractional, need, slack = pod_demand(gpus_per_pod)
    return {
        node_id: v
        for node_id, v in view_map.items()
        if (v.free_capacity if fractional else v.idle_gpus) + slack >= need
    }


def _greedy_fill(
    task: Task,
    view_map: Dict[str, NodeView],
    score: Optional[NodeScore],
) -> Optional[List[PodPlacement]]:
    """Place every pod greedily onto the best feasible view (gang semantics).

    The views passed in are only read: a view that receives a pod is
    replaced in ``view_map`` by a private clone first.
    """
    placements: List[PodPlacement] = []
    owned: Set[str] = set()
    for _ in range(task.num_pods):
        feasible = _fitting(view_map, task.gpus_per_pod).values()
        if not feasible:
            return None
        if score is None:
            chosen = min(feasible, key=lambda v: (v.free_capacity, v.node.node_id))
        else:
            chosen = max(
                feasible,
                key=lambda v: (score(v.node, v, task), v.node.node_id),
            )
        node_id = chosen.node.node_id
        writable_view(view_map, owned, node_id).assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


# ----------------------------------------------------------------------
# Per-pass placement context
# ----------------------------------------------------------------------
class PlacementContext:
    """Shared placement state for one scheduling pass.

    Owned by the simulator (one instance per simulation, reset with
    :meth:`begin_pass` at every pass) and passed to ``try_schedule``.
    Schedulers call :meth:`find_placement` for index-accelerated greedy
    searches, :meth:`evict_until_fit` when an HP task has to displace spot
    tasks, the candidate helpers for custom searches, and the
    :meth:`infeasible` / :meth:`note_failure` pair to memoise failed
    shapes.  A context built ad hoc over a cluster (``ctx`` defaulted to
    ``None`` in ``try_schedule``) behaves identically, just without
    cross-task reuse.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.index = cluster.capacity_index
        self._views: Dict[str, NodeView] = {}
        self._view_mut: Dict[str, int] = {}
        #: failed shape -> (free_increase_seq, spot_increase_seq or None)
        self._failed: Dict[Tuple, Tuple[int, Optional[int]]] = {}
        # Per-pass observability tallies (reset by begin_pass, read by the
        # simulator's pass record).  Plain int increments — cheap enough to
        # stay unconditional even with the NullRecorder attached.
        self.pass_memo_hits = 0
        self.pass_index_rejects = 0
        self.pass_searches = 0

    # ------------------------------------------------------------------
    # Pass lifecycle
    # ------------------------------------------------------------------
    def begin_pass(self) -> None:
        """Start a new scheduling pass: forget the failed-shape memo.

        Cached base views are kept; they self-refresh against the index's
        per-node mutation stamps.
        """
        self._failed.clear()
        self.pass_memo_hits = 0
        self.pass_index_rejects = 0
        self.pass_searches = 0

    # ------------------------------------------------------------------
    # Shared views
    # ------------------------------------------------------------------
    def base_view(self, node: Node) -> NodeView:
        """The cached view of ``node`` (refreshed lazily): shared, so read-only."""
        node_id = node.node_id
        stamp = self.index.node_mutation(node_id)
        view = self._views.get(node_id)
        if view is None or self._view_mut.get(node_id) != stamp:
            view = NodeView.from_node(node)
            self._views[node_id] = view
            self._view_mut[node_id] = stamp
        return view

    # ------------------------------------------------------------------
    # Candidate enumeration (canonical order, index-backed)
    # ------------------------------------------------------------------
    def fit_candidates(self, task: Task) -> List[Node]:
        """Nodes that can host one pod now (``Node.can_fit_pod`` semantics)."""
        return self.index.node_fit_candidates(task.gpu_model, task.gpus_per_pod)

    def spot_nodes(self, task: Task) -> List[Node]:
        """Nodes holding spot GPUs the task's model could reclaim."""
        return self.index.spot_nodes(task.gpu_model)

    def preemption_candidates(self, task: Task) -> List[Node]:
        """Nodes that could host a pod now or after spot evictions."""
        return self.index.preemption_candidates(task.gpu_model, task.gpus_per_pod)

    # ------------------------------------------------------------------
    # Failed-shape memo
    # ------------------------------------------------------------------
    def _shape_key(self, task: Task, pool: str) -> Tuple:
        return (pool, task.task_type, task.gpu_model, task.gpus_per_pod, task.num_pods)

    def infeasible(self, task: Task, pool: str, track_spot: bool = False) -> bool:
        """Whether this shape already failed this pass against unchanged capacity.

        ``track_spot`` marks preemptive searches, which must additionally
        be retried when spot-held capacity grew (freshly placed spot tasks
        are new preemption victims).
        """
        key = self._shape_key(task, pool)
        entry = self._failed.get(key)
        if entry is None:
            return False
        free_seq, spot_seq = entry
        if free_seq != self.index.free_increase_seq:
            del self._failed[key]
            return False
        if track_spot and spot_seq != self.index.spot_increase_seq:
            del self._failed[key]
            return False
        self.pass_memo_hits += 1
        return True

    def note_failure(self, task: Task, pool: str, track_spot: bool = False) -> None:
        """Record a failed search for this shape (see :meth:`infeasible`)."""
        self._failed[self._shape_key(task, pool)] = (
            self.index.free_increase_seq,
            self.index.spot_increase_seq if track_spot else None,
        )

    # ------------------------------------------------------------------
    # Index-accelerated greedy search
    # ------------------------------------------------------------------
    def find_placement(
        self,
        task: Task,
        score: Optional[NodeScore] = None,
        pool: str = "default",
        candidates: Optional[Sequence[Node]] = None,
        memo: bool = True,
    ) -> Optional[List[PodPlacement]]:
        """Greedy pod-by-pod placement over the indexed fit candidates.

        Pods are placed one at a time onto the feasible node with the
        highest ``score`` (best fit when ``None``; ties broken by node id
        for determinism).  All pods must be placed, otherwise ``None`` is
        returned (gang semantics).  ``candidates`` restricts the search to
        a subset of the indexed fit set (e.g. Lyra's loaned nodes);
        distinct call sites of one scheduler must use distinct ``pool``
        tags so the failed-shape memo never conflates searches with
        different node pools or scores.
        """
        if memo and self.infeasible(task, pool):
            return None
        if candidates is None:
            candidates = self.fit_candidates(task)
        placements: Optional[List[PodPlacement]] = None
        if candidates:
            view_map = {n.node_id: self.base_view(n) for n in candidates}
            if not _cheap_infeasibility(task, view_map):
                self.pass_searches += 1
                placements = _greedy_fill(task, view_map, score)
            else:
                self.pass_index_rejects += 1
        else:
            self.pass_index_rejects += 1
        if placements is None and memo:
            self.note_failure(task, pool)
        return placements

    # ------------------------------------------------------------------
    # The eviction sweep (YARN-CS, FGD, Lyra)
    # ------------------------------------------------------------------
    def evict_until_fit(
        self,
        task: Task,
        cluster: Cluster,
        score: Optional[NodeScore],
        pool: str,
        node_order: Callable[[Node], object],
        victim_order: Optional[Callable[[Task], object]] = None,
        probe_per_victim: bool = True,
    ) -> Optional[Tuple[List[PodPlacement], List[str]]]:
        """Virtually evict spot tasks, node by node, until ``task`` fits.

        Spot nodes are visited in ``sorted(key=node_order)``, the spot
        tasks on each in residency order or ``sorted(key=victim_order)``;
        after every victim (or every node, with ``probe_per_victim`` off)
        the greedy fill is tried over the views that now fit a pod.
        Returns ``(placements, victim ids)`` — only the victims holding a
        pod on a node the task uses, all of them if none does — or ``None``
        after noting the failed shape under ``pool``.  Only nodes that fit
        now or hold reclaimable spot capacity can ever receive a pod, so
        restricting the views to them is exact.
        """
        if self.infeasible(task, pool, track_spot=True):
            return None
        views = {n.node_id: self.base_view(n) for n in self.preemption_candidates(task)}
        owned: Set[str] = set()
        victims: Dict[str, Task] = {}

        def probe() -> Optional[Tuple[List[PodPlacement], List[str]]]:
            fitting = _fitting(views, task.gpus_per_pod)
            if not fitting or _cheap_infeasibility(task, fitting):
                return None
            placements = _greedy_fill(task, fitting, score)
            if placements is None:
                return None
            used = {p.node_id for p in placements}
            needed = [
                vid for vid, v in victims.items() if any(p.node_id in used for p in v.placements)
            ]
            return placements, needed or list(victims)

        for node in sorted(self.spot_nodes(task), key=node_order):
            residents = spot_tasks_on_node(node, cluster)
            if victim_order is not None:
                residents.sort(key=victim_order)
            for victim in residents:
                if victim.task_id in victims:
                    continue
                victims[victim.task_id] = victim
                virtually_preempt_task(views, owned, victim)
                if probe_per_victim and (found := probe()) is not None:
                    return found
            if not probe_per_victim and (found := probe()) is not None:
                return found
        self.note_failure(task, pool, track_spot=True)
        return None


def virtually_preempt_task(views: Dict[str, NodeView], owned: Set[str], task: Task) -> Set[str]:
    """Free ``task`` on every node in ``views`` it occupies (copy on first write).

    Whole-task semantics: a victim spanning several nodes is gone from all
    of them, so later pods see the reclaimed capacity.  Returns the ids of
    the nodes written to.
    """
    written: Set[str] = set()
    for pod in task.placements:
        view = views.get(pod.node_id)
        if view is not None and task.task_id not in view.preempted:
            writable_view(views, owned, pod.node_id).virtually_preempt(task)
            written.add(pod.node_id)
    return written


def spot_tasks_on_node(node: Node, cluster) -> List[Task]:
    """Running spot tasks that hold GPUs on ``node``."""
    running = cluster.running_tasks
    tasks = []
    for task_id in node.task_shares:
        task = running.get(task_id)
        if task is not None and task.task_type is TaskType.SPOT:
            tasks.append(task)
    return tasks


def gpus_held_on_node(task: Task, node: Node) -> float:
    """How many GPUs ``task`` holds on ``node``."""
    held = 0
    for _, fraction in node.task_shares.get(task.task_id, ()):
        held += fraction
    return held

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

The free functions (:func:`find_placement`, :func:`filter_nodes`, …) keep
their pre-refactor signatures and behaviour for direct callers and tests;
schedulers route through the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    #: GPUs freed by virtually preempting spot tasks on this node
    reclaimed_gpus: float = 0.0
    #: ids of spot tasks virtually preempted on this node
    preempted: Set[str] = field(default_factory=set)
    assigned_pods: int = 0

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
        self.assigned_pods += 1

    def clone(self) -> "NodeView":
        """An independent copy used for trial placements."""
        return NodeView(
            node=self.node,
            idle_gpus=self.idle_gpus,
            free_capacity=self.free_capacity,
            reclaimed_gpus=self.reclaimed_gpus,
            preempted=set(self.preempted),
            assigned_pods=self.assigned_pods,
        )

    def virtually_preempt(self, task: Task) -> None:
        """Free the GPUs a running spot task holds on this node (virtual)."""
        whole, gpus_here = freed_by_preempting(task, self.node)
        self.idle_gpus += whole
        self.free_capacity += gpus_here
        self.reclaimed_gpus += gpus_here
        self.preempted.add(task.task_id)


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


def build_views(nodes: Iterable[Node]) -> List[NodeView]:
    return [NodeView.from_node(n) for n in nodes]


def filter_nodes(task: Task, nodes: Iterable[Node]) -> List[Node]:
    """Online nodes compatible with the task's GPU-model requirement.

    Offline nodes (failed/drained/reclaimed by cluster dynamics) are never
    placement candidates; the capacity index excludes them on the indexed
    path, and this filter does the same for direct linear searches.
    """
    return [
        n
        for n in nodes
        if n.available and (task.gpu_model is None or n.gpu_model is task.gpu_model)
    ]


# ----------------------------------------------------------------------
# Greedy core shared by the free function and the context
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
        node_id = chosen.node.node_id
        writable_view(view_map, owned, node_id).assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


def find_placement(
    task: Task,
    nodes: Sequence[Node],
    score: Optional[NodeScore] = None,
    views: Optional[Dict[str, NodeView]] = None,
) -> Optional[List[PodPlacement]]:
    """Greedy pod-by-pod placement of ``task`` onto ``nodes``.

    Pods are placed one at a time onto the feasible node with the highest
    score (ties broken by node id for determinism).  All pods must be
    placed, otherwise ``None`` is returned (gang semantics).

    This is the index-free entry point: it linearly filters ``nodes``.
    Schedulers running inside a simulation use
    :meth:`PlacementContext.find_placement`, which enumerates candidates
    through the cluster's capacity index instead.
    """
    candidates = filter_nodes(task, nodes)
    if not candidates:
        return None
    if views is None:
        view_map: Dict[str, NodeView] = {
            n.node_id: NodeView.from_node(n)
            for n in candidates
            if n.can_fit_pod(task.gpus_per_pod)
        }
    else:
        # The caller's views are only read: the greedy fill copies what it
        # assigns to.  Only nodes that could host a pod are worth a look.
        view_map = {
            n.node_id: views[n.node_id]
            for n in candidates
            if n.node_id in views and views[n.node_id].can_fit_pod(task.gpus_per_pod)
        }
    if not view_map:
        return None
    if _cheap_infeasibility(task, view_map):
        return None
    return _greedy_fill(task, view_map, score)


# ----------------------------------------------------------------------
# Per-pass placement context
# ----------------------------------------------------------------------
class PlacementContext:
    """Shared placement state for one scheduling pass.

    Owned by the simulator (one instance per simulation, reset with
    :meth:`begin_pass` at every pass) and passed to ``try_schedule``.
    Schedulers call :meth:`find_placement` for index-accelerated greedy
    searches, the candidate helpers for custom searches, and the
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

    def clone_views(self, nodes: Iterable[Node]) -> Dict[str, NodeView]:
        """Task-local clones of the base views, for sweeps that write to most."""
        return {n.node_id: self.base_view(n).clone() for n in nodes}

    # ------------------------------------------------------------------
    # Candidate enumeration (canonical order, index-backed)
    # ------------------------------------------------------------------
    def fit_candidates(self, task: Task) -> List[Node]:
        """Nodes that can host one pod now (``Node.can_fit_pod`` semantics)."""
        return self.index.node_fit_candidates(task.gpu_model, task.gpus_per_pod)

    def view_fit_candidates(self, task: Task) -> List[Node]:
        """Nodes that can host one pod now (``NodeView`` aggregate semantics)."""
        return self.index.view_fit_candidates(task.gpu_model, task.gpus_per_pod)

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
        """Indexed equivalent of :func:`find_placement` over the whole cluster.

        ``candidates`` restricts the search to a subset of the indexed fit
        set (e.g. Lyra's loaned nodes); distinct call sites of one
        scheduler must use distinct ``pool`` tags so the failed-shape memo
        never conflates searches with different node pools or scores.
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


def virtually_preempt_task(views: Dict[str, NodeView], task: Task) -> None:
    """Virtually evict ``task`` from every node it occupies (whole-task semantics)."""
    seen_nodes = set()
    for pod in task.placements:
        if pod.node_id in seen_nodes:
            continue
        seen_nodes.add(pod.node_id)
        view = views.get(pod.node_id)
        if view is not None and task.task_id not in view.preempted:
            view.virtually_preempt(task)


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

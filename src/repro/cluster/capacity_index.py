"""The cluster's one per-GPU-model capacity ledger.

:class:`CapacityIndex` is each node's capacity listener: every
``allocate_pod``/``release_task`` (and every fleet-membership change the
cluster makes) is folded into one :class:`_ModelIndex` per GPU model,
which holds both the figures the aggregate queries read and the
structures the placement search walks:

* **GPU figures** — online total, free, HP-held and spot-held GPUs, the
  sums behind ``Cluster.total_gpus``/``idle_gpus``/``allocated_gpus``/
  ``hp_gpus``/``spot_gpus``/``allocation_rate``/``stats``
  (:meth:`CapacityIndex.gpus`).
* **Idle-GPU buckets** — nodes bucketed by their count of completely idle
  cards, so candidates for a whole-GPU pod of size ``k`` are exactly the
  nodes in buckets ``k..max``, plus a ``max_idle`` watermark that rejects
  oversized pods in O(1) and an integer idle aggregate that gates gang
  requests (``num_pods * k`` idle cards are necessary) without a scan.
* **Free / fractional-card / spot node sets** — nodes with any free
  capacity, nodes with a partially free card, and nodes hosting spot
  tasks, each a superset filter for the corresponding candidate queries.

Two membership semantics are exposed because the schedulers use two
feasibility notions for fractional pods:

* :meth:`node_fit_candidates` mirrors ``Node.can_fit_pod`` — a fractional
  pod needs a **single card** with enough free fraction.
* :meth:`view_fit_candidates` mirrors ``NodeView.can_fit_pod`` — a
  fractional pod needs enough **aggregate** free capacity on the node.

Every query returns nodes in canonical cluster construction order, which
is what the pre-refactor linear scans produced; scheduler tie-breaks that
rely on stable sort order therefore see identical orderings.

The index also publishes monotonic *sequence numbers* that the per-pass
placement memo uses to decide whether a previously failed task shape
could have become feasible: ``free_increase_seq`` advances whenever any
node's free capacity grows (a finish or eviction), ``spot_increase_seq``
whenever spot-held capacity grows (new preemption victims appeared), and
``node_mutation`` stamps each node's last change so cached node views can
be refreshed lazily instead of rebuilt per task.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .gpu import EPSILON, GPUModel, is_fractional_pod
from .node import Node


class AggregateConsistencyError(RuntimeError):
    """Raised in debug mode when cached capacity figures drift from a full scan."""


class _ModelIndex:
    """GPU figures and bucketed capacity structures for the nodes of one GPU model."""

    __slots__ = (
        "total_gpus", "free_capacity", "hp_gpus", "spot_gpus",
        "idle_buckets", "max_idle", "total_idle", "free", "frac", "spot",
    )

    def __init__(self, max_gpus: int):
        #: the ``Node`` figures of the same names, summed over the online nodes
        self.total_gpus = self.free_capacity = self.hp_gpus = self.spot_gpus = 0.0
        #: idle-card count -> {node_id: Node}; one bucket per count up to the
        #: largest node ever inserted, so ``len - 1`` bounds every node's size
        self.idle_buckets: List[Dict[str, Node]] = [dict() for _ in range(max_gpus + 1)]
        self.max_idle: int = 0
        #: sum of completely idle cards across the model's nodes
        self.total_idle: int = 0
        #: nodes with free_capacity > 0
        self.free: Dict[str, Node] = {}
        #: nodes with a partially free card (max_card_free > 0)
        self.frac: Dict[str, Node] = {}
        #: nodes with spot-held GPUs (spot_gpus > 0)
        self.spot: Dict[str, Node] = {}

    @property
    def allocated_gpus(self) -> float:
        return self.total_gpus - self.free_capacity

    def insert(self, node: Node) -> None:
        # Joining or leaving the fleet moves only total and free: a node
        # leaves empty, so its held figures are zero up to a rounding
        # residue, which stays in the running sums.
        self.total_gpus += node.total_gpus
        self.free_capacity += node.free_capacity
        while len(self.idle_buckets) <= node.num_gpus:
            self.idle_buckets.append(dict())
        self._bucket(node, node.idle_gpus)
        self._sync_sets(node)

    def remove(self, node: Node, idle: int) -> None:
        """Take ``node`` (in bucket ``idle``) out of every structure."""
        self.total_gpus -= node.total_gpus
        self.free_capacity -= node.free_capacity
        self._unbucket(node.node_id, idle)
        for members in (self.free, self.frac, self.spot):
            members.pop(node.node_id, None)

    def move(self, node: Node, old_idle: int) -> None:
        """Re-bucket ``node`` after a mutation (``old_idle`` = previous bucket)."""
        if node.idle_gpus != old_idle:
            self._unbucket(node.node_id, old_idle)
            self._bucket(node, node.idle_gpus)
        self._sync_sets(node)

    def _bucket(self, node: Node, idle: int) -> None:
        self.idle_buckets[idle][node.node_id] = node
        self.total_idle += idle
        if idle > self.max_idle:
            self.max_idle = idle

    def _unbucket(self, node_id: str, idle: int) -> None:
        del self.idle_buckets[idle][node_id]
        self.total_idle -= idle
        while self.max_idle > 0 and not self.idle_buckets[self.max_idle]:
            self.max_idle -= 1

    def _sync_sets(self, node: Node) -> None:
        sync = self._sync_set
        sync(self.free, node, node.free_capacity > 0.0)
        sync(self.frac, node, node.max_card_free > 0.0)
        sync(self.spot, node, node.spot_gpus > 0.0)

    @staticmethod
    def _sync_set(members: Dict[str, Node], node: Node, belongs: bool) -> None:
        if belongs:
            if node.node_id not in members:
                members[node.node_id] = node
        else:
            members.pop(node.node_id, None)


class CapacityIndex:
    """Candidate-selection index over a fixed set of nodes.

    Owned by :class:`~repro.cluster.cluster.Cluster`, which registers
    :meth:`on_node_change` as every node's capacity listener.  All queries
    take an optional ``model``; ``None`` unions every model, preserving
    global construction order.
    """

    #: absolute tolerance of the debug consistency check on the GPU figures
    _VALIDATE_ATOL = 1e-6

    def __init__(self, nodes: Iterable[Node]):
        self._order: Dict[str, int] = {}
        self._models: Dict[GPUModel, _ModelIndex] = {}
        #: node_id -> idle-card count at last sync (bucket the node is in)
        self._known_idle: Dict[str, int] = {}
        #: node_id -> stamp of the node's last observed mutation
        self._node_mut: Dict[str, int] = {}
        self._mutations: int = 0
        self.free_increase_seq: int = 0
        self.spot_increase_seq: int = 0
        for node in nodes:
            self._order[node.node_id] = len(self._order)
            index = self._models.get(node.gpu_model)
            if index is None:
                index = self._models[node.gpu_model] = _ModelIndex(node.num_gpus)
            index.hp_gpus += node.hp_gpus
            index.spot_gpus += node.spot_gpus
            index.insert(node)
            self._known_idle[node.node_id] = node.idle_gpus
            self._node_mut[node.node_id] = 0

    # ------------------------------------------------------------------
    # Maintenance (this is every node's capacity listener)
    # ------------------------------------------------------------------
    def on_node_change(
        self, node: Node, free_delta: float, hp_delta: float, spot_delta: float
    ) -> None:
        """Fold one node mutation into the index (amortised O(1))."""
        ix = self._models[node.gpu_model]
        ix.free_capacity += free_delta
        ix.hp_gpus += hp_delta
        ix.spot_gpus += spot_delta
        self._mutations += 1
        self._node_mut[node.node_id] = self._mutations
        if free_delta > 0.0:
            self.free_increase_seq += 1
        if spot_delta > 0.0:
            self.spot_increase_seq += 1
        ix.move(node, self._known_idle[node.node_id])
        self._known_idle[node.node_id] = node.idle_gpus

    def gpus(self, figure: str, model: Optional[GPUModel] = None) -> float:
        """One GPU figure (``"total_gpus"``, ``"free_capacity"``, ``"hp_gpus"``,
        ``"spot_gpus"`` or ``"allocated_gpus"``) summed over the models
        ``model`` selects, in first-seen model order (O(#models))."""
        total = 0
        for ix in self._indexes_for(model):
            total += getattr(ix, figure)
        return float(total)

    def node_mutation(self, node_id: str) -> int:
        """Stamp of the node's last capacity mutation (0 = never mutated)."""
        return self._node_mut.get(node_id, 0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-model occupancy figures straight from the index (O(models)).

        Used by the scheduler service's live occupancy endpoint: for each
        GPU model the count of indexed (online) nodes, the completely idle
        cards (``total_idle``), the largest single-node idle block
        (``max_idle`` — the biggest whole-GPU pod placeable right now),
        and how many nodes have any free / spot-held capacity.  All
        figures are incrementally maintained; nothing is scanned.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for model, ix in self._models.items():
            nodes_online = sum(len(bucket) for bucket in ix.idle_buckets)
            summary[model.value] = {
                "nodes_online": nodes_online,
                "total_idle_gpus": ix.total_idle,
                "max_idle_block": ix.max_idle,
                "nodes_with_free_capacity": len(ix.free),
                "nodes_with_spot_tasks": len(ix.spot),
            }
        return summary

    # ------------------------------------------------------------------
    # Fleet membership (driven by cluster dynamics)
    # ------------------------------------------------------------------
    def remove_node(self, node: Node) -> None:
        """Take ``node`` out of every candidate structure (node went offline).

        The node keeps its canonical construction-order slot so a later
        :meth:`add_node` restores identical enumeration order.  The node's
        mutation stamp is bumped so cached views are refreshed on rejoin.
        """
        node_id = node.node_id
        if node_id not in self._known_idle:
            raise KeyError(f"node {node_id} is not indexed (already offline?)")
        self._mutations += 1
        self._node_mut[node_id] = self._mutations
        self._models[node.gpu_model].remove(node, self._known_idle.pop(node_id))

    def add_node(self, node: Node) -> None:
        """Re-index ``node`` after it rejoins the fleet (repair/activation).

        Free capacity grows, so the free-increase sequence number advances
        and previously memoised failed shapes are retried.
        """
        node_id = node.node_id
        if node_id not in self._order:
            raise KeyError(f"node {node_id} was never part of this cluster")
        if node_id in self._known_idle:
            raise KeyError(f"node {node_id} is already indexed")
        self._mutations += 1
        self._node_mut[node_id] = self._mutations
        if node.free_capacity > 0.0:
            self.free_increase_seq += 1
        if node.spot_gpus > 0.0:
            self.spot_increase_seq += 1
        self._models[node.gpu_model].insert(node)
        self._known_idle[node_id] = node.idle_gpus

    # ------------------------------------------------------------------
    # O(1) feasibility gates
    # ------------------------------------------------------------------
    def _indexes_for(self, model: Optional[GPUModel]) -> Iterable[_ModelIndex]:
        if model is None:
            return self._models.values()
        index = self._models.get(model)
        return (index,) if index is not None else ()

    def max_idle_gpus(self, model: Optional[GPUModel] = None) -> int:
        """Largest count of idle cards on any single node of ``model``."""
        return max((ix.max_idle for ix in self._indexes_for(model)), default=0)

    def total_idle_gpus(self, model: Optional[GPUModel] = None) -> int:
        """Total completely idle cards across nodes of ``model``."""
        return sum(ix.total_idle for ix in self._indexes_for(model))

    # ------------------------------------------------------------------
    # Candidate enumeration (canonical construction order)
    # ------------------------------------------------------------------
    def _ordered(self, nodes: List[Node]) -> List[Node]:
        nodes.sort(key=lambda n: self._order[n.node_id])
        return nodes

    def _whole_pod_candidates(self, model: Optional[GPUModel], whole: int) -> List[Node]:
        found: List[Node] = []
        for ix in self._indexes_for(model):
            if ix.max_idle < whole:
                continue
            for bucket in ix.idle_buckets[whole:]:
                found.extend(bucket.values())
        return self._ordered(found)

    def idle_levels(
        self, model: Optional[GPUModel], start: int
    ) -> Tuple[int, List[List[Dict[str, Node]]]]:
        """The idle-card buckets of ``model`` from ``start`` cards up.

        ``(size, levels)``: ``levels[i]`` lists the walked models' buckets
        (the index's own: read only) with exactly ``start + i`` idle cards;
        ``size`` is the largest node, so a node in ``levels[i:]`` has at
        most ``1 - (start + i) / size`` of its cards in use.
        """
        size, levels = 0, []
        for ix in self._indexes_for(model):
            size = max(size, len(ix.idle_buckets) - 1)
            for i, bucket in enumerate(ix.idle_buckets[start : ix.max_idle + 1]):
                if i == len(levels):
                    levels.append([])
                levels[i].append(bucket)
        return size, levels

    def node_fit_candidates(
        self, model: Optional[GPUModel], gpus_per_pod: float
    ) -> List[Node]:
        """Nodes where one pod fits now, per ``Node.can_fit_pod`` semantics.

        Fractional pods require a single card with enough free fraction;
        whole-GPU pods require enough completely idle cards.
        """
        if is_fractional_pod(gpus_per_pod):
            found = [
                n
                for ix in self._indexes_for(model)
                for n in ix.frac.values()
                if n.max_card_free + EPSILON >= gpus_per_pod
            ]
            return self._ordered(found)
        return self._whole_pod_candidates(model, int(round(gpus_per_pod)))

    def view_fit_candidates(
        self, model: Optional[GPUModel], gpus_per_pod: float
    ) -> List[Node]:
        """Nodes where one pod fits now, per ``NodeView.can_fit_pod`` semantics.

        Fractional pods only need aggregate free capacity on the node.
        """
        if is_fractional_pod(gpus_per_pod):
            found = [
                n
                for ix in self._indexes_for(model)
                for n in ix.free.values()
                if n.free_capacity + EPSILON >= gpus_per_pod
            ]
            return self._ordered(found)
        return self._whole_pod_candidates(model, int(round(gpus_per_pod)))

    def spot_nodes(self, model: Optional[GPUModel] = None) -> List[Node]:
        """Nodes currently holding spot-task GPUs (preemption candidates)."""
        found = [n for ix in self._indexes_for(model) for n in ix.spot.values()]
        return self._ordered(found)

    def preemption_candidates(
        self, model: Optional[GPUModel], gpus_per_pod: float
    ) -> List[Node]:
        """Nodes that could host a pod now or after evicting spot tasks.

        The union of the view-feasible set and the spot set: a node with
        neither free view capacity nor spot tasks can never receive a pod,
        with or without preemption.
        """
        fit = self.view_fit_candidates(model, gpus_per_pod)
        seen = {n.node_id for n in fit}
        extra = [
            n
            for ix in self._indexes_for(model)
            for n in ix.spot.values()
            if n.node_id not in seen
        ]
        if not extra:
            return fit
        return self._ordered(fit + extra)

    # ------------------------------------------------------------------
    # Debug validation
    # ------------------------------------------------------------------
    def validate(self, nodes: Iterable[Node]) -> None:
        """Verify every figure and structure against a full scan of ``nodes``.

        Called from ``Cluster.validate_aggregates`` in debug mode
        (``REPRO_VALIDATE_AGGREGATES=1``) with the online nodes; raises
        :class:`AggregateConsistencyError` on any drift (beyond ``1e-6``
        for the GPU figures).
        """
        per_model: Dict[GPUModel, List[Node]] = {}
        for node in nodes:
            per_model.setdefault(node.gpu_model, []).append(node)
        # Offline nodes are passed filtered out, so a model may legitimately
        # have zero online members; its (empty) index is still checked below.
        if not set(per_model) <= set(self._models):
            raise AggregateConsistencyError(
                f"indexed models {sorted(m.value for m in self._models)} miss "
                f"some of {sorted(m.value for m in per_model)}"
            )
        for model, ix in self._models.items():
            members = per_model.get(model, [])
            for figure in ("total_gpus", "free_capacity", "hp_gpus", "spot_gpus"):
                cached = getattr(ix, figure)
                want = float(sum(getattr(n, figure) for n in members))
                if abs(cached - want) > self._VALIDATE_ATOL:
                    raise AggregateConsistencyError(
                        f"cached {figure} for {model.value} is {cached!r}, "
                        f"full scan says {want!r}"
                    )
            for node in members:
                idle = node.idle_gpus
                if node.node_id not in ix.idle_buckets[idle]:
                    raise AggregateConsistencyError(
                        f"node {node.node_id} (idle={idle}) missing from its idle bucket"
                    )
                for belongs, name, index_set in (
                    (node.free_capacity > 0.0, "free", ix.free),
                    (node.max_card_free > 0.0, "frac", ix.frac),
                    (node.spot_gpus > 0.0, "spot", ix.spot),
                ):
                    if belongs != (node.node_id in index_set):
                        raise AggregateConsistencyError(
                            f"node {node.node_id} {name}-set membership is "
                            f"{node.node_id in index_set}, expected {belongs}"
                        )
            bucketed = sum(len(b) for b in ix.idle_buckets)
            if bucketed != len(members):
                raise AggregateConsistencyError(
                    f"{model.value}: {bucketed} nodes bucketed, {len(members)} exist"
                )
            want_total = sum(n.idle_gpus for n in members)
            if ix.total_idle != want_total:
                raise AggregateConsistencyError(
                    f"{model.value}: cached total_idle {ix.total_idle} != {want_total}"
                )
            want_max = max((n.idle_gpus for n in members), default=0)
            if ix.max_idle != want_max:
                raise AggregateConsistencyError(
                    f"{model.value}: cached max_idle {ix.max_idle} != {want_max}"
                )

    # ------------------------------------------------------------------
    def brute_force_candidates(
        self,
        nodes: Iterable[Node],
        model: Optional[GPUModel],
        gpus_per_pod: float,
        semantics: str = "node",
    ) -> List[Node]:
        """Reference implementation for tests: linear-scan candidate set.

        ``semantics`` selects ``"node"`` (``Node.can_fit_pod``) or
        ``"view"`` (aggregate free capacity) feasibility.
        """
        found = []
        for node in nodes:
            if model is not None and node.gpu_model is not model:
                continue
            if semantics == "node":
                if node.can_fit_pod(gpus_per_pod):
                    found.append(node)
            else:
                if is_fractional_pod(gpus_per_pod):
                    if node.free_capacity + EPSILON >= gpus_per_pod:
                        found.append(node)
                elif node.idle_gpus >= int(round(gpus_per_pod)):
                    found.append(node)
        return found

"""Cluster state: a collection of nodes plus global accounting.

The cluster exposes the queries schedulers need (idle GPUs, spot usage,
per-model views) and the mutation primitives the simulator uses to place,
finish and evict tasks.

Aggregate queries are O(1)
--------------------------
``total_gpus``/``idle_gpus``/``allocated_gpus``/``spot_gpus``/``hp_gpus``
/``allocation_rate``/``stats`` answer from the per-GPU-model figures of
the :class:`~repro.cluster.capacity_index.CapacityIndex`, the one
capacity ledger, instead of re-scanning every node.  The index is the
capacity listener each node invokes after every
``allocate_pod``/``release_task`` mutation — including mutations
performed directly on a node object, bypassing :meth:`Cluster.place_task`.

Invariants (checked in debug mode, see ``validate_aggregates``):

* each model's ``total_gpus``/``free_capacity``/``hp_gpus``/``spot_gpus``
  in ``capacity_index`` equals the sum of the same ``Node`` figure over
  its online nodes, and its buckets and node sets match a full scan;
* ``_running_spot`` holds exactly the spot tasks in ``running_tasks``,
  in the same insertion order.

Set the environment variable ``REPRO_VALIDATE_AGGREGATES=1`` (or pass
``validate_aggregates=True``) to re-verify the cached aggregates against
a full scan on every query — slow, but invaluable when writing a new
scheduler or mutation path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .capacity_index import AggregateConsistencyError, CapacityIndex
from .gpu import GPUModel
from .node import Node
from .task import PodPlacement, Task, TaskType


@dataclass
class ClusterStats:
    """Aggregate figures and counters, as the service's occupancy view reports them."""

    total_gpus: float = 0.0
    idle_gpus: float = 0.0
    hp_gpus: float = 0.0
    spot_gpus: float = 0.0
    running_hp_tasks: int = 0
    running_spot_tasks: int = 0
    successful_spot_runs: int = 0
    evicted_spot_runs: int = 0

    @property
    def allocation_rate(self) -> float:
        if self.total_gpus <= 0:
            return 0.0
        return (self.total_gpus - self.idle_gpus) / self.total_gpus


class Cluster:
    """A set of nodes, optionally spanning several GPU models.

    Exposes the aggregate queries schedulers rely on (``idle_gpus``,
    ``allocation_rate``, ``stats``, ``spot_gpus_with_guarantee``, …) as
    O(1) lookups against the capacity index's per-model figures, plus
    the mutation primitives the simulator drives (``place_task``,
    ``remove_task``).  A node belongs to at most one cluster:
    construction registers the index as every node's capacity listener
    so the figures stay consistent with per-node allocations, even ones
    made directly on a :class:`~repro.cluster.node.Node`.

    Example
    -------
    >>> from repro import Cluster, GPUModel
    >>> cluster = Cluster.homogeneous(num_nodes=32, gpus_per_node=8,
    ...                               gpu_model=GPUModel.A100)
    >>> cluster.total_gpus(), cluster.idle_gpus()
    (256.0, 256.0)
    """

    def __init__(self, nodes: Iterable[Node], validate_aggregates: Optional[bool] = None):
        self.nodes: List[Node] = list(nodes)
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        self._node_index: Dict[str, Node] = {n.node_id: n for n in self.nodes}
        if len(self._node_index) != len(self.nodes):
            raise ValueError("duplicate node ids in cluster")
        #: running task id -> Task
        self.running_tasks: Dict[str, Task] = {}
        #: running *spot* task id -> Task (same insertion order as above)
        self._running_spot: Dict[str, Task] = {}
        #: historical counters for the preemption-cost denominator (Eq. 18/19)
        self.successful_spot_runs: int = 0
        self.evicted_spot_runs: int = 0

        if validate_aggregates is None:
            validate_aggregates = os.environ.get(
                "REPRO_VALIDATE_AGGREGATES", ""
            ).strip().lower() not in ("", "0", "false", "no", "off")
        self._validate = bool(validate_aggregates)

        self._nodes_by_model: Dict[GPUModel, List[Node]] = {}
        #: the per-model capacity ledger (built before listeners fire)
        self.capacity_index = CapacityIndex(self.nodes)
        registered: List[Node] = []
        try:
            for node in self.nodes:
                node.register_capacity_listener(self.capacity_index.on_node_change)
                registered.append(node)
                self._nodes_by_model.setdefault(node.gpu_model, []).append(node)
        except Exception:
            # Unwind so a failed construction (e.g. one node already owned
            # by another cluster) does not leave nodes claimed by this
            # half-built, unreachable cluster.
            for node in registered:
                node.register_capacity_listener(None)
            raise

    # ------------------------------------------------------------------
    # Debug validation
    # ------------------------------------------------------------------
    def validate_aggregates(self) -> None:
        """Verify the running-spot index, then the capacity index, against
        a full task and node scan.

        Raises :class:`AggregateConsistencyError` on any drift (GPU figures
        beyond ``1e-6``).  Called automatically on every query when the
        cluster was built with ``validate_aggregates=True`` (or the
        ``REPRO_VALIDATE_AGGREGATES`` environment variable is set).
        """
        spot_ids = [tid for tid, t in self.running_tasks.items() if t.is_spot]
        if spot_ids != list(self._running_spot):
            raise AggregateConsistencyError(
                "running-spot index diverged from running_tasks: "
                f"{spot_ids} != {list(self._running_spot)}"
            )
        # Offline nodes (dynamics: failed/drained/reclaimed) contribute
        # nothing to the schedulable figures.
        self.capacity_index.validate(n for n in self.nodes if n.available)

    def _check(self) -> None:
        if self._validate:
            self.validate_aggregates()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self._node_index[node_id]

    def nodes_for_model(self, model: Optional[GPUModel]) -> List[Node]:
        """Nodes compatible with ``model`` (all nodes when model is None)."""
        if model is None:
            return list(self.nodes)
        return list(self._nodes_by_model.get(model, ()))

    @property
    def gpu_models(self) -> List[GPUModel]:
        return list(self._nodes_by_model)

    # ------------------------------------------------------------------
    # Capacity accounting (O(#models) from the capacity index's figures;
    # compound queries validate once per public call, not per figure)
    # ------------------------------------------------------------------
    def total_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self.capacity_index.gpus("total_gpus", model)

    def idle_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self.capacity_index.gpus("free_capacity", model)

    def allocated_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self.capacity_index.gpus("allocated_gpus", model)

    def spot_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self.capacity_index.gpus("spot_gpus", model)

    def hp_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self.capacity_index.gpus("hp_gpus", model)

    def allocation_rate(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        total = self.capacity_index.gpus("total_gpus", model)
        if total <= 0:
            return 0.0
        return self.capacity_index.gpus("allocated_gpus", model) / total

    def stats(self, model: Optional[GPUModel] = None) -> ClusterStats:
        """A snapshot of aggregate cluster statistics.

        O(#models) for the whole cluster; a per-model view counts its
        running tasks with a scan (tasks with no model constraint count
        toward every model's view).
        """
        self._check()
        if model is None:
            running, spot = len(self.running_tasks), len(self._running_spot)
        else:
            mine = [t for t in self.running_tasks.values() if t.gpu_model in (None, model)]
            running, spot = len(mine), sum(t.is_spot for t in mine)
        index = self.capacity_index
        return ClusterStats(
            total_gpus=index.gpus("total_gpus", model),
            idle_gpus=index.gpus("free_capacity", model),
            hp_gpus=index.gpus("hp_gpus", model),
            spot_gpus=index.gpus("spot_gpus", model),
            running_hp_tasks=running - spot,
            running_spot_tasks=spot,
            successful_spot_runs=self.successful_spot_runs,
            evicted_spot_runs=self.evicted_spot_runs,
        )

    def running_spot_tasks(self, model: Optional[GPUModel] = None) -> List[Task]:
        """Running spot tasks, in placement order (O(#running spot tasks))."""
        self._check()
        return [
            t
            for t in self._running_spot.values()
            if model is None or t.gpu_model is None or t.gpu_model is model
        ]

    def org_usage(self, task_type: Optional[TaskType] = None) -> Dict[str, float]:
        """GPUs currently held by running tasks, per organization.

        ``task_type`` optionally restricts the tally to one class (HP or
        spot).  This is the live-occupancy view the scheduler service
        exposes per org; it scans only the running-task index, never the
        nodes.
        """
        self._check()
        usage: Dict[str, float] = {}
        for task in self.running_tasks.values():
            if task_type is not None and task.task_type is not task_type:
                continue
            usage[task.org] = usage.get(task.org, 0.0) + task.total_gpus
        return usage

    def spot_gpus_with_guarantee(self, hours: float, now: float) -> float:
        """GPUs held by spot tasks allocated with a guarantee of >= ``hours``.

        This is ``S_a`` in Eq. (10): spot capacity already committed at the
        requested guarantee level.  Together with the idle capacity ``S_0``
        it bounds the quota by what is physically available right now.
        Only the running *spot* index is scanned, never HP tasks or nodes.
        """
        self._check()
        total = 0.0
        for task in self._running_spot.values():
            if task.guaranteed_hours + 1e-9 >= hours:
                total += task.total_gpus
        return total

    # ------------------------------------------------------------------
    # Placement mutations (driven by the simulator)
    # ------------------------------------------------------------------
    def place_task(self, task: Task, placements: Sequence[PodPlacement]) -> None:
        """Materialise a placement decision: allocate GPUs on every node."""
        if task.task_id in self.running_tasks:
            raise ValueError(f"task {task.task_id} is already placed")
        applied: List[str] = []
        try:
            for pod in placements:
                node = self.node(pod.node_id)
                node.allocate_pod(task)
                applied.append(pod.node_id)
        except Exception:
            # Roll back partial placement so the cluster stays consistent
            # (release_task notifies the aggregate listener too).
            for node_id in applied:
                self.node(node_id).release_task(task.task_id)
            raise
        task.placements = list(placements)
        self.running_tasks[task.task_id] = task
        if task.is_spot:
            self._running_spot[task.task_id] = task
        self._check()

    def remove_task(self, task: Task) -> None:
        """Release every GPU the task holds (used on finish and eviction)."""
        for pod in task.placements:
            self.node(pod.node_id).release_task(task.task_id)
        # A task may have pods on the same node; release_task is idempotent.
        if self.running_tasks.pop(task.task_id, None) is not None:
            self._running_spot.pop(task.task_id, None)
        task.placements = []
        self._check()

    def record_spot_outcome(self, evicted: bool) -> None:
        """Update the historical spot success/eviction counters (G and F)."""
        if evicted:
            self.evicted_spot_runs += 1
        else:
            self.successful_spot_runs += 1

    # ------------------------------------------------------------------
    # Fleet membership (cluster dynamics: failures, drains, elasticity)
    # ------------------------------------------------------------------
    def deactivate_node(self, node_id: str) -> Node:
        """Take a node offline: drop its capacity from every aggregate/index.

        The node must be empty — the simulator kills or requeues its
        running tasks through the normal release paths *before* the node
        leaves the fleet, so the capacity listener keeps the aggregates
        consistent throughout.  Offline nodes are excluded from all
        candidate enumeration (``capacity_index``) and reject direct
        allocations, so no placement can target them until reactivated.

        Raises
        ------
        ValueError
            If the node is already offline or still hosts tasks.
        """
        node = self.node(node_id)
        if not node.available:
            raise ValueError(f"node {node_id} is already offline")
        if node.task_shares:
            raise ValueError(
                f"cannot deactivate node {node_id}: it still hosts tasks "
                f"{sorted(node.task_shares)} (kill or requeue them first)"
            )
        node.available = False
        self.capacity_index.remove_node(node)
        self._check()
        return node

    def activate_node(self, node_id: str) -> Node:
        """Bring a node back online: restore its capacity and re-index it.

        Raises
        ------
        ValueError
            If the node is already online.
        """
        node = self.node(node_id)
        if node.available:
            raise ValueError(f"node {node_id} is already online")
        node.available = True
        self.capacity_index.add_node(node)
        self._check()
        return node

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_nodes: int,
        gpus_per_node: int = 8,
        gpu_model: GPUModel = GPUModel.A100,
        cluster_label: str = "sim",
    ) -> "Cluster":
        """A homogeneous cluster, e.g. the 287-node A100 cluster of Section 4.1."""
        from .node import make_nodes

        return cls(make_nodes(num_nodes, gpu_model, gpus_per_node, cluster_label))

    def describe(self) -> str:
        parts = []
        for model in self.gpu_models:
            nodes = self.nodes_for_model(model)
            parts.append(f"{model.value}: {len(nodes)} nodes x {nodes[0].num_gpus} GPUs")
        return ", ".join(parts)

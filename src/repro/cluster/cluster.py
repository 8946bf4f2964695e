"""Cluster state: a collection of nodes plus global accounting.

The cluster exposes the queries schedulers need (idle GPUs, spot usage,
per-model views) and the mutation primitives the simulator uses to place,
finish and evict tasks.

Aggregate queries are O(1)
--------------------------
``total_gpus``/``idle_gpus``/``allocated_gpus``/``spot_gpus``/``hp_gpus``
/``allocation_rate``/``stats`` answer from **incrementally maintained
per-GPU-model aggregates** instead of re-scanning every node.  The
aggregates are kept consistent by a capacity listener each node invokes
after every ``allocate_pod``/``release_task`` mutation — including
mutations performed directly on a node object, bypassing
:meth:`Cluster.place_task`.

Invariants (checked in debug mode, see ``validate_aggregates``):

* ``_agg[m].free  == sum(n.free_capacity for n in nodes of model m)``
* ``_agg[m].hp    == sum(n.hp_gpus for n in nodes of model m)``
* ``_agg[m].spot  == sum(n.spot_gpus for n in nodes of model m)``
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .capacity_index import CapacityIndex
from .gpu import GPUModel
from .node import Node
from .task import PodPlacement, Task, TaskType


@dataclass
class ClusterStats:
    """Aggregate counters the SQA feedback loop and reports consume."""

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


@dataclass
class _ModelAggregate:
    """Incrementally maintained capacity figures for one GPU model."""

    total: float = 0.0
    free: float = 0.0
    hp: float = 0.0
    spot: float = 0.0

    @property
    def allocated(self) -> float:
        return self.total - self.free


class AggregateConsistencyError(RuntimeError):
    """Raised in debug mode when cached aggregates drift from a full scan."""


class Cluster:
    """A set of nodes, optionally spanning several GPU models.

    Exposes the aggregate queries schedulers rely on (``idle_gpus``,
    ``allocation_rate``, ``stats``, ``spot_gpus_with_guarantee``, …) as
    O(1) lookups against incrementally maintained per-model caches, plus
    the mutation primitives the simulator drives (``place_task``,
    ``remove_task``).  A node belongs to at most one cluster:
    construction registers a capacity listener on every node so the
    aggregates stay consistent with per-node allocations, even ones made
    directly on a :class:`~repro.cluster.node.Node`.

    Example
    -------
    >>> from repro import Cluster, GPUModel
    >>> cluster = Cluster.homogeneous(num_nodes=32, gpus_per_node=8,
    ...                               gpu_model=GPUModel.A100)
    >>> cluster.total_gpus(), cluster.idle_gpus()
    (256.0, 256.0)
    """

    #: absolute tolerance used by the debug consistency check
    _VALIDATE_ATOL = 1e-6

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
        #: number of running tasks per (task.gpu_model, task type); the
        #: model key may be None for model-agnostic tasks
        self._running_counts: Dict[Tuple[Optional[GPUModel], TaskType], int] = {}
        #: historical counters for the preemption-cost denominator (Eq. 18/19)
        self.successful_spot_runs: int = 0
        self.evicted_spot_runs: int = 0
        #: cumulative GPU-seconds of execution, per node, for the usage term
        self.node_gpu_seconds: Dict[str, float] = {n.node_id: 0.0 for n in self.nodes}

        if validate_aggregates is None:
            validate_aggregates = os.environ.get(
                "REPRO_VALIDATE_AGGREGATES", ""
            ).strip().lower() not in ("", "0", "false", "no", "off")
        self._validate = bool(validate_aggregates)

        # Static per-model node lists plus incrementally updated aggregates.
        self._nodes_by_model: Dict[GPUModel, List[Node]] = {}
        self._agg: Dict[GPUModel, _ModelAggregate] = {}
        #: capacity-indexed candidate selection (built before listeners fire)
        self.capacity_index = CapacityIndex(self.nodes)
        registered: List[Node] = []
        try:
            for node in self.nodes:
                node.register_capacity_listener(self._on_node_capacity_change)
                registered.append(node)
                self._nodes_by_model.setdefault(node.gpu_model, []).append(node)
                agg = self._agg.setdefault(node.gpu_model, _ModelAggregate())
                agg.total += node.total_gpus
                agg.free += node.free_capacity
                agg.hp += node.hp_gpus
                agg.spot += node.spot_gpus
        except Exception:
            # Unwind so a failed construction (e.g. one node already owned
            # by another cluster) does not leave nodes claimed by this
            # half-built, unreachable cluster.
            for node in registered:
                node.register_capacity_listener(None)
            raise

    # ------------------------------------------------------------------
    # Aggregate maintenance
    # ------------------------------------------------------------------
    def _on_node_capacity_change(
        self, node: Node, free_delta: float, hp_delta: float, spot_delta: float
    ) -> None:
        """Fold a node mutation into the per-model aggregates (O(1))."""
        agg = self._agg[node.gpu_model]
        agg.free += free_delta
        agg.hp += hp_delta
        agg.spot += spot_delta
        self.capacity_index.on_node_change(node, free_delta, spot_delta)

    def validate_aggregates(self) -> None:
        """Verify every cached aggregate against a full node/task scan.

        Raises :class:`AggregateConsistencyError` on any drift beyond
        ``1e-6``.  Called automatically on every query when the cluster
        was built with ``validate_aggregates=True`` (or the
        ``REPRO_VALIDATE_AGGREGATES`` environment variable is set).
        """
        for model, agg in self._agg.items():
            # Offline nodes (dynamics: failed/drained/reclaimed) contribute
            # nothing to the schedulable aggregates.
            nodes = [n for n in self._nodes_by_model[model] if n.available]
            expected = {
                "total": float(sum(n.total_gpus for n in nodes)),
                "free": float(sum(n.free_capacity for n in nodes)),
                "hp": float(sum(n.hp_gpus for n in nodes)),
                "spot": float(sum(n.spot_gpus for n in nodes)),
            }
            cached = {"total": agg.total, "free": agg.free, "hp": agg.hp, "spot": agg.spot}
            for key, want in expected.items():
                if abs(cached[key] - want) > self._VALIDATE_ATOL:
                    raise AggregateConsistencyError(
                        f"cached {key} aggregate for {model.value} is {cached[key]!r}, "
                        f"full scan says {want!r}"
                    )
        spot_ids = [tid for tid, t in self.running_tasks.items() if t.is_spot]
        if spot_ids != list(self._running_spot):
            raise AggregateConsistencyError(
                "running-spot index diverged from running_tasks: "
                f"{spot_ids} != {list(self._running_spot)}"
            )
        counts: Dict[Tuple[Optional[GPUModel], TaskType], int] = {}
        for task in self.running_tasks.values():
            key = (task.gpu_model, task.task_type)
            counts[key] = counts.get(key, 0) + 1
        if counts != {k: v for k, v in self._running_counts.items() if v}:
            raise AggregateConsistencyError(
                f"running-task counters diverged: {self._running_counts} != {counts}"
            )
        self.capacity_index.validate(n for n in self.nodes if n.available)

    def _check(self) -> None:
        if self._validate:
            self.validate_aggregates()

    def _sum(self, field: str, model: Optional[GPUModel]) -> float:
        """One cached aggregate, summed over the models ``model`` selects (all for ``None``).

        Unchecked, so compound queries (stats, allocation_rate) validate
        once per public call, not once per sub-query.
        """
        if model is None:
            aggs = self._agg.values()
        else:
            aggs = (self._agg[model],) if model in self._agg else ()
        total = 0
        for agg in aggs:
            total += getattr(agg, field)
        return float(total)

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
    # Capacity accounting (O(1) from cached aggregates)
    # ------------------------------------------------------------------
    def total_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self._sum("total", model)

    def idle_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self._sum("free", model)

    def allocated_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self._sum("allocated", model)

    def spot_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self._sum("spot", model)

    def hp_gpus(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        return self._sum("hp", model)

    def allocation_rate(self, model: Optional[GPUModel] = None) -> float:
        self._check()
        total = self._sum("total", model)
        if total <= 0:
            return 0.0
        return self._sum("allocated", model) / total

    def _running_count(self, model: Optional[GPUModel], task_type: TaskType) -> int:
        if model is None:
            return sum(
                count for (m, t), count in self._running_counts.items() if t is task_type
            )
        # Tasks with no model constraint count toward every model's view.
        return self._running_counts.get((model, task_type), 0) + self._running_counts.get(
            (None, task_type), 0
        )

    def stats(self, model: Optional[GPUModel] = None) -> ClusterStats:
        """A snapshot of aggregate cluster statistics (O(1))."""
        self._check()
        return ClusterStats(
            total_gpus=self._sum("total", model),
            idle_gpus=self._sum("free", model),
            hp_gpus=self._sum("hp", model),
            spot_gpus=self._sum("spot", model),
            running_hp_tasks=self._running_count(model, TaskType.HP),
            running_spot_tasks=self._running_count(model, TaskType.SPOT),
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
        key = (task.gpu_model, task.task_type)
        self._running_counts[key] = self._running_counts.get(key, 0) + 1
        self._check()

    def remove_task(self, task: Task) -> None:
        """Release every GPU the task holds (used on finish and eviction)."""
        for pod in task.placements:
            self.node(pod.node_id).release_task(task.task_id)
        # A task may have pods on the same node; release_task is idempotent.
        removed = self.running_tasks.pop(task.task_id, None)
        if removed is not None:
            self._running_spot.pop(task.task_id, None)
            # place_task always set this key; a KeyError here means the
            # bookkeeping drifted and should surface, not be masked.
            key = (removed.gpu_model, removed.task_type)
            self._running_counts[key] -= 1
        task.placements = []
        self._check()

    def record_execution(self, task: Task, runtime: float) -> None:
        """Accumulate GPU-seconds of execution on the nodes the task used."""
        if runtime <= 0:
            return
        per_pod = task.gpus_per_pod * runtime
        for pod in task.placements:
            self.node_gpu_seconds[pod.node_id] = (
                self.node_gpu_seconds.get(pod.node_id, 0.0) + per_pod
            )

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
        agg = self._agg[node.gpu_model]
        agg.total -= node.total_gpus
        agg.free -= node.free_capacity
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
        agg = self._agg[node.gpu_model]
        agg.total += node.total_gpus
        agg.free += node.free_capacity
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

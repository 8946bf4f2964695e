"""Node model: a machine with a fixed set of GPU cards.

Nodes track per-card allocations, the split of allocated GPUs between HP
and spot tasks (used by the co-location score), and an eviction history
(used by the eviction-awareness score and the circuit breaker).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .gpu import EPSILON, GPUDevice, GPUModel, is_fractional_pod
from .task import Task, TaskType


@dataclass
class Node:
    """A single worker node with ``num_gpus`` cards of one GPU model."""

    node_id: str
    gpu_model: GPUModel
    num_gpus: int = 8
    cluster_label: str = "default"

    #: whether the node is part of the schedulable fleet right now; cluster
    #: dynamics (failures, drains, elastic capacity) toggle this through
    #: ``Cluster.deactivate_node``/``activate_node`` — never flip it directly
    #: on a cluster-owned node or the cached aggregates will drift
    available: bool = True
    gpus: List[GPUDevice] = field(default_factory=list)
    #: task_id -> list of (gpu index, fraction) shares held on this node
    task_shares: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    #: task_id -> TaskType, for fast HP/spot accounting
    task_types: Dict[str, TaskType] = field(default_factory=dict)
    #: timestamps of spot evictions that happened on this node
    eviction_history: Deque[float] = field(default_factory=deque)
    #: incrementally maintained GPU capacity held per task type
    _type_gpus: Dict[TaskType, float] = field(default_factory=dict)
    #: cached capacity figures, refreshed after every allocate/release
    _idle_cache: int = 0
    _free_cache: float = 0.0
    _max_card_free_cache: float = 1.0
    #: owning cluster's aggregate-maintenance hook; called with
    #: ``(node, free_delta, hp_delta, spot_delta)`` after every mutation so
    #: cluster-level caches stay consistent even when a node is mutated
    #: directly (tests and placement helpers do this)
    _capacity_listener: Optional[Callable[["Node", float, float, float], None]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("a node must have at least one GPU")
        if not self.gpus:
            self.gpus = [GPUDevice(index=i, model=self.gpu_model) for i in range(self.num_gpus)]
        self._type_gpus = {TaskType.HP: 0.0, TaskType.SPOT: 0.0}
        self._refresh_capacity()

    def _refresh_capacity(self) -> None:
        """Recompute cached idle/free figures (called after every mutation).

        Always the ordered sum over the cards: next to a fractional share a
        running ``free -= cards`` rounds differently (2.7 - 1.0 != 0.7 + 1.0).
        """
        idle = 0
        free = 0.0
        max_card = 0.0
        for g in self.gpus:
            if g.allocations:
                fraction = g.free_fraction
            else:  # an idle card: nothing used, so exactly 1.0 free
                idle += 1
                fraction = 1.0
            free += fraction
            if fraction > max_card:
                max_card = fraction
        self._idle_cache = idle
        self._free_cache = free
        self._max_card_free_cache = max_card

    def register_capacity_listener(
        self, listener: Optional[Callable[["Node", float, float, float], None]]
    ) -> None:
        """Install the owning cluster's aggregate-maintenance callback.

        A node belongs to at most one cluster: silently replacing the
        listener would freeze the first cluster's cached aggregates, so
        claiming an already-owned node raises.  Pass ``None`` to detach
        the node from its cluster first.

        Raises
        ------
        ValueError
            If a different listener is already registered.
        """
        # Equality (not identity) so re-registering the same cluster's bound
        # method is idempotent — each attribute access creates a fresh bound
        # method object, but equal ones share __self__ and __func__.
        if (
            listener is not None
            and self._capacity_listener is not None
            and self._capacity_listener != listener
        ):
            raise ValueError(
                f"node {self.node_id} already belongs to a cluster; detach it "
                "(register_capacity_listener(None)) before adding it to another"
            )
        self._capacity_listener = listener

    def _notify(self, free_before: float, task_type: Optional[TaskType], held_before: float) -> None:
        """Report the change in free capacity and in ``task_type``'s held GPUs."""
        if self._capacity_listener is not None:
            held_delta = 0.0 if task_type is None else self._type_gpus[task_type] - held_before
            self._capacity_listener(
                self,
                self._free_cache - free_before,
                held_delta if task_type is TaskType.HP else 0.0,
                held_delta if task_type is TaskType.SPOT else 0.0,
            )

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        return self.num_gpus

    @property
    def idle_gpus(self) -> int:
        """Number of completely idle cards."""
        return self._idle_cache

    @property
    def free_capacity(self) -> float:
        """Total free GPU capacity including fractional remainders."""
        return self._free_cache

    @property
    def max_card_free(self) -> float:
        """Largest free fraction on any single card (fractional-pod fit)."""
        return self._max_card_free_cache

    @property
    def allocated_gpus(self) -> float:
        """Total allocated GPU capacity (fractional)."""
        return self.num_gpus - self._free_cache

    @property
    def allocation_rate(self) -> float:
        """Fraction of the node's GPU capacity currently allocated."""
        return self.allocated_gpus / self.num_gpus if self.num_gpus else 0.0

    def allocated_gpus_by_type(self, task_type: TaskType) -> float:
        """GPU capacity held on this node by tasks of ``task_type``."""
        return self._type_gpus[task_type]

    @property
    def hp_gpus(self) -> float:
        return self._type_gpus[TaskType.HP]

    @property
    def spot_gpus(self) -> float:
        return self._type_gpus[TaskType.SPOT]

    def running_task_ids(self, task_type: Optional[TaskType] = None) -> List[str]:
        """Ids of tasks holding GPUs on this node, optionally filtered by type."""
        if task_type is None:
            return list(self.task_shares)
        return [tid for tid in self.task_shares if self.task_types.get(tid) is task_type]

    # ------------------------------------------------------------------
    # Fit / allocate / release
    # ------------------------------------------------------------------
    def can_fit_pod(self, gpus_per_pod: float) -> bool:
        """Whether one pod of ``gpus_per_pod`` GPUs fits on this node right now."""
        if is_fractional_pod(gpus_per_pod):
            return any(g.can_fit(gpus_per_pod) for g in self.gpus)
        return self.idle_gpus >= int(round(gpus_per_pod))

    def max_pods(self, gpus_per_pod: float) -> int:
        """Maximum number of pods of the given size that fit simultaneously."""
        if is_fractional_pod(gpus_per_pod):
            return sum(int(g.free_fraction / gpus_per_pod + EPSILON) for g in self.gpus)
        whole = int(round(gpus_per_pod))
        return self.idle_gpus // whole if whole else 0

    def allocate_pod(self, task: Task, gpus_per_pod: Optional[float] = None) -> Tuple[int, ...]:
        """Allocate one pod of ``task`` to this node and return the card indices used.

        Raises
        ------
        ValueError
            If the pod does not fit.
        """
        if not self.available:
            raise ValueError(f"node {self.node_id} is offline (failed/drained)")
        g = task.gpus_per_pod if gpus_per_pod is None else gpus_per_pod
        task_id, task_type = task.task_id, task.task_type
        free_before, held_before = self._free_cache, self._type_gpus[task_type]
        if is_fractional_pod(g):
            # Fractional request: pick the busiest card that still fits
            # (best-fit within the node limits fragmentation).
            candidates = [dev for dev in self.gpus if dev.can_fit(g)]
            if not candidates:
                raise ValueError(f"node {self.node_id} cannot fit fractional pod of {g}")
            device = min(candidates, key=lambda d: d.free_fraction)
            device.allocate(task_id, g)
            used = [(device.index, g)]
        else:
            whole = int(round(g))
            if self._idle_cache < whole:
                raise ValueError(
                    f"node {self.node_id} has {self._idle_cache} idle GPUs, pod needs {whole}"
                )
            used = []
            for dev in self.gpus:
                if dev.is_idle:
                    dev.allocate(task_id, 1.0)
                    used.append((dev.index, 1.0))
                    if len(used) == whole:
                        break

        self.task_shares.setdefault(task_id, []).extend(used)
        self.task_types[task_id] = task_type
        self._type_gpus[task_type] = held_before + sum(fraction for _, fraction in used)
        self._refresh_capacity()
        self._notify(free_before, task_type, held_before)
        return tuple(index for index, _ in used)

    def release_task(self, task_id: str) -> float:
        """Release every GPU share held by ``task_id`` on this node."""
        shares = self.task_shares.pop(task_id, ())
        task_type = self.task_types.pop(task_id, None)
        free_before = self._free_cache
        held_before = 0.0 if task_type is None else self._type_gpus[task_type]
        freed = 0.0
        # Card by card, in card order, so a task holding several shares of
        # one card frees it once and ``freed`` is the same float sum as ever.
        for index in sorted({index for index, _ in shares}):
            freed += self.gpus[index].release(task_id)
        if task_type is not None:
            self._type_gpus[task_type] = max(0.0, held_before - freed)
        self._refresh_capacity()
        self._notify(free_before, task_type, held_before)
        return freed

    # ------------------------------------------------------------------
    # Eviction history (Score 3 / circuit breaker)
    # ------------------------------------------------------------------
    def record_eviction(self, timestamp: float) -> None:
        """Record that a spot task was evicted from this node at ``timestamp``."""
        history = self.eviction_history
        if history and timestamp < history[-1]:
            # Counting and pruning stop at the first old entry, so the
            # history stays time-ordered even for out-of-order callers.
            insort(history, timestamp)
        else:
            history.append(timestamp)

    def eviction_count_since(self, now: float, window: float) -> int:
        """Number of recorded evictions in the trailing ``window`` seconds."""
        history = self.eviction_history
        if not history:
            return 0
        cutoff = now - window
        # Old entries are dropped lazily to keep the deque bounded, but never
        # entries that are still inside the requested window.
        retention = now - max(window, 90 * 86400.0)
        while history and history[0] < retention:
            history.popleft()
        count = 0
        for timestamp in reversed(history):
            if timestamp < cutoff:
                break
            count += 1
        return count

    def snapshot(self) -> Dict[str, float]:
        """A dictionary snapshot used by reporting and tests."""
        return {
            "node_id": self.node_id,
            "model": self.gpu_model.value,
            "available": self.available,
            "total_gpus": self.num_gpus,
            "idle_gpus": self.idle_gpus,
            "allocated": self.allocated_gpus,
            "hp_gpus": self.hp_gpus,
            "spot_gpus": self.spot_gpus,
            "allocation_rate": self.allocation_rate,
        }


def make_nodes(
    count: int,
    gpu_model: GPUModel,
    gpus_per_node: int = 8,
    cluster_label: str = "default",
    prefix: Optional[str] = None,
) -> List[Node]:
    """Create ``count`` homogeneous nodes of the given model."""
    prefix = prefix or f"{gpu_model.value.lower()}-{cluster_label}"
    return [
        Node(
            node_id=f"{prefix}-{i:04d}",
            gpu_model=gpu_model,
            num_gpus=gpus_per_node,
            cluster_label=cluster_label,
        )
        for i in range(count)
    ]

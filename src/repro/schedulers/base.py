"""Scheduler interface and shared behaviour.

Every scheduler (the four baselines and GFS itself) implements this
interface; the simulator only interacts with schedulers through it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from ..cluster import Cluster, SchedulingDecision, Task
from .placement import PlacementContext


class Scheduler(ABC):
    """Abstract scheduler driven by :class:`repro.cluster.ClusterSimulator`.

    Subclasses implement :meth:`try_schedule` (placement decisions) and may
    override :meth:`sort_queue` (queue ordering), :meth:`blocks_on_failure`
    (FCFS head-of-line semantics) and the ``on_*`` notification hooks.  The
    simulator is duck-typed: any object with these methods works, but
    inheriting from this class gets the default FCFS ordering for free.

    Example
    -------
    >>> class FirstFit(Scheduler):
    ...     def try_schedule(self, task, cluster, now, ctx=None):
    ...         placements = (ctx or PlacementContext(cluster)).find_placement(task)
    ...         return SchedulingDecision(placements=placements) if placements else None
    """

    #: human-readable name used in experiment tables
    name: str = "scheduler"

    # ------------------------------------------------------------------
    # Queue ordering
    # ------------------------------------------------------------------
    def sort_queue(self, pending: List[Task], now: float) -> List[Task]:
        """Order in which pending tasks are offered for scheduling.

        Default: first-come-first-served with HP tasks ahead of spot tasks
        submitted at the same time.
        """
        return sorted(pending, key=lambda t: (t.submit_time, not t.is_hp, t.task_id))

    def blocks_on_failure(self, task: Task) -> bool:
        """Whether a failed scheduling attempt blocks the rest of its class.

        First-come-first-served schedulers (YARN-CS, FGD) do not backfill:
        once the spot task at the head of the queue cannot be placed, the
        spot tasks behind it wait too.  Schedulers that reorder their queue
        (Chronus, Lyra, GFS) return ``False`` and keep trying later tasks.
        """
        return False

    # ------------------------------------------------------------------
    # Core decision
    # ------------------------------------------------------------------
    @abstractmethod
    def try_schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        """Attempt to place ``task``; return ``None`` to keep it queued.

        ``ctx`` is the simulator's per-pass
        :class:`~repro.schedulers.placement.PlacementContext` (shared node
        views, indexed candidate enumeration, failed-shape memo).  It is
        optional so direct calls and third-party duck-typed schedulers
        keep working; implementations should build a transient context
        when it is ``None``.
        """

    # ------------------------------------------------------------------
    # Optional notification hooks
    # ------------------------------------------------------------------
    def on_simulation_start(self, cluster: Cluster, now: float) -> None:
        """Called once before the first event is processed."""

    def on_task_submit(self, task: Task, cluster: Cluster, now: float) -> None:
        """Called when a task enters the waiting queue."""

    def on_task_start(self, task: Task, cluster: Cluster, now: float) -> None:
        """Called when a task starts running."""

    def on_task_finish(self, task: Task, cluster: Cluster, now: float) -> None:
        """Called when a task completes."""

    def on_task_evicted(self, task: Task, cluster: Cluster, now: float) -> None:
        """Called when a spot task is preempted."""

    def on_tick(self, cluster: Cluster, now: float, pending: List[Task]) -> None:
        """Called at every periodic simulator tick (quota updates, feedback)."""

    # ------------------------------------------------------------------
    # Optional cluster-dynamics hooks (failures, drains, elastic capacity)
    # ------------------------------------------------------------------
    def on_node_down(self, node, cluster: Cluster, now: float) -> None:
        """Called after a node left the fleet (failure/drain/reclaim).

        The node's tasks have already been killed and requeued and its
        capacity removed from every aggregate and candidate index;
        schedulers that cache per-node state should invalidate it here.
        """

    def on_node_up(self, node, cluster: Cluster, now: float) -> None:
        """Called after a node rejoined the fleet (repair/activation)."""

    def on_task_killed(self, task: Task, cluster: Cluster, now: float) -> None:
        """Called when cluster dynamics killed a running task (any class).

        Distinct from :meth:`on_task_evicted`: kills are infrastructure
        faults, not scheduler preemptions, and may strike HP tasks.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"

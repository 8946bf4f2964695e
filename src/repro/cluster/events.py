"""Event types exchanged between the simulator, schedulers and dynamics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import FrozenSet, List, Optional

from .task import PodPlacement, Task


class EventKind(int, Enum):
    """Discrete-event kinds, ordered by processing priority at equal times.

    The first three kinds are the original task-driven loop; the dynamics
    kinds (``NODE_FAIL``/``NODE_REPAIR``/``NODE_DRAIN``/``CAPACITY_CHANGE``)
    carry cluster-dynamics actions from a pre-generated fault schedule (see
    :mod:`repro.dynamics`).  Dynamics kinds deliberately sort *after* the
    task kinds at equal timestamps: a task finishing or arriving at the
    exact instant a node vanishes is processed against the pre-outage
    cluster, which is what makes the schedule-then-fail edge case (a task
    placed and killed at the same timestamp) well defined.
    """

    TASK_FINISH = 0      # releases resources first so arrivals can reuse them
    TASK_ARRIVAL = 1
    QUOTA_TICK = 2
    NODE_FAIL = 4        # unplanned node loss: rollback to last checkpoint
    NODE_REPAIR = 5      # failed/drained node rejoins the fleet
    NODE_DRAIN = 6       # planned maintenance: checkpoint-and-requeue
    CAPACITY_CHANGE = 7  # elastic fleet / spot reclamation add or remove


#: Event kinds injected by the cluster-dynamics subsystem.
DYNAMICS_EVENT_KINDS: FrozenSet[EventKind] = frozenset(
    {
        EventKind.NODE_FAIL,
        EventKind.NODE_REPAIR,
        EventKind.NODE_DRAIN,
        EventKind.CAPACITY_CHANGE,
    }
)


@dataclass(frozen=True)
class DynamicsAction:
    """Payload of a dynamics event: one node going offline or online.

    ``cause`` records which generator produced the outage (``"failure"``,
    ``"drain"``, ``"reclaim"`` or ``"elastic"``); ``graceful`` selects the
    kill semantics for tasks running on the node (checkpoint-and-requeue
    for planned events vs rollback-to-last-checkpoint for abrupt ones);
    ``online`` marks the second half of an outage window (the node
    rejoining the fleet).
    """

    node_id: str
    cause: str = "failure"
    graceful: bool = False
    online: bool = False


@dataclass
class Event:
    """A scheduled simulator event.

    Heaped as ``(time, kind, tiebreak, seq, event)``: ``heapq`` compares
    the key in C, and ``seq`` is unique, so never the event.  ``tiebreak`` is the
    task id for ``TASK_ARRIVAL`` events and empty for every other kind:
    simultaneous arrivals are processed in task-id order — the same
    tie-break :meth:`~repro.workloads.trace.Trace.sorted_tasks` applies —
    so a task submitted *mid-flight* (streaming service mode) lands in
    exactly the position a batch replay of the merged trace would give
    it, instead of wherever its push sequence number happens to fall.
    For batch submissions in ``sorted_tasks()`` order the push sequence
    already increases with the task id, so the ordering is unchanged.
    """

    time: float
    kind: EventKind
    tiebreak: str = ""
    seq: int = 0
    task: Optional[Task] = field(default=None, compare=False)
    epoch: int = field(default=0, compare=False)
    #: dynamics payload (:class:`DynamicsAction`) for dynamics kinds
    payload: Optional[DynamicsAction] = field(default=None, compare=False)


@dataclass
class SchedulingDecision:
    """Outcome of a successful scheduling attempt for one task.

    Attributes
    ----------
    placements:
        One :class:`PodPlacement` per pod of the task.
    preempted_task_ids:
        Spot tasks that must be evicted before the placement is applied.
    start_delay:
        Extra seconds between the decision and actual task start (used by
        lease-based schedulers to model lease-boundary alignment).
    """

    placements: List[PodPlacement]
    preempted_task_ids: List[str] = field(default_factory=list)
    start_delay: float = 0.0

    @property
    def requires_preemption(self) -> bool:
        return bool(self.preempted_task_ids)

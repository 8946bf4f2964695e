"""Task, pod and checkpoint abstractions.

A task :math:`\\tau_i = <w_i, g_i, \\zeta_i, \\psi_i, \\iota_i>` requests
``num_pods`` pods of ``gpus_per_pod`` GPUs each, carries a priority class
(HP, i.e. non-preemptible, or SPOT), a set of checkpoint milestones and a
list of run logs recording every execution attempt (Section 3.4.1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

from .gpu import GPUModel

_task_counter = itertools.count()


class TaskType(int, Enum):
    """Priority class of a task (``\\zeta_i`` in the paper).

    ``HP`` tasks hold their GPUs until completion and are never
    preempted; ``SPOT`` tasks run on surplus capacity and may be evicted
    (rolling back to their last checkpoint) when HP demand grows.

    Example
    -------
    >>> TaskType.HP > TaskType.SPOT   # priority-ordered integer enum
    True
    """

    SPOT = 0
    HP = 1


class TaskState(str, Enum):
    """Lifecycle state of a task inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class RunLog:
    """One execution attempt ``<t_s, t_e, f>`` of a task.

    ``checkpoint_index`` is the highest checkpoint milestone reached during
    the attempt (``f_{i,k}`` in the paper); ``-1`` means none.
    """

    start: float
    end: Optional[float] = None
    checkpoint_index: int = -1
    evicted: bool = False
    #: run ended because the hosting node failed/drained/was reclaimed
    killed: bool = False
    #: restart overhead paid at the start of this run (setup/checkpoint
    #: reload); wall time that produced no task progress
    overhead: float = 0.0


@dataclass
class PodPlacement:
    """Placement of one pod: a node and the GPU shares it occupies."""

    node_id: str
    gpu_indices: Tuple[int, ...]
    fraction: float = 1.0


def generate_checkpoints(duration: float, interval: float) -> List[float]:
    """Checkpoint milestones ``\\psi_i`` for a task of ``duration`` seconds.

    Milestones are cumulative progress points; the final milestone always
    coincides with task completion so a finished task has saved all work.
    """
    if interval <= 0 or duration <= 0:
        return [max(duration, 0.0)]
    count = max(1, int(math.floor(duration / interval)))
    points = [interval * (i + 1) for i in range(count)]
    if points[-1] < duration:
        points.append(duration)
    else:
        points[-1] = duration
    return points


@dataclass(eq=False)
class Task:
    """A schedulable unit of work submitted to the cluster.

    Tasks use identity-based equality/hashing: two distinct submissions are
    different tasks even if every field matches.

    Parameters mirror the paper's task tuple: ``num_pods`` (w), ``gpus_per_pod``
    (g), ``task_type`` (zeta), ``checkpoints`` (psi). ``run_logs`` (iota) is
    populated by the simulator as the task executes.

    Example
    -------
    >>> task = make_task(task_type=TaskType.SPOT, num_pods=2, gpus_per_pod=4.0,
    ...                  duration=3600.0, submit_time=0.0)
    >>> task.total_gpus
    8.0
    """

    task_id: str
    task_type: TaskType
    num_pods: int
    gpus_per_pod: float
    duration: float
    submit_time: float
    org: str = "default"
    gpu_model: Optional[GPUModel] = None
    gang: bool = False
    checkpoint_interval: float = 1800.0
    guaranteed_hours: float = 1.0
    checkpoints: List[float] = field(default_factory=list)

    # --- mutable simulation state -------------------------------------
    state: TaskState = TaskState.PENDING
    run_logs: List[RunLog] = field(default_factory=list)
    placements: List[PodPlacement] = field(default_factory=list)
    completed_work: float = 0.0          # work preserved by checkpoints
    eviction_count: int = 0
    #: runs ended by cluster dynamics (node failure/drain/reclaim); unlike
    #: ``eviction_count`` this can be non-zero for HP tasks
    dynamics_kill_count: int = 0
    #: GPU-seconds of progress lost to rollbacks caused by dynamics kills
    lost_gpu_seconds: float = 0.0
    queue_enter_time: float = 0.0        # start of the current queuing segment
    total_queue_time: float = 0.0
    first_start_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_pods < 1:
            raise ValueError("num_pods must be >= 1")
        if self.gpus_per_pod <= 0:
            raise ValueError("gpus_per_pod must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not self.checkpoints:
            self.checkpoints = generate_checkpoints(
                self.duration, self.checkpoint_interval
            )
        self.queue_enter_time = self.submit_time

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> float:
        """Total number of GPUs requested across all pods."""
        return self.num_pods * self.gpus_per_pod

    @property
    def is_hp(self) -> bool:
        """Whether the task is high priority (non-preemptible)."""
        return self.task_type is TaskType.HP

    @property
    def is_spot(self) -> bool:
        """Whether the task is a preemptible spot task."""
        return self.task_type is TaskType.SPOT

    @property
    def remaining_work(self) -> float:
        """Seconds of work left given checkpointed progress."""
        return max(0.0, self.duration - self.completed_work)

    @property
    def run_count(self) -> int:
        """Number of execution attempts so far."""
        return len(self.run_logs)

    @property
    def restart_count(self) -> int:
        """Extra execution attempts beyond the first (evictions + kills)."""
        return max(0, len(self.run_logs) - 1)

    @property
    def is_running(self) -> bool:
        return self.state is TaskState.RUNNING

    # ------------------------------------------------------------------
    # Checkpoint accounting
    # ------------------------------------------------------------------
    def highest_checkpoint_before(self, progress: float) -> int:
        """Index of the highest checkpoint milestone <= ``progress`` (-1 if none)."""
        idx = -1
        for i, point in enumerate(self.checkpoints):
            if point <= progress + 1e-9:
                idx = i
            else:
                break
        return idx

    def time_since_checkpoint(self, now: float) -> float:
        """Elapsed un-checkpointed runtime at ``now`` (Eq. 17's ``t - t_check``)."""
        if not self.is_running or not self.run_logs:
            return 0.0
        start = self.run_logs[-1].start
        elapsed = max(0.0, now - start)
        progress = self.completed_work + elapsed
        ckpt_idx = self.highest_checkpoint_before(progress)
        saved = self.checkpoints[ckpt_idx] if ckpt_idx >= 0 else 0.0
        saved = max(saved, self.completed_work)
        return max(0.0, progress - saved)

    def preemption_waste(self, now: float) -> float:
        """Resource waste ``\\vartheta`` of Eq. 17: GPUs x un-checkpointed time."""
        return self.total_gpus * self.time_since_checkpoint(now)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def jct(self) -> Optional[float]:
        """Job completion time (finish - submit), None until completion."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def jqt(self) -> float:
        """Cumulative job queuing time across all pending segments."""
        return self.total_queue_time

    # ------------------------------------------------------------------
    # Record codec (rows of a saved trace, service submit payloads)
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """The ten submission fields as plain JSON values."""
        return {
            "task_id": self.task_id,
            "task_type": int(self.task_type),
            "num_pods": self.num_pods,
            "gpus_per_pod": self.gpus_per_pod,
            "duration": self.duration,
            "submit_time": self.submit_time,
            "org": self.org,
            "gpu_model": self.gpu_model.value if self.gpu_model else None,
            "gang": self.gang,
            "checkpoint_interval": self.checkpoint_interval,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "Task":
        """Inverse of :meth:`to_record`.

        Only ``task_id``, ``num_pods``, ``gpus_per_pod`` and ``duration``
        are required (``KeyError`` otherwise); a value of the wrong type or
        range raises ``TypeError`` / ``ValueError``, as does a non-finite
        number or more than :data:`MAX_CHECKPOINTS` checkpoint intervals.
        """
        gpus_per_pod, duration, submit_time, interval = (
            _finite_field(record, name, default)
            for name, default in (
                ("gpus_per_pod", None), ("duration", None),
                ("submit_time", 0.0), ("checkpoint_interval", 1800.0),
            )
        )
        if interval > 0 and duration / interval > MAX_CHECKPOINTS:
            raise ValueError(
                f"duration {duration:g} is more than {MAX_CHECKPOINTS} "
                f"checkpoint_interval ({interval:g} s) long"
            )
        return cls(
            task_id=str(record["task_id"]),
            task_type=TaskType(int(record.get("task_type", int(TaskType.SPOT)))),
            num_pods=int(record["num_pods"]),
            gpus_per_pod=gpus_per_pod,
            duration=duration,
            submit_time=submit_time,
            org=str(record.get("org", "default")),
            gpu_model=GPUModel(record["gpu_model"]) if record.get("gpu_model") else None,
            gang=bool(record.get("gang", False)),
            checkpoint_interval=interval,
        )

    def describe(self) -> str:
        """One-line human-readable description, useful in logs and examples."""
        kind = "HP" if self.is_hp else "SPOT"
        return (
            f"{self.task_id}[{kind}] pods={self.num_pods} gpus/pod={self.gpus_per_pod} "
            f"dur={self.duration:.0f}s org={self.org} state={self.state.value}"
        )


#: most checkpoint milestones :meth:`Task.from_record` accepts per task
#: (``duration / checkpoint_interval``): the milestones are materialised
#: as a list, so one submitted record must not cost unbounded memory
MAX_CHECKPOINTS = 1_000_000


def _finite_field(record: Mapping[str, object], name: str, default: Optional[float]) -> float:
    """``record[name]`` as a finite float; ``default`` makes the field optional."""
    value = float(record[name] if default is None else record.get(name, default))
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value


def make_task(
    task_type: TaskType,
    num_pods: int,
    gpus_per_pod: float,
    duration: float,
    submit_time: float,
    org: str = "default",
    gpu_model: Optional[GPUModel] = None,
    gang: bool = False,
    checkpoint_interval: float = 1800.0,
    task_id: Optional[str] = None,
) -> Task:
    """Convenience factory that auto-generates task ids."""
    if task_id is None:
        prefix = "hp" if task_type is TaskType.HP else "spot"
        task_id = f"{prefix}-{next(_task_counter):07d}"
    return Task(
        task_id=task_id,
        task_type=task_type,
        num_pods=num_pods,
        gpus_per_pod=gpus_per_pod,
        duration=duration,
        submit_time=submit_time,
        org=org,
        gpu_model=gpu_model,
        gang=gang,
        checkpoint_interval=checkpoint_interval,
    )


def reset_task_counter() -> None:
    """Reset the global task id counter (used by tests for determinism)."""
    global _task_counter
    _task_counter = itertools.count()

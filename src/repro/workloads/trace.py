"""Trace containers and (de)serialisation.

A trace is the list of task submissions a simulation replays, together
with the per-organization demand history the GDE needs for training.  It
can be round-tripped through plain JSON — or gzip-compressed JSON when
the path ends in ``.gz`` — so generated and ingested traces can be saved
next to experiment results.  Writes are atomic (:mod:`repro.runtime.atomic`),
so an interrupted save never corrupts an existing trace file.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import Task
from ..runtime import atomic_write_bytes
from .organizations import HOURS_PER_DAY


def fluid_org_usage(
    tasks: Sequence[Task],
    hours: Optional[int] = None,
    org_names: Optional[Sequence[str]] = None,
    cluster_gpus: Optional[float] = None,
) -> Dict[str, np.ndarray]:
    """Hourly concurrent HP GPU usage per organization, fluid model.

    Every HP task is assumed to run ``[submit, submit + duration)``; its
    GPU-time is spread over the hours it overlaps.  ``hours`` fixes the
    series length (default: up to the last task end); ``org_names`` seeds
    the organizations (and their order) so quiet orgs still get a zero
    series; ``cluster_gpus`` clips aggregate usage at capacity, scaling
    every org proportionally.  Shared by the synthetic generator's
    demand-history construction and the ingest subsystem's history
    reconstruction — one implementation, one set of conventions.
    """
    hp_tasks = [t for t in tasks if t.is_hp]
    if hours is None:
        if not hp_tasks:
            return {}
        last_end = max(t.submit_time + t.duration for t in hp_tasks)
        hours = max(1, int(math.ceil(last_end / 3600.0)))
    usage: Dict[str, np.ndarray] = {name: np.zeros(hours) for name in (org_names or ())}
    for task in hp_tasks:
        start_hour = task.submit_time / 3600.0
        end_hour = min(hours, (task.submit_time + task.duration) / 3600.0)
        series = usage.setdefault(task.org, np.zeros(hours))
        for hour in range(int(start_hour), int(math.ceil(end_hour))):
            overlap = min(hour + 1, end_hour) - max(hour, start_hour)
            if overlap > 0:
                series[hour] += task.total_gpus * overlap
    if not usage:
        return {}
    if cluster_gpus is not None and cluster_gpus > 0:
        total = np.sum(np.stack(list(usage.values())), axis=0)
        scale = np.minimum(1.0, cluster_gpus / np.maximum(total, 1e-9))
        usage = {org: series * scale for org, series in usage.items()}
    return usage


def tile_history(
    profile: Dict[str, np.ndarray], history_hours: int, seed: int
) -> Dict[str, np.ndarray]:
    """Tile each org's usage profile backwards into a multi-day history.

    Each series is averaged into one hour-of-day day profile, then
    repeated over ``history_hours`` (rounded down to whole days, minimum
    one day, so hour-of-day phase agrees between history and replay) with
    5% multiplicative Gaussian noise.  The noise is drawn org by org in
    ``profile``'s order from one generator seeded with ``seed + 43``, so
    the caller's org order fixes the draws.  Shared by the synthetic
    generator and the ingest subsystem, like :func:`fluid_org_usage`.
    """
    days = max(1, int(history_hours) // HOURS_PER_DAY)
    rng = np.random.default_rng(seed + 43)
    history: Dict[str, np.ndarray] = {}
    for org, series in profile.items():
        day_profile = np.zeros(HOURS_PER_DAY)
        counts = np.zeros(HOURS_PER_DAY)
        for hour, value in enumerate(series):
            day_profile[hour % HOURS_PER_DAY] += value
            counts[hour % HOURS_PER_DAY] += 1
        day_profile /= np.maximum(counts, 1.0)
        noise = rng.normal(1.0, 0.05, size=(days, HOURS_PER_DAY))
        history[org] = np.maximum(0.0, day_profile * noise).ravel()
    return history


@dataclass
class TraceStatistics:
    """Summary statistics of a trace (used to validate calibration)."""

    num_hp: int
    num_spot: int
    hp_gpu_histogram: Dict[str, float]
    spot_gpu_histogram: Dict[str, float]
    hp_gang_fraction: float
    spot_gang_fraction: float
    duration_p50: float
    duration_p90: float
    duration_p99: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_hp": self.num_hp,
            "num_spot": self.num_spot,
            "hp_gpu_histogram": self.hp_gpu_histogram,
            "spot_gpu_histogram": self.spot_gpu_histogram,
            "hp_gang_fraction": self.hp_gang_fraction,
            "spot_gang_fraction": self.spot_gang_fraction,
            "duration_p50": self.duration_p50,
            "duration_p90": self.duration_p90,
            "duration_p99": self.duration_p99,
        }


@dataclass
class Trace:
    """A replayable workload trace.

    Bundles the task list with the per-organization hourly GPU demand
    history the GDE forecaster trains on, plus generation metadata (seed,
    scale, scenario).  Feed ``sorted_tasks()`` to the simulator so
    arrivals are replayed in submission order.

    Example
    -------
    >>> trace = generate_trace(cluster_gpus=256.0)
    >>> metrics = run_simulation(cluster, scheduler, trace.sorted_tasks())
    >>> trace.statistics().num_hp > 0
    True
    """

    tasks: List[Task] = field(default_factory=list)
    #: organization name -> hourly GPU demand history (for GDE training)
    org_history: Dict[str, np.ndarray] = field(default_factory=dict)
    #: metadata (seed, scale, scenario name, ...)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def hp_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.is_hp]

    @property
    def spot_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.is_spot]

    @property
    def horizon(self) -> float:
        """Last submission time in the trace (seconds)."""
        return max((t.submit_time for t in self.tasks), default=0.0)

    def sorted_tasks(self) -> List[Task]:
        """Tasks in replay order: ``(submit_time, task_id)``.

        The task-id tie-break keeps replay order — and therefore every
        downstream metric — deterministic for traces with simultaneous
        arrivals (common in ingested external logs with coarse
        timestamps), independent of how the task list was assembled.
        """
        return sorted(self.tasks, key=lambda t: (t.submit_time, t.task_id))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @staticmethod
    def _gpu_bucket(task: Task) -> str:
        size = task.gpus_per_pod
        if size < 1.0:
            return "<1"
        return str(int(round(size)))

    def statistics(self) -> TraceStatistics:
        """Compute the calibration statistics of this trace."""

        def histogram(tasks: Sequence[Task]) -> Dict[str, float]:
            counts: Dict[str, int] = {}
            for t in tasks:
                counts[self._gpu_bucket(t)] = counts.get(self._gpu_bucket(t), 0) + 1
            total = max(1, len(tasks))
            return {k: v / total for k, v in sorted(counts.items())}

        def gang_fraction(tasks: Sequence[Task]) -> float:
            if not tasks:
                return 0.0
            return sum(1 for t in tasks if t.gang) / len(tasks)

        durations = sorted(t.duration for t in self.tasks) or [0.0]
        arr = np.array(durations)
        return TraceStatistics(
            num_hp=len(self.hp_tasks),
            num_spot=len(self.spot_tasks),
            hp_gpu_histogram=histogram(self.hp_tasks),
            spot_gpu_histogram=histogram(self.spot_tasks),
            hp_gang_fraction=gang_fraction(self.hp_tasks),
            spot_gang_fraction=gang_fraction(self.spot_tasks),
            duration_p50=float(np.percentile(arr, 50)),
            duration_p90=float(np.percentile(arr, 90)),
            duration_p99=float(np.percentile(arr, 99)),
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_records(self) -> Dict[str, object]:
        """Convert to plain JSON-serialisable structures."""
        return {
            "metadata": self.metadata,
            "org_history": {k: list(map(float, v)) for k, v in self.org_history.items()},
            "tasks": [t.to_record() for t in self.tasks],
        }

    @classmethod
    def from_records(cls, records: Dict[str, object]) -> "Trace":
        tasks = [Task.from_record(r) for r in records.get("tasks", [])]
        org_history = {
            k: np.asarray(v, dtype=float) for k, v in records.get("org_history", {}).items()
        }
        return cls(tasks=tasks, org_history=org_history, metadata=dict(records.get("metadata", {})))

    @staticmethod
    def _is_gzip_path(path: Path) -> bool:
        return path.name.lower().endswith(".gz")

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON (gzip-compressed when ``path`` ends in
        ``.gz``), atomically.

        The payload is rendered in memory and handed to
        :func:`~repro.runtime.atomic_write_bytes` (unique temp file, fsync,
        rename), so a crash or interrupt mid-write leaves any previous
        version of the file intact, and concurrent saves of one path
        cannot share a temp file.
        """
        path = Path(path)
        data = json.dumps(self.to_records()).encode("utf-8")
        if self._is_gzip_path(path):
            # Fixed mtime and no embedded filename keep byte-identical
            # traces byte-identical on disk (content-keyed caching).
            buffer = io.BytesIO()
            with gzip.GzipFile(filename="", fileobj=buffer, mode="wb", mtime=0) as zipped:
                zipped.write(data)
            data = buffer.getvalue()
        atomic_write_bytes(path, data)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        if cls._is_gzip_path(path):
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                return cls.from_records(json.load(handle))
        return cls.from_records(json.loads(path.read_text()))

    def __len__(self) -> int:
        return len(self.tasks)

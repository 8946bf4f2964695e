"""GFS: the assembled preemption-aware scheduling framework.

``GFSScheduler`` wires the three modules of the paper together behind the
common :class:`repro.schedulers.base.Scheduler` interface:

* the **GDE** forecasts per-organization HP demand distributions from the
  trace's demand history plus online observations,
* the **SQA** turns those forecasts into a dynamic spot quota with
  eviction-aware feedback, and
* the **PTS** converts quota-admitted tasks into placements, preempting
  spot tasks at minimal cost when HP tasks would otherwise wait.

The ablation variants of Section 4.6 (GFS-e, GFS-d, GFS-s, GFS-p, GFS-sp)
are configuration switches on the same class; ``make_ablation`` builds them
by name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..cluster import Cluster, SchedulingDecision, Task, TaskType
from ..schedulers.base import Scheduler
from ..schedulers.placement import PlacementContext
from .gde import (
    GPUDemandEstimator,
    OnlineForecaster,
    OrgLinearOnlineForecaster,
    PreviousWeekPeakForecaster,
    SeasonalQuantileForecaster,
)
from .pts import PTSConfig, PreemptiveTaskScheduler, ScoringConfig
from .sqa import GPUInventoryEstimator, SQAConfig, SpotQuotaAllocator


@dataclass
class GFSConfig:
    """End-to-end configuration of GFS (defaults follow Table 4).

    Groups every knob of the three modules: the SQA guarantee targets
    (``guarantee_rate``/``guarantee_hours``/``queue_threshold``), the PTS
    scoring weights (``beta``/``gamma``/``penalty``), the GDE forecaster
    choice, and the ablation switches used by :func:`make_ablation`.

    Example
    -------
    >>> config = GFSConfig(guarantee_hours=2.0, forecaster="seasonal")
    >>> scheduler = GFSScheduler(config, org_history=trace.org_history)
    """

    #: preemption-cost weight beta (Eq. 19)
    beta: float = 0.5
    #: target guarantee rate p (Eq. 9)
    guarantee_rate: float = 0.9
    #: guaranteed duration H in hours (Eq. 9 / Table 6)
    guarantee_hours: float = 1.0
    #: maximum spot queuing-time threshold theta, seconds (Eq. 11)
    queue_threshold: float = 3600.0
    #: eviction-history weight gamma (Eq. 15)
    gamma: float = 0.8
    #: eviction penalty intensity m (Eq. 16)
    penalty: float = 3.0
    #: spot quota update interval, seconds
    quota_update_interval: float = 300.0
    #: which online forecaster the GDE uses:
    #: "seasonal" (default), "prev-week-peak" (GFS-e) or "orglinear"
    forecaster: str = "seasonal"
    #: disable the eta feedback loop (GFS-d keeps eta = 1.0)
    adapt_eta: bool = True
    #: disable Score2/Score3 in non-preemptive scheduling (GFS-s)
    use_colocation: bool = True
    use_eviction_awareness: bool = True
    #: replace cost-aware preemption by random selection (GFS-p)
    random_preemption: bool = False
    seed: int = 0


class GFSScheduler(Scheduler):
    """The full GFS scheduler: GDE forecasting + SQA quota + PTS placement.

    The paper's contribution assembled behind the common
    :class:`~repro.schedulers.base.Scheduler` interface: per-organization
    HP demand forecasts bound a dynamic spot quota with eviction-aware
    feedback, and quota-admitted tasks are placed by the preemption-aware
    task scheduler.  Pass the trace's ``org_history`` so the demand
    estimator has training data.

    Example
    -------
    >>> from repro import Cluster, GFSScheduler, run_simulation
    >>> from repro.workloads import generate_trace
    >>> cluster = Cluster.homogeneous(num_nodes=32)
    >>> trace = generate_trace(cluster_gpus=cluster.total_gpus())
    >>> scheduler = GFSScheduler(org_history=trace.org_history)
    >>> metrics = run_simulation(cluster, scheduler, trace.sorted_tasks())
    """

    name = "GFS"

    def __init__(
        self,
        config: Optional[GFSConfig] = None,
        org_history: Optional[Mapping[str, np.ndarray]] = None,
        org_attributes: Optional[Mapping[str, Mapping[str, str]]] = None,
    ):
        self.config = config or GFSConfig()
        self.org_history = {k: np.asarray(v, dtype=float) for k, v in (org_history or {}).items()}
        self.org_attributes = dict(org_attributes or {})

        self.gde = GPUDemandEstimator(self._build_forecaster())
        self.pts = PreemptiveTaskScheduler(
            PTSConfig(
                beta=self.config.beta,
                scoring=ScoringConfig(gamma=self.config.gamma, penalty=self.config.penalty),
                use_colocation=self.config.use_colocation,
                use_eviction_awareness=self.config.use_eviction_awareness,
                random_preemption=self.config.random_preemption,
                seed=self.config.seed,
            )
        )
        self.sqa: Optional[SpotQuotaAllocator] = None
        #: set with ``sqa`` at simulation start; ``sort_queue`` is not handed it
        self._cluster: Optional[Cluster] = None

        # Online bookkeeping for the feedback loop.
        self._start_time: float = 0.0
        self._history_offset: int = max((len(v) for v in self.org_history.values()), default=0)
        self._last_observed_hour: int = -1
        self._last_quota_update: float = -float("inf")
        self._spot_starts: Deque[Tuple[float, Task]] = deque()
        self._spot_evictions: Deque[float] = deque()
        #: exponentially smoothed eviction rate used by the feedback rule;
        #: raw windowed rates are far too noisy at simulation scale.
        self._smoothed_eviction_rate: float = 0.0
        self._eviction_smoothing: float = 0.3

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_forecaster(self) -> OnlineForecaster:
        kind = self.config.forecaster.lower()
        if kind in ("seasonal", "seasonal-quantile"):
            return SeasonalQuantileForecaster()
        if kind in ("prev-week-peak", "previous-week-peak", "naive-peak"):
            return PreviousWeekPeakForecaster()
        if kind in ("orglinear", "org-linear"):
            return OrgLinearOnlineForecaster(attributes=self.org_attributes)
        raise ValueError(f"unknown forecaster kind {self.config.forecaster!r}")

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def on_simulation_start(self, cluster: Cluster, now: float) -> None:
        self._start_time = now
        self._cluster = cluster
        history = self.org_history or {"default": np.zeros(1)}
        self.gde.fit(history)
        inventory = GPUInventoryEstimator(self.gde, capacity=cluster.total_gpus())
        self.sqa = SpotQuotaAllocator(
            inventory,
            SQAConfig(
                guarantee_rate=self.config.guarantee_rate,
                guarantee_hours=self.config.guarantee_hours,
                queue_threshold=self.config.queue_threshold,
                update_interval=self.config.quota_update_interval,
            ),
        )
        self._update_quota(cluster, now, pending=[], adapt=False)

    def on_tick(self, cluster: Cluster, now: float, pending: List[Task]) -> None:
        self._observe_demand(cluster, now, pending)
        if now - self._last_quota_update + 1e-9 >= self.config.quota_update_interval:
            self._update_quota(cluster, now, pending, adapt=self.config.adapt_eta)

    def on_task_start(self, task: Task, cluster: Cluster, now: float) -> None:
        if task.is_spot:
            self._spot_starts.append((now, task))

    def on_task_evicted(self, task: Task, cluster: Cluster, now: float) -> None:
        # The feedback loop reacts to guarantee violations: evictions that
        # strike a spot task before it completed its guaranteed duration.
        # Evictions past the guarantee are allowed by the spot SLO and must
        # not shrink the quota (they are still counted by the metrics).
        run_seconds = now - task.run_logs[-1].start if task.run_logs else 0.0
        if run_seconds < self.config.guarantee_hours * 3600.0:
            self._spot_evictions.append(now)

    # ------------------------------------------------------------------
    # Queue ordering and scheduling
    # ------------------------------------------------------------------
    def sort_queue(self, pending: List[Task], now: float) -> List[Task]:
        # A congested queue is mostly spot tasks waiting for quota, re-offered
        # on every pass.  With no HP task waiting nothing is evicted during the
        # pass, so the spot GPUs in use only grow: a task the quota turns away
        # now is turned away whenever the pass reaches it, and is not offered.
        if self.sqa is not None and all(t.task_type is TaskType.SPOT for t in pending):
            admits, in_use = self.sqa.admits, self._cluster.spot_gpus()
            pending = [t for t in pending if admits(t.num_pods * t.gpus_per_pod, in_use)]
        return self.pts.sort_queue(pending, now)

    def try_schedule(
        self,
        task: Task,
        cluster: Cluster,
        now: float,
        ctx: Optional[PlacementContext] = None,
    ) -> Optional[SchedulingDecision]:
        if task.is_spot and not self._quota_admits(task, cluster):
            return None
        decision = self.pts.schedule(
            task, cluster, now, self._total_gpu_seconds(cluster, now), ctx=ctx
        )
        if decision is not None and task.is_spot:
            task.guaranteed_hours = self.config.guarantee_hours
        return decision

    # ------------------------------------------------------------------
    # Quota plumbing
    # ------------------------------------------------------------------
    def _quota_admits(self, task: Task, cluster: Cluster) -> bool:
        if self.sqa is None:
            return True
        return self.sqa.admits(task.total_gpus, cluster.spot_gpus())

    def current_quota(self) -> float:
        """The spot quota currently in force (GPUs)."""
        return self.sqa.current_quota if self.sqa is not None else float("inf")

    def _hour_index(self, now: float) -> int:
        return self._history_offset + int((now - self._start_time) // 3600.0)

    def _observe_demand(self, cluster: Cluster, now: float, pending: List[Task]) -> None:
        """Record per-organization HP demand once per simulated hour."""
        hour = self._hour_index(now)
        if hour == self._last_observed_hour:
            return
        self._last_observed_hour = hour
        demand: Dict[str, float] = {org: 0.0 for org in self.gde.organizations()}
        for task in cluster.running_tasks.values():
            if task.is_hp:
                demand[task.org] = demand.get(task.org, 0.0) + task.total_gpus
        for task in pending:
            if task.is_hp:
                demand[task.org] = demand.get(task.org, 0.0) + task.total_gpus
        for org, value in demand.items():
            self.gde.observe(org, hour, value)

    def _recent_spot_conditions(self, now: float) -> Tuple[float, float]:
        """Observed eviction rate and max spot queuing time over the past H hours."""
        window = self.config.guarantee_hours * 3600.0
        cutoff = now - window
        while self._spot_starts and self._spot_starts[0][0] < cutoff:
            self._spot_starts.popleft()
        while self._spot_evictions and self._spot_evictions[0] < cutoff:
            self._spot_evictions.popleft()
        runs = len(self._spot_starts)
        evictions = len(self._spot_evictions)
        # Damp the small-sample noise of the feedback signal: a single
        # eviction among a handful of runs should not collapse the quota.
        window_rate = evictions / max(runs, 10) if (runs or evictions) else 0.0
        alpha = self._eviction_smoothing
        self._smoothed_eviction_rate = (
            (1.0 - alpha) * self._smoothed_eviction_rate + alpha * window_rate
        )
        max_queue = 0.0
        for _, task in self._spot_starts:
            max_queue = max(max_queue, task.total_queue_time)
        return self._smoothed_eviction_rate, max_queue

    def _update_quota(self, cluster: Cluster, now: float, pending: List[Task], adapt: bool) -> None:
        if self.sqa is None:
            return
        eviction_rate, max_queue = self._recent_spot_conditions(now)
        for task in pending:
            if task.is_spot:
                max_queue = max(max_queue, now - task.queue_enter_time)
        self.sqa.compute_quota(
            now=now,
            start_hour=self._hour_index(now),
            idle_gpus=cluster.idle_gpus(),
            guaranteed_spot_gpus=cluster.spot_gpus_with_guarantee(
                self.config.guarantee_hours, now
            ),
            eviction_rate=eviction_rate,
            max_queue_time=max_queue,
            adapt=adapt,
        )
        self._last_quota_update = now

    def _total_gpu_seconds(self, cluster: Cluster, now: float) -> float:
        elapsed = max(1.0, now - self._start_time)
        return cluster.total_gpus() * elapsed


#: Mapping of ablation names (Section 4.6) to configuration overrides.
ABLATION_OVERRIDES: Dict[str, Dict[str, object]] = {
    "gfs": {},
    "gfs-e": {"forecaster": "prev-week-peak"},
    "gfs-d": {"adapt_eta": False},
    "gfs-s": {"use_colocation": False, "use_eviction_awareness": False},
    "gfs-p": {"random_preemption": True},
    "gfs-sp": {
        "use_colocation": False,
        "use_eviction_awareness": False,
        "random_preemption": True,
    },
}


def make_ablation(
    name: str,
    config: Optional[GFSConfig] = None,
    org_history: Optional[Mapping[str, np.ndarray]] = None,
    org_attributes: Optional[Mapping[str, Mapping[str, str]]] = None,
    **config_overrides,
) -> GFSScheduler:
    """Build GFS or one of its Section 4.6 ablation variants by name.

    Variant names map to configuration overrides: ``"gfs-e"`` swaps the
    forecaster for last week's peak, ``"gfs-d"`` freezes the eta feedback
    loop, ``"gfs-s"`` disables the co-location/eviction-awareness scores,
    ``"gfs-p"`` randomises preemption victims and ``"gfs-sp"`` combines
    the last two; extra keyword overrides win over the variant's.

    Example
    -------
    >>> scheduler = make_ablation("gfs-sp", org_history=trace.org_history)
    >>> scheduler.name
    'GFS-SP'
    """
    key = name.lower()
    if key not in ABLATION_OVERRIDES:
        raise KeyError(f"unknown GFS variant {name!r}; expected one of {sorted(ABLATION_OVERRIDES)}")
    base = config or GFSConfig()
    overrides = dict(ABLATION_OVERRIDES[key])
    overrides.update(config_overrides)
    merged = GFSConfig(**{**base.__dict__, **overrides})
    scheduler = GFSScheduler(merged, org_history=org_history, org_attributes=org_attributes)
    scheduler.name = name.upper() if key != "gfs" else "GFS"
    return scheduler

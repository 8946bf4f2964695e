"""Synthetic trace generation calibrated to the paper's published statistics.

The paper evaluates GFS on a proprietary Alibaba trace (Apr-Jun 2024,
138,403 HP tasks and 26,635 spot tasks on a 2,296-GPU A100 cluster).  That
trace is not available offline, so this module generates synthetic traces
that reproduce the published distributional properties:

* GPU-size mix and gang-scheduling fractions per task class (Table 3),
* the 2024-vs-2020 shift towards whole-card and full-node requests (Fig. 2),
* heavy-tailed runtimes with multi-hour medians (Fig. 3),
* per-organization diurnal/weekly demand patterns (Fig. 4),
* spot submission scaling for the low/medium/high workloads (Section 4.1).

Absolute rates are re-scaled to the simulated cluster capacity so that the
cluster is meaningfully loaded (peak HP demand close to capacity) at any
simulation scale.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import GPUModel, Task, TaskType, make_task
from .organizations import (
    HOURS_PER_DAY,
    OrganizationProfile,
    default_organizations,
    generate_org_demand_matrix,
)
from .trace import Trace, fluid_org_usage, tile_history


def choice_cdf(probabilities: Sequence[float]) -> Tuple[float, ...]:
    """The cdf ``Generator.choice(n, p=probabilities)`` builds and searches:
    ``bisect_right(cdf, rng.random())`` draws what ``choice`` draws, with
    the same stream, and raises on the same negative or non-finite input."""
    p = np.asarray(probabilities, dtype=float)
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError(f"probabilities must be finite and non-negative, got {p.tolist()}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


@dataclass(frozen=True)
class GPUSizeDistribution:
    """Distribution over requested GPUs per pod (one column group of Table 3);
    frozen, its :func:`choice_cdf` built once."""

    #: (gpus_per_pod, probability); fractional sizes model <1 card requests
    sizes: Sequence[Tuple[float, float]]

    def __post_init__(self) -> None:
        sizes = tuple((s, p) for s, p in self.sizes)
        probs = np.array([p for _, p in sizes], dtype=float)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_values", tuple(float(s) for s, _ in sizes))
        object.__setattr__(self, "_cdf", choice_cdf(probs / probs.sum()))

    def sample(self, rng: np.random.Generator) -> float:
        return self._values[bisect_right(self._cdf, rng.random())]


#: Table 3, HP row: <1: 0.11%, 1: 55.11%, 2: 13.37%, 4: 7.53%, 8: 23.69%.
HP_GPU_DISTRIBUTION = GPUSizeDistribution(
    sizes=[(0.5, 0.0011), (1, 0.5511), (2, 0.1337), (4, 0.0753), (8, 0.2369)]
)

#: Table 3, spot row: <1: 0.82%, 1: 67.35%, 2: 5.67%, 4: 12.00%, 8: 14.04%.
SPOT_GPU_DISTRIBUTION = GPUSizeDistribution(
    sizes=[(0.5, 0.0082), (1, 0.6735), (2, 0.0567), (4, 0.1200), (8, 0.1404)]
)

#: A 2020-era distribution for the Figure 2 comparison: 80% partial-card.
LEGACY_2020_DISTRIBUTION = GPUSizeDistribution(
    sizes=[(0.1, 0.30), (0.25, 0.25), (0.5, 0.25), (1, 0.12), (2, 0.05), (4, 0.02), (8, 0.01)]
)

#: Gang-scheduling fractions from Table 3.
HP_GANG_FRACTION = 0.0866
SPOT_GANG_FRACTION = 0.2726


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Defaults are calibrated against the paper's production trace: task
    size/duration distributions from Table 3, diurnal per-organization HP
    demand, and a spot submission rate expressed as a fraction of cluster
    capacity.  Construct directly for fine-grained control or go through
    :func:`generate_trace` for the common path.

    Example
    -------
    >>> config = WorkloadConfig(cluster_gpus=512.0, duration_hours=24.0,
    ...                         spot_scale=2.0, seed=7)
    >>> trace = SyntheticTraceGenerator(config).generate()
    """

    #: simulated cluster capacity the rates are calibrated against (GPUs)
    cluster_gpus: float = 2296.0
    #: length of the submission window, in hours
    duration_hours: float = 24.0
    #: average HP load as a fraction of capacity (peaks go higher diurnally)
    hp_target_utilization: float = 0.62
    #: average spot load (before scaling) as a fraction of capacity
    spot_target_utilization: float = 0.12
    #: spot submission-rate multiplier: 1.0 = Low, 2.0 = Medium, 4.0 = High
    spot_scale: float = 1.0
    #: relative amplitude of the diurnal arrival-intensity modulation
    diurnal_arrival_amplitude: float = 0.40
    #: median task runtime in seconds (log-normal)
    hp_median_runtime: float = 2.0 * 3600.0
    spot_median_runtime: float = 1.0 * 3600.0
    #: log-normal sigma controlling the runtime tail
    runtime_sigma: float = 1.0
    #: clip runtimes to keep the simulation horizon bounded
    max_runtime: float = 10.0 * 3600.0
    min_runtime: float = 300.0
    #: checkpoint interval for spot tasks (guaranteed-duration milestones);
    #: an eviction loses on average half this much work per GPU
    checkpoint_interval: float = 3600.0
    #: number of pods for gang tasks is drawn uniformly from this range
    gang_pod_range: Tuple[int, int] = (2, 4)
    #: gang-scheduling fraction overrides; ``None`` keeps the Table 3 values
    hp_gang_fraction: Optional[float] = None
    spot_gang_fraction: Optional[float] = None
    #: arrival bursts: every ``arrival_burst_period`` hours, the arrival
    #: intensity of ``arrival_burst_width`` consecutive hours is multiplied
    #: by ``arrival_burst_multiplier`` (total submitted work is unchanged —
    #: the profile is re-normalised, so bursts *concentrate* arrivals).
    #: ``period = 0`` disables bursts (the default).
    arrival_burst_period: int = 0
    arrival_burst_width: int = 1
    arrival_burst_multiplier: float = 1.0
    #: number of hours of per-organization demand history to attach
    history_hours: int = 14 * 24
    gpu_model: Optional[GPUModel] = GPUModel.A100
    #: largest pod size the target nodes can host (1 for single-GPU nodes);
    #: sampled sizes are clamped to this value
    max_gpus_per_pod: float = 8.0
    seed: int = 0


class SyntheticTraceGenerator:
    """Generates calibrated task traces and organization demand histories."""

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        organizations: Optional[Sequence[OrganizationProfile]] = None,
    ):
        self.config = config or WorkloadConfig()
        self.organizations = list(organizations or default_organizations(self.config.seed))
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Sampling primitives
    # ------------------------------------------------------------------
    def _sample_runtime(self, median: float) -> float:
        cfg = self.config
        value = self._rng.lognormal(mean=math.log(median), sigma=cfg.runtime_sigma)
        return float(min(cfg.max_runtime, max(cfg.min_runtime, value)))

    def _sample_task_shape(
        self, distribution: GPUSizeDistribution, gang_fraction: float
    ) -> Tuple[int, float, bool]:
        gpus_per_pod = min(distribution.sample(self._rng), self.config.max_gpus_per_pod)
        gang = bool(self._rng.random() < gang_fraction)
        if gang:
            low, high = self.config.gang_pod_range
            num_pods = int(self._rng.integers(low, high + 1))
        else:
            num_pods = 1
        return num_pods, gpus_per_pod, gang

    def _org_weights_at(self, hour: int, org_demand: Dict[str, np.ndarray]) -> np.ndarray:
        weights = np.array(
            [org_demand[o.name][hour % len(org_demand[o.name])] for o in self.organizations]
        )
        total = weights.sum()
        if total <= 0:
            return np.full(len(self.organizations), 1.0 / len(self.organizations))
        return weights / total

    def _diurnal_profile(self, hours: int) -> np.ndarray:
        """Normalised arrival-intensity multiplier per hour (mean 1.0)."""
        cfg = self.config
        amplitude = cfg.diurnal_arrival_amplitude
        profile = np.array(
            [
                1.0 + amplitude * self.organizations[0].hourly_factor(h % HOURS_PER_DAY)
                for h in range(hours)
            ]
        )
        if cfg.arrival_burst_period > 0:
            for hour in range(hours):
                if hour % cfg.arrival_burst_period < cfg.arrival_burst_width:
                    profile[hour] *= cfg.arrival_burst_multiplier
        return profile / profile.mean()

    # ------------------------------------------------------------------
    # Task stream generation
    # ------------------------------------------------------------------
    def _generate_stream(
        self,
        task_type: TaskType,
        target_utilization: float,
        distribution: GPUSizeDistribution,
        gang_fraction: float,
        median_runtime: float,
        org_demand: Dict[str, np.ndarray],
    ) -> List[Task]:
        cfg = self.config
        hours = int(math.ceil(cfg.duration_hours))
        horizon = cfg.duration_hours * 3600.0

        # Expected GPU-seconds of work to submit over the window.
        total_work = target_utilization * cfg.cluster_gpus * horizon
        mean_gpus = sum(s * p for s, p in distribution.sizes) * (
            1.0 + gang_fraction * (sum(cfg.gang_pod_range) / 2.0 - 1.0)
        )
        mean_runtime = median_runtime * math.exp(cfg.runtime_sigma**2 / 2.0)
        expected_tasks = max(1, int(round(total_work / (mean_gpus * mean_runtime))))

        profile = self._diurnal_profile(hours)
        per_hour = profile / profile.sum() * expected_tasks

        tasks: List[Task] = []
        for hour in range(hours):
            count = self._rng.poisson(per_hour[hour])
            org_cdf = choice_cdf(self._org_weights_at(hour, org_demand))
            for _ in range(count):
                submit = hour * 3600.0 + float(self._rng.uniform(0.0, 3600.0))
                if submit >= horizon:
                    continue
                num_pods, gpus_per_pod, gang = self._sample_task_shape(distribution, gang_fraction)
                org = self.organizations[bisect_right(org_cdf, self._rng.random())]
                tasks.append(
                    make_task(
                        task_type=task_type,
                        num_pods=num_pods,
                        gpus_per_pod=gpus_per_pod,
                        duration=self._sample_runtime(median_runtime),
                        submit_time=submit,
                        org=org.name,
                        gpu_model=cfg.gpu_model,
                        gang=gang,
                        checkpoint_interval=cfg.checkpoint_interval,
                    )
                )
        return tasks

    def _fluid_usage_profile(self, hp_tasks: List[Task]) -> Dict[str, np.ndarray]:
        """Per-organization concurrent HP GPU usage, assuming immediate starts.

        This "fluid" profile is what the cluster's HP demand actually looks
        like hour by hour; it is the quantity the GDE has to predict.  Usage
        is clipped at the calibrated cluster capacity.
        """
        cfg = self.config
        return fluid_org_usage(
            hp_tasks,
            hours=int(math.ceil(cfg.duration_hours)) + 1,
            org_names=[o.name for o in self.organizations],
            cluster_gpus=cfg.cluster_gpus,
        )

    def _build_demand_history(self, hp_tasks: List[Task]) -> Dict[str, np.ndarray]:
        """Synthesize a multi-week demand history consistent with the trace.

        The simulated window's fluid usage profile is tiled backwards with
        mild day-to-day noise, so the GDE trains on a history whose seasonal
        structure matches the demand the simulation will experience —
        mirroring the paper's setting where evaluation weeks resemble the
        historical weeks the model was trained on.
        """
        cfg = self.config
        return tile_history(self._fluid_usage_profile(hp_tasks), cfg.history_hours, cfg.seed)

    def generate(self) -> Trace:
        """Generate a complete trace (HP + spot tasks + org demand history)."""
        cfg = self.config
        org_demand = generate_org_demand_matrix(
            self.organizations, int(cfg.duration_hours) + 1, seed=cfg.seed + 17
        )
        hp_gang = cfg.hp_gang_fraction if cfg.hp_gang_fraction is not None else HP_GANG_FRACTION
        spot_gang = (
            cfg.spot_gang_fraction if cfg.spot_gang_fraction is not None else SPOT_GANG_FRACTION
        )
        hp_tasks = self._generate_stream(
            TaskType.HP,
            cfg.hp_target_utilization,
            HP_GPU_DISTRIBUTION,
            hp_gang,
            cfg.hp_median_runtime,
            org_demand,
        )
        spot_tasks = self._generate_stream(
            TaskType.SPOT,
            cfg.spot_target_utilization * cfg.spot_scale,
            SPOT_GPU_DISTRIBUTION,
            spot_gang,
            cfg.spot_median_runtime,
            org_demand,
        )
        history = self._build_demand_history(hp_tasks)
        trace = Trace(
            tasks=sorted(hp_tasks + spot_tasks, key=lambda t: t.submit_time),
            org_history=history,
            metadata={
                "seed": cfg.seed,
                "cluster_gpus": cfg.cluster_gpus,
                "duration_hours": cfg.duration_hours,
                "spot_scale": cfg.spot_scale,
                "num_hp": len(hp_tasks),
                "num_spot": len(spot_tasks),
            },
        )
        return trace


def generate_trace(
    cluster_gpus: float,
    duration_hours: float = 24.0,
    spot_scale: float = 1.0,
    seed: int = 0,
    **overrides,
) -> Trace:
    """One-call synthetic trace generation used by examples and benchmarks.

    Builds a :class:`WorkloadConfig` calibrated to the paper's task mix
    (Table 3) for a cluster of ``cluster_gpus`` GPUs, scales the spot
    submission rate by ``spot_scale`` (1.0 = Low, 2.0 = Medium, 4.0 =
    High) and returns a deterministic, replayable :class:`Trace` for the
    given ``seed``; extra keyword arguments override any config field.

    Example
    -------
    >>> trace = generate_trace(cluster_gpus=256.0, duration_hours=16.0,
    ...                        spot_scale=2.0, seed=42)
    >>> len(trace.tasks) > 0 and trace.metadata["seed"] == 42
    True
    """
    config = WorkloadConfig(
        cluster_gpus=cluster_gpus,
        duration_hours=duration_hours,
        spot_scale=spot_scale,
        seed=seed,
        **overrides,
    )
    return SyntheticTraceGenerator(config).generate()


def generate_legacy_2020_requests(count: int = 5000, seed: int = 0) -> List[float]:
    """Per-pod GPU request samples shaped like the Jul 2020 CDF of Figure 2."""
    rng = np.random.default_rng(seed)
    return [LEGACY_2020_DISTRIBUTION.sample(rng) for _ in range(count)]


def generate_modern_2024_requests(count: int = 5000, seed: int = 0) -> List[float]:
    """Per-pod GPU request samples shaped like the Oct 2024 CDF of Figure 2."""
    rng = np.random.default_rng(seed)
    # Nearly 100% whole-card requests with 70% full-node 8-GPU allocations.
    dist = GPUSizeDistribution(sizes=[(1, 0.12), (2, 0.08), (4, 0.10), (8, 0.70)])
    return [dist.sample(rng) for _ in range(count)]

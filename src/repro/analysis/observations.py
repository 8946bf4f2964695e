"""Statistics behind the paper's observation figures (Section 2.2).

These functions regenerate the data series shown in Figures 2-5 and 8
from synthetic traces and simulations, so that the shapes (full-card shift, heavy-tailed runtimes,
diurnal eviction peaks, inter-cluster heterogeneity) can be compared with
the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Task, TaskType, percentile
from ..workloads import OrganizationProfile, default_organizations, generate_org_demand_matrix


# ----------------------------------------------------------------------
# Figure 2: CDF of GPU requests (2020 vs 2024)
# ----------------------------------------------------------------------
def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return sorted values and their empirical CDF."""
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        return data, data
    cdf = np.arange(1, data.size + 1) / data.size
    return data, cdf


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return 0.0
    return float(np.mean(data <= threshold + 1e-12))


@dataclass
class RequestCDFComparison:
    """CDF summary comparing two eras of GPU requests (Figure 2)."""

    legacy_partial_fraction: float     # share of <1-GPU requests in 2020
    modern_full_card_fraction: float   # share of >=1-GPU requests in 2024
    modern_full_node_fraction: float   # share of 8-GPU requests in 2024
    legacy_values: List[float] = field(default_factory=list)
    modern_values: List[float] = field(default_factory=list)


def compare_request_cdfs(
    legacy_requests: Sequence[float], modern_requests: Sequence[float]
) -> RequestCDFComparison:
    """Summarise the 2020-vs-2024 shift of Figure 2."""
    legacy = np.asarray(legacy_requests, dtype=float)
    modern = np.asarray(modern_requests, dtype=float)
    return RequestCDFComparison(
        legacy_partial_fraction=float(np.mean(legacy < 1.0)) if legacy.size else 0.0,
        modern_full_card_fraction=float(np.mean(modern >= 1.0)) if modern.size else 0.0,
        modern_full_node_fraction=float(np.mean(modern >= 8.0)) if modern.size else 0.0,
        legacy_values=list(map(float, legacy)),
        modern_values=list(map(float, modern)),
    )


# ----------------------------------------------------------------------
# Figure 3: running and queuing time distributions
# ----------------------------------------------------------------------
@dataclass
class RuntimeDistribution:
    """Running/queuing statistics per GPU-request size (Figure 3)."""

    runtime_p50: float
    runtime_p90: float
    runtime_p99: float
    queue_p50_by_gpus: Dict[int, float]

    def queue_ratio(self, large: int = 8, small: int = 1) -> float:
        """How much longer large-GPU tasks queue than small ones."""
        small_q = self.queue_p50_by_gpus.get(small, 0.0)
        large_q = self.queue_p50_by_gpus.get(large, 0.0)
        if small_q <= 0:
            return float("inf") if large_q > 0 else 1.0
        return large_q / small_q


def runtime_distribution(tasks: Sequence[Task]) -> RuntimeDistribution:
    """Compute the Figure-3 style statistics from (simulated) tasks."""
    runtimes = [t.duration for t in tasks]
    queue_by_gpus: Dict[int, List[float]] = {}
    for task in tasks:
        bucket = int(round(task.gpus_per_pod)) if task.gpus_per_pod >= 1 else 0
        queue_by_gpus.setdefault(bucket, []).append(task.jqt)
    return RuntimeDistribution(
        runtime_p50=percentile(runtimes, 50),
        runtime_p90=percentile(runtimes, 90),
        runtime_p99=percentile(runtimes, 99),
        queue_p50_by_gpus={k: percentile(v, 50) for k, v in queue_by_gpus.items()},
    )


# ----------------------------------------------------------------------
# Figure 4: organization demand series
# ----------------------------------------------------------------------
def organization_demand_figure(
    organizations: Optional[Sequence[OrganizationProfile]] = None,
    hours: int = 168,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """One week of per-organization GPU demand (Figure 4)."""
    organizations = list(organizations or default_organizations(seed))
    return generate_org_demand_matrix(organizations, hours, seed=seed)


def demand_summary(demand: Mapping[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Min / max / mean per organization (the figures quoted in Observation 2)."""
    return {
        org: {
            "min": float(np.min(series)),
            "max": float(np.max(series)),
            "mean": float(np.mean(series)),
        }
        for org, series in demand.items()
    }


# ----------------------------------------------------------------------
# Figure 5: hourly eviction-rate series
# ----------------------------------------------------------------------
@dataclass
class EvictionSeries:
    """Hourly eviction rate over a simulated period (one week per entry)."""

    hours: np.ndarray
    rates: np.ndarray

    @property
    def max_rate(self) -> float:
        return float(np.max(self.rates)) if self.rates.size else 0.0

    @property
    def min_rate(self) -> float:
        return float(np.min(self.rates)) if self.rates.size else 0.0

    @property
    def median_rate(self) -> float:
        return float(np.median(self.rates)) if self.rates.size else 0.0


def hourly_eviction_series(tasks: Sequence[Task], horizon_hours: int) -> EvictionSeries:
    """Hourly eviction rate: evictions / runs started in each hour."""
    runs = np.zeros(horizon_hours)
    evictions = np.zeros(horizon_hours)
    for task in tasks:
        if task.task_type is not TaskType.SPOT:
            continue
        for log in task.run_logs:
            hour = int(log.start // 3600)
            if 0 <= hour < horizon_hours:
                runs[hour] += 1
                if log.evicted:
                    evictions[hour] += 1
    rates = np.divide(evictions, np.maximum(runs, 1.0))
    return EvictionSeries(hours=np.arange(horizon_hours), rates=rates)


# ----------------------------------------------------------------------
# Figure 8: node-hour allocation heatmap
# ----------------------------------------------------------------------
def allocation_heatmap(
    demand: Mapping[str, np.ndarray],
    nodes_per_cluster: Mapping[str, int],
    gpus_per_node: int = 8,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Synthesize per-node hourly GPU allocation matrices (Figure 8).

    Cluster-level demand is spread over nodes with a packing bias (some
    nodes stay persistently idle, as observed in Clusters A and C).
    """
    rng = np.random.default_rng(seed)
    heatmaps: Dict[str, np.ndarray] = {}
    for cluster, series in demand.items():
        n_nodes = nodes_per_cluster.get(cluster, 8)
        hours = len(series)
        matrix = np.zeros((n_nodes, hours))
        for hour, value in enumerate(series):
            remaining = min(value, n_nodes * gpus_per_node)
            for node in range(n_nodes):
                take = min(gpus_per_node, remaining)
                matrix[node, hour] = take
                remaining -= take
                if remaining <= 0:
                    break
        # Persistent idle nodes plus mild per-node noise.
        idle_nodes = rng.choice(n_nodes, size=max(1, n_nodes // 10), replace=False)
        matrix[idle_nodes, :] *= 0.1
        heatmaps[cluster] = matrix
    return heatmaps


def heatmap_statistics(heatmaps: Mapping[str, np.ndarray], gpus_per_node: int = 8) -> Dict[str, float]:
    """Average allocation rate per cluster (the 68.51% style figures)."""
    return {
        cluster: float(np.mean(matrix) / gpus_per_node)
        for cluster, matrix in heatmaps.items()
    }

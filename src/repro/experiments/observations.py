"""Observation experiments: Table 1 and Figures 2, 3, 4, 5 and 8.

These regenerate the data behind Section 2.2's observations from synthetic
traces and a static-quota first-fit simulation of the production cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.observations import (
    EvictionSeries,
    RequestCDFComparison,
    RuntimeDistribution,
    allocation_heatmap,
    compare_request_cdfs,
    demand_summary,
    heatmap_statistics,
    hourly_eviction_series,
    organization_demand_figure,
    runtime_distribution,
)
from ..analysis.reporting import format_table
from ..cluster import SimulationMetrics, Task
from ..workloads import (
    PRODUCTION_FLEET,
    generate_legacy_2020_requests,
    generate_modern_2024_requests,
)
from .config import ExperimentScale, MEDIUM_SCALE
from .engine import SchedulerSpec, SimulationJob, WorkloadSpec, build_simulation, check_job


@dataclass
class ObservationResults:
    """All observation artefacts bundled together."""

    request_cdf: Optional[RequestCDFComparison] = None
    runtimes: Optional[RuntimeDistribution] = None
    org_demand: Dict[str, np.ndarray] = field(default_factory=dict)
    eviction_weeks: Dict[int, EvictionSeries] = field(default_factory=dict)
    heatmap_rates: Dict[str, float] = field(default_factory=dict)
    fleet_rates: Dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        parts = []
        if self.fleet_rates:
            parts.append(
                format_table(
                    ["GPU model", "Allocation rate (%)"],
                    [[m, r * 100] for m, r in self.fleet_rates.items()],
                    title="Table 1 (fleet allocation rates, pre-GFS baseline)",
                )
            )
        if self.request_cdf:
            parts.append(
                "Figure 2: partial-card share 2020 = "
                f"{self.request_cdf.legacy_partial_fraction * 100:.1f}%, "
                f"full-card share 2024 = {self.request_cdf.modern_full_card_fraction * 100:.1f}%, "
                f"full-node share 2024 = {self.request_cdf.modern_full_node_fraction * 100:.1f}%"
            )
        if self.runtimes:
            parts.append(
                "Figure 3: runtime p50/p90/p99 = "
                f"{self.runtimes.runtime_p50 / 3600:.1f}h / {self.runtimes.runtime_p90 / 3600:.1f}h / "
                f"{self.runtimes.runtime_p99 / 3600:.1f}h; 8-GPU vs 1-GPU queue ratio = "
                f"{self.runtimes.queue_ratio():.1f}x"
            )
        if self.org_demand:
            summary = demand_summary(self.org_demand)
            parts.append(
                "Figure 4: "
                + ", ".join(
                    f"{org}: min={s['min']:.0f} max={s['max']:.0f}" for org, s in summary.items()
                )
            )
        for week, series in self.eviction_weeks.items():
            parts.append(
                f"Figure 5 week {week}: eviction max={series.max_rate * 100:.1f}% "
                f"median={series.median_rate * 100:.1f}% min={series.min_rate * 100:.1f}%"
            )
        if self.heatmap_rates:
            parts.append(
                "Figure 8: "
                + ", ".join(f"{c}: {r * 100:.1f}%" for c, r in self.heatmap_rates.items())
            )
        return "\n".join(parts)


def run_request_cdf_observation(samples: int = 5000, seed: int = 0) -> RequestCDFComparison:
    """Figure 2: 2020-vs-2024 GPU request CDFs."""
    return compare_request_cdfs(
        generate_legacy_2020_requests(samples, seed),
        generate_modern_2024_requests(samples, seed + 1),
    )


def _legacy_run(
    scale: ExperimentScale, spot_scale: float, seed_offset: int = 0
) -> Tuple[SimulationMetrics, List[Task]]:
    """One run under the pre-GFS policy (static-quota first-fit, YARN-CS).

    Built with :func:`build_simulation` rather than ``engine.run``: the
    observations read the per-task run logs *after* the run, which an
    engine cell (metrics only, possibly from cache) does not keep.
    """
    job = SimulationJob(
        key="observation",
        scale=scale,
        scheduler=SchedulerSpec(kind="yarn-cs"),
        workload=WorkloadSpec(spot_scale=spot_scale, seed_offset=seed_offset),
    )
    simulator, trace = build_simulation(check_job(job))
    simulator.submit_all(trace.sorted_tasks())
    return simulator.run(), trace.tasks


def run_runtime_observation(scale: Optional[ExperimentScale] = None) -> RuntimeDistribution:
    """Figure 3: running and queuing times under the legacy first-fit policy."""
    return runtime_distribution(_legacy_run(scale or MEDIUM_SCALE, spot_scale=2.0)[1])


def run_eviction_observation(
    scale: Optional[ExperimentScale] = None, weeks: int = 4, spot_scale: float = 2.0
) -> Dict[int, EvictionSeries]:
    """Figure 5: hourly eviction-rate series over several simulated 'weeks'.

    Each week is an independent simulation under the static-quota first-fit
    policy, with a different random seed.
    """
    scale = scale or MEDIUM_SCALE
    series: Dict[int, EvictionSeries] = {}
    for week in range(1, weeks + 1):
        _, tasks = _legacy_run(scale, spot_scale, seed_offset=week * 101)
        series[week] = hourly_eviction_series(tasks, int(scale.duration_hours) + 24)
    return series


def run_heatmap_observation(hours: int = 168, seed: int = 0) -> Dict[str, float]:
    """Figure 8: allocation-rate heatmaps of three A100 clusters."""
    demand = organization_demand_figure(hours=hours, seed=seed)
    # Three clusters of roughly 500 / 2000 / 1100 GPU cards (Figure 8).
    clusters = {"Cluster A": 8, "Cluster B": 31, "Cluster C": 17}
    cluster_demand = {
        "Cluster A": demand["org-A"] * 0.6,
        "Cluster B": (demand["org-B"] + demand["org-C"]) * 1.3,
        "Cluster C": demand["org-D"],
    }
    heatmaps = allocation_heatmap(cluster_demand, clusters, seed=seed)
    return heatmap_statistics(heatmaps)


def run_fleet_observation(
    fleet_scale: float = 0.03, duration_hours: float = 16.0, seed: int = 5
) -> Dict[str, float]:
    """Table 1: allocation rate per GPU model under the pre-GFS policy."""
    rates: Dict[str, float] = {}
    for entry in PRODUCTION_FLEET:
        scale = ExperimentScale(
            name=f"fleet-{entry.model.value}",
            num_nodes=max(2, int(round(entry.node_count * fleet_scale))),
            gpus_per_node=entry.gpus_per_node,
            duration_hours=duration_hours,
            seed=seed,
            gpu_model=entry.model,
            workload_overrides={
                "hp_target_utilization": entry.allocation_rate * 0.85,
                "max_gpus_per_pod": float(entry.gpus_per_node),
            },
        )
        rates[entry.model.value] = _legacy_run(scale, spot_scale=1.0)[0].allocation_rate_mean
    return rates


def run_observations(scale: Optional[ExperimentScale] = None) -> ObservationResults:
    """Run every observation experiment and bundle the results."""
    scale = scale or MEDIUM_SCALE
    results = ObservationResults()
    results.request_cdf = run_request_cdf_observation()
    results.org_demand = organization_demand_figure()
    results.heatmap_rates = run_heatmap_observation()
    results.runtimes = run_runtime_observation(scale)
    results.eviction_weeks = run_eviction_observation(scale)
    results.fleet_rates = run_fleet_observation()
    return results

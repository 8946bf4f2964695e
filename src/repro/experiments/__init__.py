"""Experiment harness: one runner per table/figure of the paper's evaluation.

Grid-shaped experiments (Tables 5/6/8/9/10, Figure 9 and scenario sweeps)
are declarations (:mod:`.tables`) run through the parallel experiment engine
(:mod:`.engine`), which fans the scheduler x workload x seed matrix out
across worker processes and memoises results in a content-keyed on-disk
cache (:mod:`.artifacts`).  See ``docs/experiments.md``.
"""

from .artifacts import (
    ArtifactCache,
    content_key,
    export_grid_csv,
    export_grid_json,
    flatten_metrics,
    metrics_from_payload,
    metrics_to_payload,
)
from .config import (
    ExperimentScale,
    FULL_SCALE,
    MEDIUM_SCALE,
    SMALL_SCALE,
    scale_by_name,
)
from .engine import (
    EngineStats,
    ExperimentEngine,
    SchedulerSpec,
    SimulationJob,
    WorkloadSpec,
    baseline_specs,
    build_simulation,
    cache_payload,
    comparison_specs,
    execute_job,
    gfs_spec,
    gfs_variant_spec,
    sweep_jobs,
)
from .forecasting import (
    ForecastingExperimentConfig,
    ForecastingResult,
    build_forecasting_datasets,
    run_forecasting_experiment,
)
from .observations import (
    ObservationResults,
    run_eviction_observation,
    run_fleet_observation,
    run_heatmap_observation,
    run_observations,
    run_request_cdf_observation,
    run_runtime_observation,
)
from .tables import (
    PAPER_GRIDS,
    DeploymentResult,
    GridResult,
    GridSpec,
    metric_row,
    paper_reference_benefit,
    run_deployment_experiment,
    run_grid,
    spot_levels,
    table6_grid,
)

__all__ = [
    "ArtifactCache",
    "DeploymentResult",
    "EngineStats",
    "ExperimentEngine",
    "ExperimentScale",
    "FULL_SCALE",
    "GridResult",
    "GridSpec",
    "ForecastingExperimentConfig",
    "ForecastingResult",
    "MEDIUM_SCALE",
    "ObservationResults",
    "PAPER_GRIDS",
    "SMALL_SCALE",
    "SchedulerSpec",
    "SimulationJob",
    "WorkloadSpec",
    "baseline_specs",
    "build_simulation",
    "cache_payload",
    "comparison_specs",
    "content_key",
    "execute_job",
    "export_grid_csv",
    "export_grid_json",
    "flatten_metrics",
    "build_forecasting_datasets",
    "gfs_spec",
    "gfs_variant_spec",
    "metric_row",
    "metrics_from_payload",
    "metrics_to_payload",
    "paper_reference_benefit",
    "run_deployment_experiment",
    "run_eviction_observation",
    "run_fleet_observation",
    "run_forecasting_experiment",
    "run_grid",
    "run_heatmap_observation",
    "run_observations",
    "run_request_cdf_observation",
    "run_runtime_observation",
    "scale_by_name",
    "spot_levels",
    "sweep_jobs",
    "table6_grid",
]

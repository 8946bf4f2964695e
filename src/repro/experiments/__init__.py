"""Experiment harness: one runner per table/figure of the paper's evaluation.

Grid-shaped experiments (Tables 5/6/8/9/10 and scenario sweeps) run through
the parallel experiment engine (:mod:`.engine`), which fans the scheduler x
workload x seed matrix out across worker processes and memoises results in
a content-keyed on-disk cache (:mod:`.artifacts`).  See ``docs/experiments.md``.
"""

from .ablation import AblationResult, run_table10, run_table8, run_table9
from .artifacts import (
    ArtifactCache,
    content_key,
    export_grid_csv,
    export_grid_json,
    flatten_metrics,
    metrics_from_payload,
    metrics_to_payload,
)
from .comparison import ComparisonResults, ExperimentResult, Table5Result, run_table5
from .config import (
    ExperimentScale,
    FULL_SCALE,
    MEDIUM_SCALE,
    SMALL_SCALE,
    scale_by_name,
)
from .deployment import (
    DeploymentResult,
    ModelDeploymentOutcome,
    paper_reference_benefit,
    run_deployment_experiment,
)
from .engine import (
    EngineStats,
    ExperimentEngine,
    SchedulerSpec,
    SimulationJob,
    WorkloadSpec,
    baseline_specs,
    cache_payload,
    comparison_specs,
    execute_job,
    gfs_spec,
    gfs_variant_spec,
    run_cell,
    run_cell_profiled,
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
from .sensitivity import Table6Result, run_table6

__all__ = [
    "AblationResult",
    "ArtifactCache",
    "ComparisonResults",
    "DeploymentResult",
    "EngineStats",
    "ExperimentEngine",
    "ExperimentResult",
    "ExperimentScale",
    "FULL_SCALE",
    "ForecastingExperimentConfig",
    "ForecastingResult",
    "MEDIUM_SCALE",
    "ModelDeploymentOutcome",
    "ObservationResults",
    "SMALL_SCALE",
    "SchedulerSpec",
    "SimulationJob",
    "Table5Result",
    "Table6Result",
    "WorkloadSpec",
    "baseline_specs",
    "cache_payload",
    "comparison_specs",
    "content_key",
    "execute_job",
    "run_cell",
    "run_cell_profiled",
    "export_grid_csv",
    "export_grid_json",
    "flatten_metrics",
    "build_forecasting_datasets",
    "gfs_spec",
    "gfs_variant_spec",
    "metrics_from_payload",
    "metrics_to_payload",
    "paper_reference_benefit",
    "run_deployment_experiment",
    "run_eviction_observation",
    "run_fleet_observation",
    "run_forecasting_experiment",
    "run_heatmap_observation",
    "run_observations",
    "run_request_cdf_observation",
    "run_runtime_observation",
    "run_table10",
    "run_table5",
    "run_table6",
    "run_table8",
    "run_table9",
    "scale_by_name",
    "sweep_jobs",
]

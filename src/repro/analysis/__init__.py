"""Analysis utilities: observation statistics, economics, reporting."""

from .economics import DeploymentBenefit, estimate_deployment_benefit
from .observations import (
    EvictionSeries,
    RequestCDFComparison,
    RuntimeDistribution,
    allocation_heatmap,
    cdf_at,
    compare_request_cdfs,
    demand_summary,
    empirical_cdf,
    heatmap_statistics,
    hourly_eviction_series,
    organization_demand_figure,
    runtime_distribution,
)
from .reporting import (
    SCHEDULER_COLUMNS,
    SLO_COLUMNS,
    format_scheduler_table,
    format_table,
    improvement_row,
)

__all__ = [
    "DeploymentBenefit",
    "EvictionSeries",
    "RequestCDFComparison",
    "RuntimeDistribution",
    "SCHEDULER_COLUMNS",
    "SLO_COLUMNS",
    "allocation_heatmap",
    "cdf_at",
    "compare_request_cdfs",
    "demand_summary",
    "empirical_cdf",
    "estimate_deployment_benefit",
    "format_scheduler_table",
    "format_table",
    "heatmap_statistics",
    "hourly_eviction_series",
    "improvement_row",
    "organization_demand_figure",
    "runtime_distribution",
]

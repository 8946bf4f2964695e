"""Table 5: scheduling comparison against four baselines over three spot workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..analysis.reporting import format_scheduler_table, improvement_row
from ..cluster import SimulationMetrics
from ..workloads import SpotWorkloadLevel, all_levels, spot_scale
from .config import ExperimentScale, MEDIUM_SCALE
from .engine import ExperimentEngine, WorkloadSpec, comparison_specs, sweep_jobs


@dataclass
class ExperimentResult:
    """Metrics of one scheduler under one workload."""

    scheduler: str
    workload: str
    metrics: SimulationMetrics

    def as_row(self) -> Dict[str, float]:
        return {
            "hp_jct_p99": self.metrics.hp.jct_p99,
            "hp_jct": self.metrics.hp.jct_mean,
            "hp_jqt": self.metrics.hp.jqt_mean,
            "spot_jct": self.metrics.spot.jct_mean,
            "spot_jqt": self.metrics.spot.jqt_mean,
            "spot_eviction": self.metrics.spot.eviction_rate,
            "allocation_rate": self.metrics.allocation_rate_mean,
        }


@dataclass
class ComparisonResults:
    """Results of a scheduler sweep for one workload level."""

    workload: str
    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    def rows(self) -> Dict[str, Dict[str, float]]:
        return {name: r.as_row() for name, r in self.results.items()}


@dataclass
class Table5Result:
    """All rows of Table 5: one comparison per spot workload level."""

    per_workload: Dict[str, ComparisonResults] = field(default_factory=dict)

    def report(self) -> str:
        sections = []
        for level, results in self.per_workload.items():
            rows = results.rows()
            sections.append(
                format_scheduler_table(rows, title=f"Table 5 ({level} spot workload)")
            )
            improvements = improvement_row(rows)
            if improvements:
                formatted = ", ".join(
                    f"{metric}: {value * 100:+.1f}%" for metric, value in improvements.items()
                )
                sections.append(f"GFS vs best baseline -> {formatted}")
            sections.append("")
        return "\n".join(sections)


def run_table5(
    scale: Optional[ExperimentScale] = None,
    levels: Optional[list[SpotWorkloadLevel]] = None,
    include_gfs: bool = True,
    engine: Optional[ExperimentEngine] = None,
) -> Table5Result:
    """Regenerate Table 5 at the given scale.

    The scheduler x workload grid runs through the experiment engine, so
    passing an ``engine`` with ``workers > 1`` parallelises the 12-15
    simulations across processes (and caches them, if configured).
    """
    scale = scale or MEDIUM_SCALE
    levels = levels or all_levels()
    engine = engine or ExperimentEngine()
    specs = comparison_specs(include_gfs=include_gfs)
    workloads = [
        WorkloadSpec(spot_scale=spot_scale(level), label=level.value) for level in levels
    ]
    metrics = engine.run(sweep_jobs(scale, specs, workloads, prefix="table5"))
    result = Table5Result()
    for level in levels:
        results = ComparisonResults(workload=level.value)
        for spec in specs:
            key = f"table5/{level.value}/{spec.display}"
            results.results[spec.display] = ExperimentResult(
                scheduler=spec.display, workload=level.value, metrics=metrics[key]
            )
        result.per_workload[level.value] = results
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table5().report())


if __name__ == "__main__":  # pragma: no cover
    main()

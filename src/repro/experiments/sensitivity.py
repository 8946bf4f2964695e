"""Table 6: sensitivity of spot SLOs to the guarantee hours H."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..analysis.reporting import format_table
from .config import ExperimentScale, MEDIUM_SCALE
from .engine import ExperimentEngine, WorkloadSpec, gfs_spec, sweep_jobs
from .comparison import ExperimentResult


@dataclass
class Table6Result:
    """Metrics of GFS under different guarantee-hour settings."""

    per_horizon: Dict[float, ExperimentResult] = field(default_factory=dict)

    def report(self) -> str:
        rows = []
        for hours, result in sorted(self.per_horizon.items()):
            row = result.as_row()
            rows.append(
                [
                    hours,
                    row["hp_jct"],
                    row["hp_jqt"],
                    row["spot_jct"],
                    row["spot_jqt"],
                    row["spot_eviction"] * 100,
                ]
            )
        return format_table(
            ["H", "HP JCT(s)", "HP JQT(s)", "Spot JCT(s)", "Spot JQT(s)", "Spot e(%)"],
            rows,
            title="Table 6 (guarantee hours sensitivity, medium spot workload)",
        )


def run_table6(
    scale: Optional[ExperimentScale] = None,
    guarantee_hours: Sequence[float] = (1.0, 2.0, 4.0),
    spot_scale: float = 2.0,
    engine: Optional[ExperimentEngine] = None,
) -> Table6Result:
    """Regenerate Table 6: sweep the guarantee duration H."""
    scale = scale or MEDIUM_SCALE
    engine = engine or ExperimentEngine()
    specs = [
        gfs_spec(label=f"GFS(H={hours:g})", guarantee_hours=hours)
        for hours in guarantee_hours
    ]
    workload = WorkloadSpec(spot_scale=spot_scale, label="medium")
    metrics = engine.run(sweep_jobs(scale, specs, [workload], prefix="table6"))
    result = Table6Result()
    for hours, spec in zip(guarantee_hours, specs):
        result.per_horizon[hours] = ExperimentResult(
            scheduler=spec.display,
            workload="medium",
            metrics=metrics[f"table6/medium/{spec.display}"],
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table6().report())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Tables 8-10: ablation studies of the three GFS modules.

* Table 8 — GDE ablation: GFS vs GFS-e (previous-week-peak predictor).
* Table 9 — SQA ablation: GFS vs GFS-d (fixed eta = 1, no feedback).
* Table 10 — PTS ablation: GFS vs GFS-s / GFS-p / GFS-sp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..analysis.reporting import format_table
from .config import ExperimentScale, MEDIUM_SCALE
from .engine import ExperimentEngine, WorkloadSpec, gfs_spec, gfs_variant_spec, sweep_jobs
from .comparison import ExperimentResult


@dataclass
class AblationResult:
    """Metrics of GFS and a set of degraded variants."""

    title: str
    per_variant: Dict[str, ExperimentResult] = field(default_factory=dict)

    def report(self) -> str:
        rows = []
        for name, result in self.per_variant.items():
            row = result.as_row()
            rows.append(
                [
                    name,
                    row["hp_jct"],
                    row["hp_jqt"],
                    row["spot_jct"],
                    row["spot_jqt"],
                    row["spot_eviction"] * 100,
                ]
            )
        return format_table(
            ["Variant", "HP JCT(s)", "HP JQT(s)", "Spot JCT(s)", "Spot JQT(s)", "Spot e(%)"],
            rows,
            title=self.title,
        )


def _run_variants(
    scale: ExperimentScale,
    variants: Sequence[str],
    title: str,
    spot_scale: float,
    engine: Optional[ExperimentEngine] = None,
    prefix: str = "ablation",
) -> AblationResult:
    engine = engine or ExperimentEngine()
    specs = [
        gfs_spec() if variant.lower() == "gfs" else gfs_variant_spec(variant)
        for variant in variants
    ]
    workload = WorkloadSpec(spot_scale=spot_scale, label="medium")
    metrics = engine.run(sweep_jobs(scale, specs, [workload], prefix=prefix))
    result = AblationResult(title=title)
    for spec in specs:
        result.per_variant[spec.display] = ExperimentResult(
            scheduler=spec.display,
            workload="medium",
            metrics=metrics[f"{prefix}/medium/{spec.display}"],
        )
    return result


def run_table8(
    scale: Optional[ExperimentScale] = None,
    spot_scale: float = 2.0,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """GDE ablation (Table 8): GFS-e replaces the forecaster by last week's peak."""
    return _run_variants(
        scale or MEDIUM_SCALE, ["gfs-e", "gfs"], "Table 8 (GDE ablation)", spot_scale,
        engine=engine, prefix="table8",
    )


def run_table9(
    scale: Optional[ExperimentScale] = None,
    spot_scale: float = 2.0,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """SQA ablation (Table 9): GFS-d disables the eta feedback loop."""
    return _run_variants(
        scale or MEDIUM_SCALE, ["gfs-d", "gfs"], "Table 9 (SQA ablation)", spot_scale,
        engine=engine, prefix="table9",
    )


def run_table10(
    scale: Optional[ExperimentScale] = None,
    spot_scale: float = 2.0,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """PTS ablation (Table 10): degraded scoring and/or random preemption."""
    return _run_variants(
        scale or MEDIUM_SCALE,
        ["gfs-sp", "gfs-s", "gfs-p", "gfs"],
        "Table 10 (PTS ablation)",
        spot_scale,
        engine=engine,
        prefix="table10",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    for runner in (run_table8, run_table9, run_table10):
        print(runner().report())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()

"""Every grid-shaped paper result, declared as data and run by one runner.

Tables 5, 6, 8, 9, 10, Figure 9's before/after fleet and ``cli sweep``
are the same object: scheduler specs crossed with workloads, a title and
a column layout.  A :class:`GridSpec` declares one, :func:`run_grid`
turns it into engine cells (so ``--workers``, ``--cache-dir``,
``--journal`` and ``--out`` apply to all of them alike) and returns a
:class:`GridResult` indexed by ``(workload, scheduler)``.
:data:`PAPER_GRIDS` holds the paper's tables; vary one with
:func:`dataclasses.replace`.  ``docs/experiments.md`` shows how to
declare a new table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.economics import DeploymentBenefit, estimate_deployment_benefit
from ..analysis.reporting import (
    SCHEDULER_COLUMNS,
    SLO_COLUMNS,
    format_scheduler_table,
    format_table,
    improvement_row,
)
from ..cluster import GPUModel, SimulationMetrics
from ..workloads import SpotWorkloadLevel, all_levels, scaled_fleet
from ..workloads import spot_scale as level_spot_scale
from .config import ExperimentScale, MEDIUM_SCALE
from .engine import (
    ExperimentEngine,
    SchedulerSpec,
    WorkloadSpec,
    comparison_specs,
    gfs_spec,
    gfs_variant_spec,
    sweep_jobs,
)


def metric_row(metrics: SimulationMetrics) -> Dict[str, float]:
    """The headline SLO metrics of one cell, keyed as the tables print them."""
    return {
        "hp_jct_p99": metrics.hp.jct_p99,
        "hp_jct": metrics.hp.jct_mean,
        "hp_jqt": metrics.hp.jqt_mean,
        "spot_jct": metrics.spot.jct_mean,
        "spot_jqt": metrics.spot.jqt_mean,
        "spot_eviction": metrics.spot.eviction_rate,
        "allocation_rate": metrics.allocation_rate_mean,
    }


@dataclass(frozen=True)
class GridSpec:
    """One grid-shaped result: specs x workloads x title x column layout.

    ``title`` may contain ``{workload}`` / ``{seed_offset}``, filled per
    workload section.  ``columns`` is a ``(header, metric_row key,
    factor)`` layout; the first column (``label_header``) shows
    ``row_label(spec)``, by default the scheduler's display name.
    ``improvements`` appends Table 5's "GFS vs best baseline" line.
    ``scales`` gives individual workloads their own cluster (Figure 9:
    one partition per GPU model); the rest run at the scale passed to
    :func:`run_grid`.
    """

    name: str
    title: str
    schedulers: Tuple[SchedulerSpec, ...]
    workloads: Tuple[WorkloadSpec, ...]
    columns: tuple = SCHEDULER_COLUMNS
    label_header: str = "Scheduler"
    row_label: Callable[[SchedulerSpec], object] = attrgetter("display")
    improvements: bool = False
    scales: Mapping[str, ExperimentScale] = field(default_factory=dict)


@dataclass
class GridResult:
    """Metrics of a grid, indexed by ``(workload, scheduler)`` display names."""

    grid: GridSpec
    cells: Dict[Tuple[str, str], SimulationMetrics] = field(default_factory=dict)
    #: per workload, report lines of the cells that exhausted their retry
    #: budget (``--tolerate-failures``) and so have no metrics
    failed: Dict[str, List[str]] = field(default_factory=dict)

    def rows(self, workload: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """``{scheduler: metric_row}`` of one workload (default: the first)."""
        workload = self.grid.workloads[0].cell if workload is None else workload
        return {s: metric_row(m) for (w, s), m in self.cells.items() if w == workload}

    def section(self, workload: WorkloadSpec) -> str:
        """The rendered table of one workload."""
        grid, rows = self.grid, self.rows(workload.cell)
        title = grid.title.replace("{workload}", workload.display)
        title = title.replace("{seed_offset}", str(workload.seed_offset))
        labelled = {
            grid.row_label(spec): rows[spec.display]
            for spec in grid.schedulers
            if spec.display in rows
        }
        table = format_scheduler_table(labelled, title, grid.columns, grid.label_header)
        lines = [table if rows else title, *self.failed.get(workload.cell, [])]
        improvements = improvement_row(rows) if grid.improvements else None
        if improvements:
            formatted = ", ".join(f"{m}: {v * 100:+.1f}%" for m, v in improvements.items())
            lines.append(f"GFS vs best baseline -> {formatted}")
        return "\n".join(lines)

    def report(self) -> str:
        sections = "\n\n".join(self.section(workload) for workload in self.grid.workloads)
        # Table 5 has always ended with the blank line that follows each level.
        return sections + "\n" if self.grid.improvements else sections


def run_grid(
    grid: GridSpec,
    scale: Optional[ExperimentScale] = None,
    engine: Optional[ExperimentEngine] = None,
) -> GridResult:
    """Run a declared grid through the experiment engine."""
    engine = engine or ExperimentEngine()
    jobs = [
        job
        for workload in grid.workloads
        for job in sweep_jobs(
            grid.scales.get(workload.cell, scale or MEDIUM_SCALE),
            grid.schedulers,
            [workload],
            prefix=grid.name,
        )
    ]
    metrics = engine.run(jobs)
    result = GridResult(grid)
    for job in jobs:
        if job.key in metrics:
            result.cells[job.workload.cell, job.scheduler.display] = metrics[job.key]
        else:
            # The cell exhausted its retry budget (--tolerate-failures):
            # report it instead of crashing the table.
            failure = engine.failures.get(job.key)
            result.failed.setdefault(job.workload.cell, []).append(
                f"  FAILED {job.key}: " + (failure.summary() if failure else "no result")
            )
    return result


# ----------------------------------------------------------------------
# The paper's tables
# ----------------------------------------------------------------------
def spot_levels(levels: Optional[Sequence[SpotWorkloadLevel]] = None) -> Tuple[WorkloadSpec, ...]:
    """One workload per spot submission level (all three by default)."""
    return tuple(
        WorkloadSpec(spot_scale=level_spot_scale(level), label=level.value)
        for level in levels or all_levels()
    )


def _medium(name: str, title: str, schedulers: Sequence[SchedulerSpec], **layout) -> GridSpec:
    """Scheduler variants side by side on the medium spot workload."""
    workloads = (WorkloadSpec(spot_scale=2.0, label="medium"),)
    return GridSpec(name, title, tuple(schedulers), workloads, SLO_COLUMNS, **layout)


def _ablation(name: str, title: str, *variants: str) -> GridSpec:
    return _medium(name, title, map(gfs_variant_spec, variants), label_header="Variant")


def table6_grid(guarantee_hours: Sequence[float] = (1.0, 2.0, 4.0)) -> GridSpec:
    """Table 6: sensitivity of spot SLOs to the guarantee hours H."""
    return _medium(
        "table6",
        "Table 6 (guarantee hours sensitivity, medium spot workload)",
        [gfs_spec(label=f"GFS(H={h:g})", guarantee_hours=h) for h in sorted(guarantee_hours)],
        label_header="H",
        row_label=lambda spec: dict(spec.gfs_config)["guarantee_hours"],
    )


#: Table 5 compares the four baselines and GFS over three spot workload
#: levels; Tables 8-10 ablate one GFS module each: GDE (GFS-e forecasts
#: last week's peak), SQA (GFS-d freezes the eta feedback loop) and PTS
#: (degraded scoring and/or random preemption).
PAPER_GRIDS: Dict[str, GridSpec] = {
    "table5": GridSpec(
        "table5",
        "Table 5 ({workload} spot workload)",
        tuple(comparison_specs()),
        spot_levels(),
        improvements=True,
    ),
    "table6": table6_grid(),
    "table8": _ablation("table8", "Table 8 (GDE ablation)", "gfs-e", "gfs"),
    "table9": _ablation("table9", "Table 9 (SQA ablation)", "gfs-d", "gfs"),
    "table10": _ablation("table10", "Table 10 (PTS ablation)", "gfs-sp", "gfs-s", "gfs-p", "gfs"),
}


# ----------------------------------------------------------------------
# Figure 9: production deployment before/after and the monthly benefit
# ----------------------------------------------------------------------
@dataclass
class DeploymentResult:
    """Figure 9: the before/after grid plus its priced monthly benefit."""

    grid: GridResult
    benefit: DeploymentBenefit

    def report(self) -> str:
        b = self.benefit
        rates = (b.eviction_before, b.eviction_after, b.allocation_before, b.allocation_after)
        table = format_table(
            ["GPU", "evict pre(%)", "evict post(%)", "alloc pre(%)", "alloc post(%)"],
            [[model.value, *(rate[model] * 100 for rate in rates)] for model in b.eviction_before],
            title=self.grid.grid.title,
        )
        return (
            f"{table}\nEstimated monthly benefit (paper fleet pricing): "
            f"${b.monthly_gain_usd:,.0f}"
        )


def run_deployment_experiment(
    fleet_scale: float = 0.04,
    duration_hours: float = 24.0,
    spot_scale: float = 2.0,
    seed: int = 11,
    engine: Optional[ExperimentEngine] = None,
) -> DeploymentResult:
    """Simulate the pre/post-GFS operating points for every GPU model.

    The paper reports per-GPU-model spot eviction and allocation rates
    before (Jan 2024) and after (Oct 2024) deploying GFS, plus a
    ~$459,715 monthly benefit.  Each GPU-model partition of the (scaled)
    Table 1 fleet is one workload with its own cluster, simulated under
    the pre-GFS policy (first-fit with a static spot quota, approximated
    by YARN-CS) and under GFS; the changes are priced with the same model.
    """
    fleet = scaled_fleet(fleet_scale)
    declaration = GridSpec(
        name="fig9",
        title="Figure 9 (deployment before/after, simulated)",
        schedulers=(SchedulerSpec(kind="yarn-cs", label="before"), gfs_spec(label="after")),
        workloads=tuple(WorkloadSpec(spot_scale=spot_scale, label=e.model.value) for e in fleet),
        scales={
            e.model.value: ExperimentScale(
                name=f"fleet-{e.model.value}",
                num_nodes=e.node_count,
                gpus_per_node=e.gpus_per_node,
                duration_hours=duration_hours,
                seed=seed,
                gpu_model=e.model,
                workload_overrides={"max_gpus_per_pod": float(e.gpus_per_node)},
            )
            for e in fleet
        },
    )
    grid = run_grid(declaration, engine=engine)

    def rates(when: str, rate) -> Dict[GPUModel, float]:
        return {e.model: rate(grid.cells[e.model.value, when]) for e in fleet}

    benefit = estimate_deployment_benefit(
        allocation_before=rates("before", lambda m: m.allocation_rate_mean),
        allocation_after=rates("after", lambda m: m.allocation_rate_mean),
        eviction_before=rates("before", lambda m: m.spot.eviction_rate),
        eviction_after=rates("after", lambda m: m.spot.eviction_rate),
    )
    return DeploymentResult(grid, benefit)


def paper_reference_benefit() -> DeploymentBenefit:
    """The benefit computed from the paper's own Figure 9 numbers."""
    return estimate_deployment_benefit()

"""Wall-clock self-profiler: where does a simulation spend its time?

Runs an instrumented simulation and reports the per-phase cost breakdown
ROADMAP item 1 ("profile a 512-node / 1M-task replay and attack the top
costs") needs: event dispatch by kind, placement search (scheduling
passes), the scheduler's tick hook (policy code: GDE forecast and SQA
quota under GFS) and metric accrual, plus headline rates (events/s,
tasks/s).

The default target is the BENCH_4 placement tier (512 nodes, 56 h,
Chronus, seed 11 — ``benchmarks/test_bench_scaling.py``'s
``PLACEMENT_CONFIGS``); ``tier="smoke"`` is the 256-node CI-sized run.
Use ``python -m repro.experiments.cli profile`` or ``make profile``.

The phase accounting comes entirely from the recorder's wall-clock
histograms; the deterministic sim channel is untouched, so profiling a
run never changes its metrics (``--check-overhead`` re-runs with the
:class:`~repro.obs.recorder.NullRecorder` and verifies bit-identical
``SimulationMetrics`` while measuring the instrumentation overhead
ratio — the number ``make bench-record`` stamps into ``BENCH_7.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .recorder import Recorder

#: The BENCH_4 placement tiers (mirrors benchmarks/test_bench_scaling.py
#: PLACEMENT_CONFIGS — Chronus re-offers the whole FCFS queue each pass,
#: making placement search the hot path).
PROFILE_TIERS: Dict[str, Dict[str, float]] = {
    "smoke": dict(num_nodes=256, duration_hours=24.0, spot_scale=2.0, seed=11),
    "full": dict(num_nodes=512, duration_hours=56.0, spot_scale=2.0, seed=11),
}


@dataclass
class PhaseCost:
    """One row of the breakdown: a named phase and its share of the run."""

    name: str
    seconds: float
    count: int
    share: float  # of total measured wall time, 0..1


@dataclass
class ProfileReport:
    """Everything ``cli profile`` prints, in structured form."""

    label: str
    wall_time_s: float
    num_tasks: int
    events: int
    passes: int
    phases: List[PhaseCost] = field(default_factory=list)
    #: NullRecorder wall time and on/off ratio (--check-overhead only)
    baseline_wall_time_s: Optional[float] = None
    metrics_identical: Optional[bool] = None

    @property
    def overhead_ratio(self) -> Optional[float]:
        """Instrumented / uninstrumented wall time (1.0 = free)."""
        if not self.baseline_wall_time_s:
            return None
        return self.wall_time_s / self.baseline_wall_time_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready report; ``phase_breakdown`` rows match BENCH_7.json."""
        out: Dict[str, object] = {
            "label": self.label,
            "wall_time_s": round(self.wall_time_s, 6),
            "num_tasks": self.num_tasks,
            "events": self.events,
            "passes": self.passes,
            "phase_breakdown": [
                {
                    "phase": phase.name.strip(),
                    "seconds": round(phase.seconds, 6),
                    "share": round(phase.share, 4),
                    "calls": phase.count,
                }
                for phase in self.phases
            ],
        }
        if self.baseline_wall_time_s is not None:
            out["uninstrumented_wall_time_s"] = round(self.baseline_wall_time_s, 6)
            out["overhead_ratio"] = round(self.overhead_ratio, 4)
            out["metrics_identical"] = self.metrics_identical
        return out

    def format(self) -> str:
        lines = [
            f"Self-profile: {self.label}",
            f"  wall time        {self.wall_time_s:8.2f} s",
            f"  tasks            {self.num_tasks:8d}  ({self.num_tasks / self.wall_time_s:,.0f}/s)"
            if self.wall_time_s > 0 else f"  tasks            {self.num_tasks:8d}",
            f"  events           {self.events:8d}  ({self.events / self.wall_time_s:,.0f}/s)"
            if self.wall_time_s > 0 else f"  events           {self.events:8d}",
            f"  scheduling passes{self.passes:8d}",
            "",
            f"  {'phase':32s} {'total s':>9s} {'share':>7s} {'calls':>9s} {'mean µs':>9s}",
        ]
        for phase in self.phases:
            mean_us = phase.seconds / phase.count * 1e6 if phase.count else 0.0
            lines.append(
                f"  {phase.name:32s} {phase.seconds:9.3f} {phase.share:6.1%} "
                f"{phase.count:9d} {mean_us:9.1f}"
            )
        if self.baseline_wall_time_s is not None:
            lines.append("")
            lines.append(
                f"  uninstrumented   {self.baseline_wall_time_s:8.2f} s  "
                f"(overhead ratio {self.overhead_ratio:.3f}x, "
                f"metrics identical: {self.metrics_identical})"
            )
        return "\n".join(lines)


def phase_breakdown(recorder: Recorder, wall_time_s: float) -> List[PhaseCost]:
    """Fold the recorder's wall histograms into the per-phase cost rows.

    Scheduling passes, the scheduler's tick hook (policy code such as
    the GFS demand forecast and quota update) and metric accrual happen
    *inside* event handlers, so their time is subtracted from the
    per-kind dispatch totals to leave ``event dispatch (other)`` —
    bookkeeping, heap churn and handler logic that is none of those.
    """
    phases: List[PhaseCost] = []
    dispatch_total = 0.0
    dispatch_count = 0
    for name, hist in sorted(recorder.histograms.items()):
        if name.startswith("sim.dispatch_s."):
            dispatch_total += hist.total
            dispatch_count += hist.count
    pass_hist = recorder.histograms.get("sim.pass_wall_s")
    tick_hist = recorder.histograms.get("sim.scheduler_tick_s")
    accrual_hist = recorder.histograms.get("sim.metric_accrual_s")
    pass_total = pass_hist.total if pass_hist else 0.0
    tick_total = tick_hist.total if tick_hist else 0.0
    accrual_total = accrual_hist.total if accrual_hist else 0.0

    def add(name: str, seconds: float, count: int) -> None:
        share = seconds / wall_time_s if wall_time_s > 0 else 0.0
        phases.append(PhaseCost(name=name, seconds=seconds, count=count, share=share))

    add("placement search (passes)", pass_total, pass_hist.count if pass_hist else 0)
    add("scheduler tick hook (policy)", tick_total, tick_hist.count if tick_hist else 0)
    add("metric accrual", accrual_total, accrual_hist.count if accrual_hist else 0)
    add(
        "event dispatch (other)",
        max(0.0, dispatch_total - pass_total - tick_total - accrual_total),
        dispatch_count,
    )
    for name, hist in sorted(recorder.histograms.items()):
        if name.startswith("sim.dispatch_s."):
            kind = name[len("sim.dispatch_s."):]
            add(f"  dispatch {kind}", hist.total, hist.count)
    add("outside dispatch (setup/teardown)", max(0.0, wall_time_s - dispatch_total), 1)
    return phases


def _timed_run(tier_cfg: Dict[str, float], scheduler_kind: str, recorder) -> Tuple[object, float, int, object]:
    """One full simulation; returns (metrics, wall s, task count, sim)."""
    # Imported here: the engine imports repro.obs for its recorder.
    from ..experiments.config import ExperimentScale
    from ..experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec, build_simulation

    job = SimulationJob(
        key="profile",
        scale=ExperimentScale(
            name="profile",
            num_nodes=int(tier_cfg["num_nodes"]),
            duration_hours=tier_cfg["duration_hours"],
            seed=int(tier_cfg["seed"]),
        ),
        scheduler=SchedulerSpec(kind=scheduler_kind),
        workload=WorkloadSpec(spot_scale=tier_cfg["spot_scale"]),
    )
    sim, trace = build_simulation(job, recorder=recorder)
    tasks = trace.sorted_tasks()
    start = time.perf_counter()
    sim.submit_all(tasks)
    metrics = sim.run()
    elapsed = time.perf_counter() - start
    return metrics, elapsed, len(tasks), sim


def run_profile(
    tier: str = "full",
    scheduler: str = "chronus",
    check_overhead: bool = False,
    overrides: Optional[Dict[str, float]] = None,
    recorder: Optional[Recorder] = None,
) -> Tuple[ProfileReport, Recorder, object]:
    """Profile one tier; returns (report, recorder, simulator).

    ``overrides`` patches tier parameters (``num_nodes`` etc.) for ad-hoc
    sizings; ``check_overhead`` also runs the NullRecorder baseline and
    asserts metric parity while measuring the overhead ratio.
    """
    if tier not in PROFILE_TIERS:
        raise KeyError(f"unknown profile tier {tier!r}; expected one of {sorted(PROFILE_TIERS)}")
    cfg = dict(PROFILE_TIERS[tier])
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    rec = recorder if recorder is not None else Recorder()
    metrics, elapsed, num_tasks, sim = _timed_run(cfg, scheduler, rec)
    report = ProfileReport(
        label=(
            f"tier={tier} scheduler={scheduler} nodes={int(cfg['num_nodes'])} "
            f"hours={cfg['duration_hours']:g} seed={int(cfg['seed'])}"
        ),
        wall_time_s=elapsed,
        num_tasks=num_tasks,
        events=int(sum(v for (name, _), v in rec.counters.items() if name == "sim.events")),
        passes=int(rec.counter_value("sim.passes")),
        phases=phase_breakdown(rec, elapsed),
    )
    if check_overhead:
        from ..experiments.artifacts import content_key, metrics_to_payload

        base_metrics, base_elapsed, _, _ = _timed_run(cfg, scheduler, None)
        report.baseline_wall_time_s = base_elapsed
        # Compared through the cache's canonical serialisation: full
        # fidelity and NaN-stable, where dataclass ``==`` is neither.
        report.metrics_identical = content_key(metrics_to_payload(metrics)) == content_key(
            metrics_to_payload(base_metrics)
        )
    return report, rec, sim

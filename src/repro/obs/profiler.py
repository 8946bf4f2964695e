"""Wall-clock self-profiler: where does a simulation spend its time?

Runs an instrumented simulation and reports the per-phase cost breakdown
ROADMAP item 1 ("profile a 512-node / 1M-task replay and attack the top
costs") needs: event dispatch by kind, placement search (scheduling
passes), the scheduler's tick hook (policy code: GDE forecast and SQA
quota under GFS) and metric accrual, plus headline rates (events/s,
tasks/s).

``python -m repro.experiments.cli profile`` (``make profile``: the
512-node, 56 h Chronus cell) profiles one :class:`SimulationJob`.

The phase accounting comes entirely from the recorder's wall-clock
histograms, folded by :func:`phase_totals` (also the source of the
engine's ``obs_*_wall_s`` sweep columns); the deterministic sim channel
is untouched, so profiling a run never changes its metrics (``--check-overhead`` re-runs with the
:class:`~repro.obs.recorder.NullRecorder` and verifies bit-identical
``SimulationMetrics`` while measuring the instrumentation overhead
ratio).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .recorder import Recorder, SimEventLog


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
        """JSON-ready report (``cli profile --json``)."""
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


def phase_totals(recorder: Recorder) -> Dict[str, Tuple[float, int]]:
    """``(seconds, calls)`` per phase, folded from the ``sim.*`` wall histograms.

    Keys: ``pass`` (placement search), ``tick`` (the scheduler's tick
    hook), ``accrual`` (metric accrual), ``dispatch`` (every handled
    event) and ``dispatch.<KIND>`` per event kind.  The first three run
    inside event handlers, so their time is part of ``dispatch``.
    """

    def total(name: str) -> Tuple[float, int]:
        hist = recorder.histograms.get(name)
        return (hist.total, hist.count) if hist else (0.0, 0)

    totals = {
        "pass": total("sim.pass_wall_s"),
        "tick": total("sim.scheduler_tick_s"),
        "accrual": total("sim.metric_accrual_s"),
    }
    seconds, calls = 0.0, 0
    for name, hist in sorted(recorder.histograms.items()):
        if name.startswith("sim.dispatch_s."):
            totals["dispatch." + name[len("sim.dispatch_s."):]] = (hist.total, hist.count)
            seconds += hist.total
            calls += hist.count
    totals["dispatch"] = (seconds, calls)
    return totals


def phase_breakdown(recorder: Recorder, wall_time_s: float) -> List[PhaseCost]:
    """The per-phase cost rows of :func:`phase_totals`.

    ``event dispatch (other)`` is dispatch time that is none of passes,
    tick hook or accrual: bookkeeping, heap churn and handler logic.
    """
    totals = phase_totals(recorder)
    inside = sum(totals[phase][0] for phase in ("pass", "tick", "accrual"))
    dispatch_s, dispatch_calls = totals["dispatch"]
    rows = [
        ("placement search (passes)", *totals["pass"]),
        ("scheduler tick hook (policy)", *totals["tick"]),
        ("metric accrual", *totals["accrual"]),
        ("event dispatch (other)", max(0.0, dispatch_s - inside), dispatch_calls),
    ]
    rows += [
        (f"  dispatch {key[len('dispatch.'):]}", seconds, calls)
        for key, (seconds, calls) in totals.items()
        if key.startswith("dispatch.")
    ]
    rows.append(("outside dispatch (setup/teardown)", max(0.0, wall_time_s - dispatch_s), 1))
    return [
        PhaseCost(name, seconds, calls, seconds / wall_time_s if wall_time_s > 0 else 0.0)
        for name, seconds, calls in rows
    ]


def _timed_run(job, recorder) -> Tuple[object, float, int, object]:
    """One full simulation; returns (metrics, wall s, task count, sim)."""
    # Imported here: the engine imports this module for phase_totals.
    from ..experiments.engine import build_simulation

    sim, trace = build_simulation(job, recorder=recorder)
    tasks = trace.sorted_tasks()
    start = time.perf_counter()
    sim.submit_all(tasks)
    metrics = sim.run()
    return metrics, time.perf_counter() - start, len(tasks), sim


def run_profile(job, check_overhead: bool = False) -> Tuple[ProfileReport, Recorder, object]:
    """Profile one :class:`~repro.experiments.engine.SimulationJob`.

    Returns ``(report, recorder, simulator)``; the recorder's
    ``sim_listener`` is a :class:`SimEventLog` of the run's sim channel,
    which trace export reads.  ``check_overhead`` also runs the job with
    the NullRecorder, comparing metrics and measuring the overhead ratio.
    """
    rec = Recorder()
    rec.sim_listener = SimEventLog()
    metrics, elapsed, num_tasks, sim = _timed_run(job, rec)
    scale = job.scale
    report = ProfileReport(
        label=(
            f"scenario={job.workload.scenario} scheduler={job.scheduler.kind} "
            f"nodes={scale.num_nodes} hours={scale.duration_hours:g} seed={job.seed}"
        ),
        wall_time_s=elapsed,
        num_tasks=num_tasks,
        events=int(sum(v for (name, _), v in rec.counters.items() if name == "sim.events")),
        passes=int(rec.counter_value("sim.passes")),
        phases=phase_breakdown(rec, elapsed),
    )
    if check_overhead:
        from ..experiments.artifacts import content_key, metrics_to_payload

        base_metrics, base_elapsed, _, _ = _timed_run(job, None)
        report.baseline_wall_time_s = base_elapsed
        # Compared through the cache's canonical serialisation: full
        # fidelity and NaN-stable, where dataclass ``==`` is neither.
        report.metrics_identical = content_key(metrics_to_payload(metrics)) == content_key(
            metrics_to_payload(base_metrics)
        )
    return report, rec, sim

"""Observability commands: ``profile`` and ``trace-viz``.

Routed from the main experiments CLI so both spellings work::

    python -m repro.experiments.cli profile --tier smoke --check-overhead
    python -m repro.experiments.cli trace-viz --scenario node_churn \\
        --scheduler gfs --trace-out trace.json

``profile`` runs the self-profiler on a BENCH_4 placement tier and
prints the per-phase wall-clock breakdown (see
:mod:`repro.obs.profiler`); ``trace-viz`` replays a scenario with a live
recorder and writes a Chrome-trace/Perfetto JSON of every task lifecycle
and scheduling pass (see :mod:`repro.obs.trace_export`).  Load the
output at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .profiler import PROFILE_TIERS, run_profile
from .recorder import Recorder
from .trace_export import write_chrome_trace


def _profile_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="cli profile",
        description="Self-profile a simulation run: per-phase wall-clock breakdown.",
    )
    parser.add_argument(
        "--tier",
        default="full",
        choices=sorted(PROFILE_TIERS),
        help="BENCH_4 placement tier: full = 512 nodes / 56 h, smoke = 256 nodes / 24 h",
    )
    parser.add_argument("--scheduler", default="chronus", help="scheduler kind to profile")
    parser.add_argument("--nodes", type=int, default=None, help="override the tier's node count")
    parser.add_argument("--hours", type=float, default=None, help="override the tier's duration")
    parser.add_argument("--seed", type=int, default=None, help="override the tier's trace seed")
    parser.add_argument(
        "--spot-scale", type=float, default=None, help="override the tier's spot multiplier"
    )
    parser.add_argument(
        "--check-overhead",
        action="store_true",
        help="also run the NullRecorder baseline: overhead ratio + metric parity",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="additionally export the profiled run as Chrome-trace JSON to this path",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout (phase_breakdown rows in "
        "the BENCH_7.json shape) instead of the text table",
    )
    args = parser.parse_args(argv)
    report, recorder, sim = run_profile(
        tier=args.tier,
        scheduler=args.scheduler,
        check_overhead=args.check_overhead,
        overrides={
            "num_nodes": args.nodes,
            "duration_hours": args.hours,
            "seed": args.seed,
            "spot_scale": args.spot_scale,
        },
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if args.check_overhead and report.metrics_identical is False:
        print("ERROR: instrumented metrics diverged from the uninstrumented run", file=sys.stderr)
        return 1
    if args.trace_out:
        out = write_chrome_trace(
            args.trace_out,
            tasks=sim.all_tasks,
            recorder=recorder,
            final_time=sim.now,
            metadata={"command": "profile", "label": report.label},
        )
        print(f"[trace written to {out}]")
    return 0


def _trace_viz_main(argv: List[str]) -> int:
    # Imported here: the engine imports repro.obs for its recorder.
    from ..dynamics import dynamics_names
    from ..experiments.config import ExperimentScale
    from ..experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec, build_simulation

    parser = argparse.ArgumentParser(
        prog="cli trace-viz",
        description="Replay a scenario and export a Chrome-trace/Perfetto JSON "
        "of task lifecycles and scheduling passes.",
    )
    parser.add_argument("--scenario", default="default", help="workload scenario name")
    parser.add_argument("--scheduler", default="gfs", help="scheduler kind")
    parser.add_argument("--nodes", type=int, default=32, help="cluster node count")
    parser.add_argument("--hours", type=float, default=8.0, help="trace duration (hours)")
    parser.add_argument("--seed", type=int, default=0, help="trace + dynamics seed")
    parser.add_argument("--spot-scale", type=float, default=2.0, help="spot submission multiplier")
    parser.add_argument(
        "--dynamics",
        default=None,
        choices=dynamics_names(),
        help="attach a dynamics preset (overrides the scenario's own)",
    )
    parser.add_argument(
        "--trace-out", "--out", dest="trace_out", default="trace.json",
        help="output path for the Chrome-trace JSON (default: trace.json)",
    )
    args = parser.parse_args(argv)

    job = SimulationJob(
        key="trace-viz",
        scale=ExperimentScale(
            name="trace-viz", num_nodes=args.nodes, duration_hours=args.hours, seed=args.seed
        ),
        scheduler=SchedulerSpec(kind=args.scheduler),
        workload=WorkloadSpec(
            scenario=args.scenario, spot_scale=args.spot_scale, dynamics=args.dynamics or ""
        ),
    )
    scenario = job.resolved_scenario()
    spec = job.resolved_dynamics()
    recorder = Recorder()
    sim, trace = build_simulation(job, recorder=recorder)
    sim.submit_all(trace.sorted_tasks())
    metrics = sim.run()

    out = write_chrome_trace(
        args.trace_out,
        tasks=sim.all_tasks,
        recorder=recorder,
        final_time=sim.now,
        metadata={
            "command": "trace-viz",
            "scenario": scenario.name,
            "scheduler": args.scheduler,
            "nodes": args.nodes,
            "hours": args.hours,
            "seed": args.seed,
            "spot_scale": args.spot_scale,
            "dynamics": spec.name if spec is not None else "",
        },
    )
    print(
        f"[trace-viz] scenario={scenario.name} scheduler={args.scheduler} "
        f"tasks={len(trace.tasks)} passes={len(recorder.pass_records)} "
        f"unfinished={metrics.unfinished_tasks}"
    )
    print(f"[trace written to {out} — load at chrome://tracing or ui.perfetto.dev]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        print("usage: cli {profile,trace-viz} [options]", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "profile":
        return _profile_main(rest)
    if command == "trace-viz":
        return _trace_viz_main(rest)
    print(f"unknown obs command {command!r}; expected profile or trace-viz", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

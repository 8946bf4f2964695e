"""Observability commands: ``profile`` and ``trace-viz``.

Routed from the main experiments CLI so both spellings work::

    python -m repro.experiments.cli profile --scheduler chronus \\
        --nodes 256 --hours 24 --seed 11 --check-overhead
    python -m repro.experiments.cli trace-viz --scenario node_churn \\
        --scheduler gfs --trace-out trace.json

Both run one simulation cell with a live recorder through
:func:`repro.obs.profiler.run_profile` and take the same flags.
``profile`` prints the per-phase wall-clock breakdown (see
:mod:`repro.obs.profiler`); ``trace-viz`` prints a one-line summary and
writes a Chrome-trace/Perfetto JSON of every task lifecycle and
scheduling pass (see :mod:`repro.obs.trace_export`) to ``trace.json``
unless ``--trace-out`` says otherwise.  Load the output at
``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..dynamics import dynamics_names
from ..experiments.config import ExperimentScale
from ..experiments.engine import JobSpecError, SchedulerSpec, SimulationJob, WorkloadSpec, check_job
from .profiler import run_profile
from .trace_export import write_chrome_trace


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] not in ("profile", "trace-viz"):
        print("usage: cli {profile,trace-viz} [options]", file=sys.stderr)
        return 2
    command = argv[0]
    parser = argparse.ArgumentParser(
        prog=f"cli {command}",
        description="Run one simulation cell with a live recorder: 'profile' prints "
        "its per-phase wall-clock breakdown, 'trace-viz' exports a "
        "Chrome-trace/Perfetto JSON of task lifecycles and scheduling passes.",
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
        "--trace-out", "--out", dest="trace_out", default=None,
        help="write the run as Chrome-trace JSON to this path "
        "(trace-viz default: trace.json)",
    )
    parser.add_argument(
        "--check-overhead",
        action="store_true",
        help="also run the NullRecorder baseline: overhead ratio + metric parity",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print profile's report as JSON instead of the text table",
    )
    args = parser.parse_args(argv[1:])

    try:
        job = check_job(SimulationJob(
            key=command,
            scale=ExperimentScale(
                name=command, num_nodes=args.nodes, duration_hours=args.hours, seed=args.seed
            ),
            scheduler=SchedulerSpec(kind=args.scheduler),
            workload=WorkloadSpec(
                scenario=args.scenario, spot_scale=args.spot_scale, dynamics=args.dynamics or ""
            ),
        ))
    except JobSpecError as err:
        parser.error(f"{err.flag}: {err}")
    scenario = job.resolved_scenario()
    spec = job.resolved_dynamics()
    report, recorder, sim = run_profile(job, check_overhead=args.check_overhead)

    if command == "profile":
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            print(report.format())
    else:
        unfinished = sum(1 for task in sim.all_tasks if task.finish_time is None)
        print(
            f"[trace-viz] scenario={scenario.name} scheduler={args.scheduler} "
            f"tasks={report.num_tasks} passes={report.passes} "
            f"unfinished={unfinished}"
        )
    if report.metrics_identical is False:
        print("ERROR: instrumented metrics diverged from the uninstrumented run", file=sys.stderr)
        return 1
    trace_out = args.trace_out or ("trace.json" if command == "trace-viz" else None)
    if trace_out:
        out = write_chrome_trace(
            trace_out,
            tasks=sim.all_tasks,
            sim_events=recorder.sim_listener,
            final_time=sim.now,
            metadata={
                "command": command,
                "scenario": scenario.name,
                "scheduler": args.scheduler,
                "nodes": args.nodes,
                "hours": args.hours,
                "seed": args.seed,
                "spot_scale": args.spot_scale,
                "dynamics": spec.name if spec is not None else "",
            },
        )
        print(f"[trace written to {out} — load at chrome://tracing or ui.perfetto.dev]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.experiments.cli table5 --scale small
    python -m repro.experiments.cli table6 table8 table9 table10 --workers 4
    python -m repro.experiments.cli fig10 fig9 observations
    python -m repro.experiments.cli all --scale medium --workers 8
    python -m repro.experiments.cli sweep --scenario burst --workers 8
    python -m repro.experiments.cli sweep --scenario trace:philly.json.gz
    python -m repro.experiments.cli sweep --scenario node_churn --workers 4
    python -m repro.experiments.cli sweep --scenario default --dynamics spot_reclaim_storm
    python -m repro.experiments.cli sweep --scenario burst --journal sweep.journal
    python -m repro.experiments.cli sweep --scenario burst --resume sweep.journal
    python -m repro.experiments.cli sweep --scenario burst --progress --telemetry events.jsonl
    python -m repro.experiments.cli scenarios
    python -m repro.experiments.cli trace convert philly.csv philly.json.gz
    python -m repro.experiments.cli serve --port 8151
    python -m repro.experiments.cli profile --nodes 256 --hours 24 --seed 11 --check-overhead
    python -m repro.experiments.cli trace-viz --scenario node_churn --trace-out trace.json

Each experiment prints the same rows as the corresponding table/figure of
the paper (the README's "Paper tables and figures" section maps each artifact
to its runner and benchmark file).  ``sweep`` runs the scheduler line-up over
any scenario from the workload scenario library; ``scenarios`` lists the
catalog.  ``--workers N`` fans the scheduler x workload grid out across N
worker processes (results are bit-identical at any worker count), and
``--cache-dir`` memoises finished cells on disk so re-runs are incremental.
``--out DIR`` exports reports plus a JSON/CSV grid of every simulated cell.
Execution is fault-tolerant: ``--journal PATH`` records completed cells
in a crash-safe write-ahead journal so ``--resume PATH`` (or simply
re-invoking) skips them after any interruption — Ctrl-C, a crash, even
``kill -9`` — with bit-identical results; ``--job-timeout``/``--retries``
bound each cell and ``--tolerate-failures`` turns exhausted cells into
reported failures instead of a non-zero exit (see
``docs/fault_tolerance.md``).
Sweeps are observable live: ``--progress`` renders a TTY progress bar
and ``--telemetry PATH`` appends structured JSON-lines events (job
lifecycle, cache/journal hits, rate/ETA, sweep summary), the same
records the ``repro.telemetry`` logger writes (see
``docs/observability.md``).
The ``trace`` group (``trace convert``/``validate``/``stats``) ingests
external cluster traces; converted traces replay through any grid
experiment via ``trace:<path>`` scenario refs.  ``--dynamics <preset>``
attaches cluster dynamics (node failures, maintenance drains, elastic
capacity — see ``docs/reliability.md``) to a sweep over any scenario,
including trace replays.  See ``docs/experiments.md`` for the full
cookbook and ``docs/traces.md`` for trace ingestion.  ``serve`` starts
the streaming scheduler service — live simulation sessions over
HTTP/JSON with incremental stepping, snapshot/restore and what-if
placement advice (see ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from ..dynamics import dynamics_names, get_dynamics
from ..obs.telemetry import JsonlSink, TelemetryBus, TTYProgressSink
from ..workloads import get_scenario, iter_scenarios
from .artifacts import ArtifactCache, export_grid_csv, export_grid_json
from .config import ExperimentScale, scale_by_name
from ..runtime import JobGuard, JournalError, SweepError
from .engine import ExperimentEngine, JobSpecError, SchedulerSpec, WorkloadSpec, comparison_specs
from .forecasting import run_forecasting_experiment
from .observations import run_observations
from .tables import (
    PAPER_GRIDS,
    GridSpec,
    paper_reference_benefit,
    run_deployment_experiment,
    run_grid,
)


def _fig9(scale: ExperimentScale, engine: ExperimentEngine) -> str:
    return run_deployment_experiment(engine=engine).report() + (
        f"\nPaper-reported operating points priced with the same model: "
        f"${paper_reference_benefit().monthly_gain_usd:,.0f}/month"
    )


def _fig10(scale: ExperimentScale, engine: ExperimentEngine) -> str:
    return run_forecasting_experiment().report()


#: name -> ``(scale, engine) -> report``; the grid-shaped tables are the
#: declarations of :data:`~.tables.PAPER_GRIDS` run through the engine
EXPERIMENTS: Dict[str, Callable[[ExperimentScale, ExperimentEngine], str]] = {
    **{
        name: (lambda scale, engine, grid=grid: run_grid(grid, scale, engine).report())
        for name, grid in PAPER_GRIDS.items()
    },
    "fig10": _fig10,
    "table7": _fig10,
    "fig9": _fig9,
    "observations": lambda scale, engine: run_observations(scale).report(),
}


def _list_scenarios() -> str:
    lines = ["Workload scenario library (cli sweep --scenario <name>):", ""]
    for scenario in iter_scenarios():
        marker = "*" if scenario.dynamics is not None else " "
        lines.append(f" {marker} {scenario.name:20s} {scenario.summary}")
    lines.append("")
    lines.append("  * = chaos scenario with cluster dynamics attached")
    lines.append(
        "Dynamics presets (sweep --dynamics <name>, composable with any "
        f"scenario): {', '.join(dynamics_names())}"
    )
    lines.append("Catalog with every knob each scenario turns: docs/workloads.md")
    lines.append("Dynamics event model and determinism contract: docs/reliability.md")
    return "\n".join(lines)


def _run_scenario_sweep(scale: ExperimentScale, args, engine: ExperimentEngine) -> str:
    """Run the scheduler line-up over one named scenario."""
    try:
        scenario = get_scenario(args.scenario)
    except (KeyError, FileNotFoundError) as exc:
        raise JobSpecError("scenario", exc.args[0]) from exc
    dynamics = get_dynamics(args.dynamics) if args.dynamics else scenario.dynamics
    # The sweep line-up adds the standalone PTS family to the paper's
    # Table 5 set (the tables themselves keep the paper's line-up).
    specs = comparison_specs(include_gfs=True) + [SchedulerSpec(kind="pts")]
    if args.schedulers:
        wanted = {name.strip().lower() for name in args.schedulers.split(",")}
        specs = [s for s in specs if s.display.lower() in wanted or s.kind in wanted]
        if not specs:
            raise SystemExit(f"no scheduler matches --schedulers {args.schedulers!r}")
    grid = GridSpec(
        name="sweep",
        title=f"Sweep ({scenario.name}, spot x{args.spot_scale:g}"
        + (", seed offset {seed_offset})" if args.seeds > 1 else ")"),
        schedulers=tuple(specs),
        workloads=tuple(
            WorkloadSpec(
                scenario=scenario.name,
                spot_scale=args.spot_scale,
                seed_offset=seed_offset,
                label=scenario.name,
                dynamics=args.dynamics or "",
            )
            for seed_offset in range(args.seeds)
        ),
    )
    header = f"Scenario: {scenario.name} — {scenario.summary}"
    if dynamics is not None:
        header += f"\nDynamics: {dynamics.name} (see docs/reliability.md)"
    return header + "\n\n" + run_grid(grid, scale, engine).report()


def _export_artifacts(out_dir: Path, reports: Dict[str, str], engine: ExperimentEngine) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, report in reports.items():
        (out_dir / f"{name}.txt").write_text(report + "\n")
    rows = engine.grid_rows()
    if rows:
        export_grid_json(rows, out_dir / "grid.json")
        export_grid_csv(rows, out_dir / "grid.csv")
    print(f"[artifacts written to {out_dir}: {len(reports)} report(s), {len(rows)} grid row(s)]")


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        # The trace ingestion group has its own option surface; hand it
        # off before the experiment parser rejects its flags.
        from .trace_cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        # The streaming scheduler service likewise owns its options
        # (--host/--port); see docs/service.md.
        from ..service.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] in ("profile", "trace-viz"):
        # Observability commands: self-profiler and Chrome-trace export
        # (see docs/observability.md).
        from ..obs.cli import main as obs_main

        return obs_main(argv)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all", "sweep", "scenarios"],
        help="experiments to regenerate, 'sweep' for a scenario sweep, "
        "'scenarios' to list the scenario library",
    )
    parser.add_argument("--scale", default="small", help="small, medium or full")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for grid experiments (1 = serial reference path)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache (enables incremental re-runs)",
    )
    parser.add_argument(
        "--out", default=None, help="export reports plus a JSON/CSV grid to this directory"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the observability recorder to every simulated cell and "
        "add obs_* profile columns to the exported grid (see docs/observability.md)",
    )
    parser.add_argument("--scenario", default="default", help="scenario name for 'sweep'")
    parser.add_argument(
        "--dynamics",
        default=None,
        choices=dynamics_names(),
        help="attach a cluster-dynamics preset to 'sweep'; overrides the "
        "scenario's own dynamics (see docs/reliability.md)",
    )
    parser.add_argument(
        "--spot-scale",
        type=float,
        default=2.0,
        help="spot submission multiplier for 'sweep' (1=low, 2=medium, 4=high)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, help="number of seed offsets for 'sweep'"
    )
    parser.add_argument(
        "--schedulers",
        default=None,
        help="comma-separated scheduler subset for 'sweep' (e.g. GFS,YARN-CS)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="override the scale's node count"
    )
    parser.add_argument(
        "--hours", type=float, default=None, help="override the scale's duration (hours)"
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead sweep journal: completed cells are durably recorded "
        "and re-invoking with the same journal (or --resume) skips them, "
        "even after a crash or kill -9 (see docs/fault_tolerance.md)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from an existing sweep journal (like --journal, but "
        "PATH must exist; completed cells replay bit-identically, the rest run)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline; cells then run in worker processes (one at "
        "--workers 1), and an expired cell's pool is killed and rebuilt, the cell retries",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="re-executions allowed per failing cell before it is reported "
        "as a structured failure (default 2, deterministic backoff)",
    )
    parser.add_argument(
        "--tolerate-failures",
        action="store_true",
        help="finish the grid and exit 0 even if cells exhausted their retry "
        "budget (failed cells are reported and absent from exports); "
        "default is to finish the grid, then exit 1",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live sweep progress on stderr (ANSI bar on a TTY, plain "
        "throttled lines otherwise) driven by the telemetry bus",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append every structured telemetry event (job lifecycle, "
        "cache/journal hits, progress, sweep summary) to PATH as JSON "
        "lines; validate with 'python -m repro.obs.telemetry validate'",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds {args.seeds}: must be at least 1")
    if args.resume and not Path(args.resume).exists():
        # A typo must not silently start an empty journal and redo the grid.
        parser.error(f"--resume {args.resume}: no such journal (use --journal to start one)")

    scale = scale_by_name(args.scale)
    if args.nodes is not None or args.hours is not None:
        from dataclasses import replace

        scale = replace(
            scale,
            name=f"{scale.name}*",
            num_nodes=args.nodes if args.nodes is not None else scale.num_nodes,
            duration_hours=args.hours if args.hours is not None else scale.duration_hours,
        )

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    guard = JobGuard(
        timeout_s=args.job_timeout,
        retries=max(0, args.retries),
        strict=not args.tolerate_failures,
    )
    journal = args.resume or args.journal

    sinks = [TTYProgressSink()] if args.progress else []
    if args.telemetry:
        sinks.append(JsonlSink(args.telemetry))
    telemetry = TelemetryBus(sinks=sinks)

    engine = ExperimentEngine(
        workers=args.workers,
        cache=cache,
        profile=args.profile,
        guard=guard,
        journal=journal,
        telemetry=telemetry,
    )

    if "all" in args.experiments:
        names = sorted(EXPERIMENTS)
    else:
        names = args.experiments

    reports: Dict[str, str] = {}
    interrupted = False
    sweep_failures = []
    try:
        for name in names:
            start = time.perf_counter()
            print(f"===== {name} (scale={scale.name}) =====")
            if name == "scenarios":
                report = _list_scenarios()
            elif name == "sweep":
                report = _run_scenario_sweep(scale, args, engine)
            else:
                report = EXPERIMENTS[name](scale, engine)
            reports[name.replace("/", "_")] = report
            print(report)
            print(f"[{name} finished in {time.perf_counter() - start:.1f}s]\n")
    except KeyboardInterrupt:
        # Graceful drain already happened inside the engine: in-flight
        # cells finished and were journaled/cached.  Flush what we have
        # and tell the user how to pick the sweep back up.
        interrupted = True
        print("\n[interrupted: draining finished; flushing partial results]")
    except SweepError as err:
        # The rest of the grid completed (and was journaled/cached)
        # before this was raised; report and exit non-zero.
        sweep_failures = err.failures
    except JobSpecError as err:
        # A bad run parameter, refused before any cell ran: exit 2 naming
        # the flag, never a retried cell.
        parser.error(f"{err.flag}: {err}")
    except JournalError as err:
        # A journal this build cannot read (a newer format version):
        # exit 2 naming it, like a --resume path that does not exist.
        parser.error(str(err))
    finally:
        telemetry.close()

    if engine.stats.total or engine.stats.failed:
        parts = [
            f"{engine.stats.executed} simulated",
            f"{engine.stats.cache_hits} from cache",
        ]
        if engine.journal is not None:
            parts.append(f"{engine.stats.journal_hits} from journal")
        if engine.stats.failed:
            parts.append(f"{engine.stats.failed} FAILED")
        print(f"[engine: {', '.join(parts)}, workers={engine.workers}]")
    if args.out:
        _export_artifacts(Path(args.out), reports, engine)
    if sweep_failures and not interrupted:
        print(f"\n{len(sweep_failures)} cell(s) exhausted their retry budget:")
        for failure in sweep_failures:
            print(f"  {failure.summary()}")
        if engine.journal is not None:
            print("(tracebacks are recorded in the journal; see docs/fault_tolerance.md)")
        else:
            print("(rerun with --journal PATH to record their tracebacks; "
                  "see docs/fault_tolerance.md)")
        return 1
    if interrupted:
        if engine.journal is not None:
            print(f"[resume with: --resume {engine.journal.path}]")
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

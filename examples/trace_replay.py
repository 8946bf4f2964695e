"""Ingest an external cluster trace and replay it through the schedulers.

The trace ingestion subsystem (``repro.workloads.ingest``) turns real
cluster logs into first-class workloads.  This example walks the whole
path end to end without needing any dataset download:

1. write a small Philly-style job CSV (the shape of the public Microsoft
   Philly DNN trace) to a temp directory,
2. convert it with the ingest pipeline — time-window slice, duration
   clamp, GPU remap onto the fleet, per-org demand-history
   reconstruction — and save it as a compressed ``.json.gz`` trace,
3. replay it through the parallel experiment engine via a
   ``trace:<path>`` scenario ref, comparing GFS against YARN-CS,
4. verify replay determinism: two runs produce identical metrics.

Run with:  python examples/trace_replay.py [--fast] [--workers N]
Exits non-zero if conversion, validation or replay misbehaves.
"""

import argparse
import math
import sys
import tempfile
from pathlib import Path

from repro.analysis import format_scheduler_table
from repro.experiments import (
    ExperimentEngine,
    ExperimentScale,
    SchedulerSpec,
    WorkloadSpec,
    metric_row,
    metrics_to_payload,
    sweep_jobs,
)
from repro.workloads import Trace
from repro.workloads.ingest import DurationClamp, TimeWindow, ingest_trace, validate_trace
from repro.cluster import GPUModel

#: Deterministic Philly-style rows: (jobid, vc, submit_h, run_h, num_gpus, status).
#: A synthetic stand-in with the same columns as the public Philly CSVs.
PHILLY_ROWS = [
    (f"job-{i:03d}", vc, submit, run, gpus, status)
    for i, (vc, submit, run, gpus, status) in enumerate(
        [
            ("vc-ads", 0.0, 2.0, 8, "Pass"),
            ("vc-ads", 0.2, 1.0, 1, "Pass"),
            ("vc-ml", 0.5, 4.0, 16, "Pass"),
            ("vc-ml", 0.7, 0.5, 2, "Killed"),
            ("vc-speech", 1.0, 3.0, 8, "Pass"),
            ("vc-ads", 1.5, 0.4, 1, "Killed"),
            ("vc-ml", 2.0, 2.5, 4, "Pass"),
            ("vc-speech", 2.2, 0.8, 2, "Killed"),
            ("vc-ads", 2.8, 12.0, 8, "Pass"),
            ("vc-ml", 3.1, 1.5, 1, "Pass"),
            ("vc-speech", 3.5, 0.6, 1, "Killed"),
            ("vc-ads", 4.0, 2.0, 24, "Pass"),
            ("vc-ml", 4.4, 1.0, 2, "Pass"),
            ("vc-speech", 4.9, 5.0, 8, "Pass"),
            ("vc-ads", 5.3, 0.5, 1, "Killed"),
            ("vc-ml", 5.8, 3.0, 4, "Pass"),
        ]
    )
]


def write_source_csv(path: Path) -> None:
    lines = ["jobid,vc,submitted_time,started_time,finished_time,num_gpus,status"]
    for jobid, vc, submit_h, run_h, gpus, status in PHILLY_ROWS:
        submit = submit_h * 3600.0
        lines.append(
            f"{jobid},{vc},{submit},{submit + 60.0},{submit + 60.0 + run_h * 3600.0},"
            f"{gpus},{status}"
        )
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--fast", action="store_true", help="tiny scale for CI smoke runs")
    args = parser.parse_args(argv)

    nodes = 4 if args.fast else 8
    scale = ExperimentScale(name="replay", num_nodes=nodes, duration_hours=8.0, seed=17)

    with tempfile.TemporaryDirectory(prefix="trace-replay-") as tmp:
        source = Path(tmp) / "philly_style.csv"
        converted = Path(tmp) / "philly_style.json.gz"
        write_source_csv(source)

        # Convert: slice the first 8 hours, clamp stragglers to 6h, remap
        # every GPU model onto the A100 fleet the replay cluster runs.
        trace = ingest_trace(
            source,
            transforms=[TimeWindow(0.0, 8.0), DurationClamp(max_seconds=6 * 3600.0)],
            fleet_models=[GPUModel.A100],
            cluster_gpus=scale.total_gpus,
        )
        trace.save(converted)
        report = validate_trace(Trace.load(converted))
        print(
            f"Converted {source.name}: {len(trace)} tasks "
            f"({trace.metadata['num_hp']} HP, {trace.metadata['num_spot']} spot), "
            f"validation: {report.summary()}"
        )
        if not report.ok:
            print("FAILED: converted trace is invalid", file=sys.stderr)
            return 1

        specs = [SchedulerSpec(kind="yarn-cs"), SchedulerSpec(kind="gfs")]
        workload = WorkloadSpec(scenario=f"trace:{converted}", label="replay")
        jobs = sweep_jobs(scale, specs, [workload], prefix="trace")
        engine = ExperimentEngine(workers=args.workers)
        print(
            f"Replaying through {len(specs)} schedulers on a "
            f"{scale.total_gpus:.0f}-GPU cluster, {engine.workers} worker(s) ..."
        )
        metrics = engine.run(jobs)

        rows = {job.scheduler.display: metric_row(metrics[job.key]) for job in jobs}
        print()
        print(format_scheduler_table(rows, title="External-trace replay"))

        # Replay must be deterministic: a second run over the same file
        # produces bit-identical metrics.
        again = ExperimentEngine(workers=1).run(jobs)
        failures = []
        for key in metrics:
            if metrics_to_payload(metrics[key]) != metrics_to_payload(again[key]):
                failures.append(f"{key}: replay not deterministic")
        for name, row in rows.items():
            if not (row["hp_jct"] > 0 and math.isfinite(row["hp_jct"])):
                failures.append(f"{name}: bad hp_jct {row['hp_jct']}")
        if failures:
            print("\nFAILED:", "; ".join(failures), file=sys.stderr)
            return 1
        print(f"\nOK: {len(rows)} schedulers replayed the ingested trace deterministically.")
        return 0


if __name__ == "__main__":
    sys.exit(main())

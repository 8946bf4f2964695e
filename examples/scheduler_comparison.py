"""Compare GFS with the four baseline schedulers on the same workload.

This reproduces a miniature version of the paper's Table 5 through the
parallel experiment engine: every scheduler (YARN-CS, Chronus, Lyra, FGD
and GFS) is run over an identical synthetic medium-spot workload — fanned
out across worker processes — and the HP/spot SLO metrics are printed side
by side.

Run with:  python examples/scheduler_comparison.py [--fast] [--workers N]
                                                   [--spot-scale X]
Exits non-zero if any scheduler fails to produce sane metrics.
"""

import argparse
import math
import sys

from repro.analysis import improvement_row
from repro.experiments import (
    ExperimentEngine,
    ExperimentScale,
    GridSpec,
    WorkloadSpec,
    comparison_specs,
    run_grid,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spot-scale", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--fast", action="store_true", help="tiny scale for CI smoke runs"
    )
    args = parser.parse_args(argv)

    if args.fast:
        scale = ExperimentScale(name="example-fast", num_nodes=8, duration_hours=6.0, seed=21)
    else:
        scale = ExperimentScale(name="example", num_nodes=32, duration_hours=16.0, seed=21)

    specs = comparison_specs(include_gfs=True)
    workload = WorkloadSpec(spot_scale=args.spot_scale, label="example")
    engine = ExperimentEngine(workers=args.workers)

    print(
        f"Running {len(specs)} schedulers on a {scale.num_nodes * scale.gpus_per_node}-GPU "
        f"cluster, {scale.duration_hours:.0f}h workload, spot x{args.spot_scale:g}, "
        f"{engine.workers} worker(s) ..."
    )
    # A table is a declaration: specs x workloads x title (x column layout).
    grid = GridSpec(
        name="example",
        title="Scheduler comparison (Table 5 style)",
        schedulers=tuple(specs),
        workloads=(workload,),
    )
    result = run_grid(grid, scale, engine)
    rows = result.rows()  # a failed cell is absent: caught by the check below

    print()
    print(result.report())

    improvements = improvement_row(rows)
    if improvements:
        print("\nGFS vs the best baseline per metric (positive = GFS better):")
        for metric, value in improvements.items():
            print(f"  {metric:15s} {value * 100:+.1f}%")

    # Sanity checks: every scheduler must have completed HP work with finite
    # SLO metrics and a bounded eviction rate.  A broken API or scheduler
    # shows up here and flips the exit code for CI.
    failures = []
    expected = {spec.display for spec in specs}
    if set(rows) != expected:
        failures.append(f"missing schedulers: {sorted(expected - set(rows))}")
    for name, row in rows.items():
        if not (row["hp_jct"] > 0 and math.isfinite(row["hp_jct"])):
            failures.append(f"{name}: bad hp_jct {row['hp_jct']}")
        if not (0.0 <= row["spot_eviction"] <= 1.0):
            failures.append(f"{name}: eviction rate out of range {row['spot_eviction']}")
    if failures:
        print("\nFAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print(f"\nOK: {len(rows)} schedulers compared, all metrics sane.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

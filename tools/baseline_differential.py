"""The preempting schedulers cell by cell against a checkout of the parent commit.

    python3 tools/baseline_differential.py --parent /path/to/parent-checkout

Runs the same grid of cells — five preempting families (the YARN-CS / FGD
/ Lyra eviction sweep, and PTS and GFS, whose placements go through
Algorithm 1) x five scenarios x three seeds, 75 cells on a cluster small
and loaded enough that HP tasks evict spot tasks in every family — once
with the parent's ``src/`` and once with this tree's, and requires the
canonical content key of every cell's metrics
(``content_key(metrics_to_payload(m))``, the artifact cache's NaN-stable
form) to be equal.  Prints the evictions per family so an
equal-because-nothing-happened grid cannot pass for evidence.  Nothing is
written.  Exit status 0 only when every cell is identical and every
family evicted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("yarn-cs", "fgd", "lyra", "pts", "gfs")
SCENARIOS = ("default", "spot_heavy", "hetero", "large_gang", "node_churn")
SEEDS = (1, 2, 3)


def run_cells(
    nodes: int, hours: float, spot_scale: float, seeds: Sequence[int]
) -> Dict[str, List[object]]:
    """``{cell: [content key, spot evictions]}`` with the ``repro`` on ``sys.path``."""
    from repro.experiments.artifacts import content_key, metrics_to_payload
    from repro.experiments.config import ExperimentScale
    from repro.experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec, execute_job

    cells: Dict[str, List[object]] = {}
    for seed in seeds:
        scale = ExperimentScale(name="diff", num_nodes=nodes, duration_hours=hours, seed=seed)
        for scenario in SCENARIOS:
            workload = WorkloadSpec(scenario=scenario, spot_scale=spot_scale)
            for family in FAMILIES:
                key = f"{family}/{scenario}/seed{seed}"
                metrics = execute_job(SimulationJob(key, scale, SchedulerSpec(family), workload))
                digest = content_key(metrics_to_payload(metrics))
                cells[key] = [digest, metrics.spot.total_evictions]
    return cells


def cells_of(tree: Path, grid_args: Sequence[str]) -> Dict[str, List[object]]:
    """The grid run in a fresh interpreter that imports ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--emit", *grid_args]
    proc = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--nodes", type=int, default=24)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--spot-scale", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument(
        "--emit", action="store_true", help="print this interpreter's cells as JSON"
    )
    args = parser.parse_args(argv)
    if args.emit:
        print(json.dumps(run_cells(args.nodes, args.hours, args.spot_scale, args.seeds)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    grid_args = [
        "--nodes", str(args.nodes), "--hours", str(args.hours),
        "--spot-scale", str(args.spot_scale), "--seeds", *map(str, args.seeds),
    ]  # fmt: skip
    parent = cells_of(args.parent.resolve(), grid_args)
    change = cells_of(REPO_ROOT, grid_args)
    differing = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differing:
        print(f"DIFFERS {key}: parent {parent.get(key)} change {change.get(key)}")
    evictions = {f: sum(v[1] for k, v in change.items() if k.startswith(f + "/")) for f in FAMILIES}
    print(
        f"{len(change)} cells, {len(differing)} differ; evictions "
        + ", ".join(f"{family} {count}" for family, count in evictions.items())
        + f" (total {sum(evictions.values())})"
    )
    idle = [family for family, count in evictions.items() if count == 0]
    if idle:
        print(f"no evictions under {', '.join(idle)}: the grid does not exercise their sweep")
    return 1 if differing or idle else 0


if __name__ == "__main__":
    sys.exit(main())

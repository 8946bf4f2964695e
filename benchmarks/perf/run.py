"""The repo's benchmark: one command per workload, every metric by name.

    python3 benchmarks/perf/run.py --workload gfs_replay --seed 11 --seconds 20 --trace 0

prints the environment, the workload's digests, every metric with its
unit and — as the last line of standard output — one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones (and writes the spans to ``out/trace_<workload>.json``).

    python3 benchmarks/perf/run.py --aa 10

runs two interleaved sets of ten runs per workload (one seed per run,
the same seeds in both sets), prints the median and quartiles of every
end-to-end metric of each set and exits non-zero when two medians
disagree, either way, by more than the metric's bound or a spread
exceeds 0.10 (or the bound, if that is smaller).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

PERF_DIR = Path(__file__).resolve().parent
SRC_DIR = PERF_DIR.parent.parent / "src"
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(SRC_DIR))

#: environment that changes what the simulator executes or what the old
#: bench modules record; a run under it would not measure the benchmark
FORBIDDEN_ENV_PREFIXES = ("REPRO_VALIDATE_AGGREGATES", "REPRO_BENCH_")
#: an end-to-end metric whose quartile spread over a set of runs exceeds
#: this is too unsteady to carry a bound (ISSUE 12): it is demoted to
#: per-layer, not kept with a wide one
SPREAD_LIMIT = 0.10


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (inputs are made from it)")
    parser.add_argument("--seconds", type=float, default=None, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the harness's own test)")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A check: two interleaved sets of N runs")
    parser.add_argument("--out", help="with --aa: also write the record to this file")
    return parser.parse_args(argv)


def _refuse_hostile_env(env: Mapping[str, str]) -> None:
    hostile = sorted(k for k in env if k.startswith(FORBIDDEN_ENV_PREFIXES))
    if hostile:
        sys.exit(f"refusing to measure with {', '.join(hostile)} set: unset and re-run")


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` so set/dict order repeats."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    import perf_harness as harness

    catalog = harness.load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; expected one of {', '.join(names)}")
    load_start = harness.loadavg_1min()
    from perf_workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else float(catalog["run_seconds"])
    if args.smoke:
        seconds = 0.0
    traced = bool(args.trace)
    result = WORKLOADS[args.workload](args.seed, seconds, smoke=args.smoke, traced=traced)

    declared = catalog["per_layer"] if traced else catalog["end_to_end"]
    unknown = sorted(set(result.metrics) - {m["name"] for m in declared})
    if unknown:
        sys.exit(f"workload reported metrics BENCHMARK.json does not declare: {unknown}")
    # a per-layer metric the workload never exercises reads 0
    metrics = {
        m["name"]: {"value": float(result.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    env = harness.env_block(load_start)
    print(f"workload {args.workload}  seed {args.seed}  seconds {seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if "warning" in env:
        print("WARNING: " + env["warning"], file=sys.stderr)
    print("info " + json.dumps(result.info, sort_keys=True))
    for key, digest in sorted(result.digests.items()):
        print(f"digest {key} {digest}")
    for name, entry in metrics.items():
        print(f"{name:<44} {entry['value']:>16.6f} {entry['unit']}")
    for note in result.checks.notes:
        print("FAILED " + note)
    if traced and result.trace is not None:
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = harness.OUT_DIR / f"trace_{args.workload}.json"
        trace_path.write_text(json.dumps(result.trace))
        print(f"trace {trace_path.relative_to(harness.REPO_ROOT)} ({len(result.trace['spans'])} spans)")
    print(
        json.dumps(
            {
                "correct": result.checks.failed == 0,
                "attempted": result.checks.attempted,
                "failed": result.checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# A/A: two sets of runs of the same code
# ----------------------------------------------------------------------
def _one_run(workload: str, seed: int) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def aa_row(workload: str, metric: Dict[str, object], values_a: List[float], values_b: List[float]):
    """One metric of one workload over the two sets: the record row and what is wrong with it."""
    name, bound = metric["name"], float(metric["bound"])
    stats = []
    for values in (values_a, values_b):
        q1, median, q3 = statistics.quantiles(values, n=4)
        stats.append({"median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median, "values": values})
    a, b = stats[0]["median"], stats[1]["median"]
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    # the spread over a set is mostly the seeds' inputs; the same seed in
    # both sets is the same input, so what a pair differs by is the host
    # alone: the resolution of a same-seed comparison
    noise = statistics.median(abs(vb / va - 1.0) for va, vb in zip(values_a, values_b))
    spread = max(stats[0]["spread"], stats[1]["spread"])
    row = {"unit": metric["unit"], "bound": bound, "set_a": stats[0], "set_b": stats[1],
           "second_worse_by": worse, "same_seed_noise": noise}
    problems = []
    if abs(worse) > bound:  # much better is as much an A/A disagreement as worse
        problems.append(f"{workload}/{name}: medians differ by {worse:+.3f}, bound {bound}")
    if spread > min(bound, SPREAD_LIMIT):
        problems.append(f"{workload}/{name}: spread {spread:.3f} exceeds {min(bound, SPREAD_LIMIT)}")
    return row, problems


def run_aa(args: argparse.Namespace) -> int:
    import perf_harness as harness

    catalog = harness.load_catalog()
    seeds = [harness.DEFAULT_SEED + i for i in range(args.aa)]
    record: Dict[str, object] = {"runs_per_set": args.aa, "seeds": seeds, "workloads": {}}
    problems: List[str] = []
    load_start = harness.loadavg_1min()
    for workload in (w["name"] for w in catalog["workloads"]):
        sets: List[List[Dict[str, object]]] = [[], []]
        for seed in seeds:  # interleaved: A then B on every seed
            for which in (0, 1):
                run = _one_run(workload, seed)
                if not run["correct"]:
                    problems.append(f"{workload} seed {seed}: {run['failed']} failed operations")
                sets[which].append(run)
        rows = {}
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            values_a, values_b = ([run["metrics"][name]["value"] for run in one] for one in sets)
            row, wrong = aa_row(workload, metric, values_a, values_b)
            rows[name] = row
            problems.extend(wrong)
            a, b = row["set_a"], row["set_b"]
            print(
                f"{workload:<18} {name:<16} A {a['median']:12.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
                f"spread {a['spread']:.3f} | B {b['median']:12.4f} spread {b['spread']:.3f} "
                f"| B worse by {row['second_worse_by']:+.3f} (bound {row['bound']}) "
                f"| same-seed noise {row['same_seed_noise']:.3f}"
            )
        record["workloads"][workload] = rows
    record["env"] = harness.env_block(load_start)
    record["problems"] = problems
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print("A/A PROBLEM " + problem)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"nothing to measure: {SRC_DIR / 'repro'} is missing (run from a full checkout)")
    _refuse_hostile_env(os.environ)
    _pin_hash_seed()
    if args.aa:
        return run_aa(args)
    if not args.workload:
        sys.exit("--workload is required (or --aa N)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

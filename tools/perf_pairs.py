"""Seed-paired runs of the repo's benchmark in a parent checkout and this one.

    python3 tools/perf_pairs.py --parent /path/to/parent-checkout
    python3 tools/perf_pairs.py --parent . --smoke --seeds 11        # A/A, CI
    python3 tools/perf_pairs.py --parent /path/to/parent-checkout --layers 11

For every workload ``BENCHMARK.json`` declares and every seed, runs
``benchmarks/perf/run.py --workload W --seed S --trace 0`` once in each
tree — the parent first on even pairs, this tree first on odd ones —
and requires of every run ``correct: true``, ``failed: 0`` and, of every
pair, the same ``digest`` lines (a speed-only change moves none).  Then,
per end-to-end metric, prints the two medians with quartiles, the pairs
this tree won, the ratio of the medians, and the benchmark driver's two
rules: a gain is a win in at least nine tenths of the pairs with the
medians further apart than the parent's quartiles are; nothing is worse
when this tree's median is within the metric's ``bound`` of the parent's
and its quartile spread within ``bound`` x the parent's median.  Below
ten pairs the numbers are printed and neither rule is applied: one pair
of this box's runs differs by more than most bounds.

``--layers SEED`` is the per-layer evidence behind a pair set: one
``--trace 1`` run per tree and workload at ``SEED``, every per-layer row
printed as parent -> change with its ratio.  A ``count`` or ``bytes`` row
that differs is flagged for a reader to explain: a speed-only change
moves times, not work — but a few such rows count what fits in the time
budget (``service.requests``) or a format that changed on purpose.

Each tree runs its own ``benchmarks/perf`` (a change may not edit it, so
they are the same program); the workloads, metrics and bounds are read
from this tree's ``BENCHMARK.json``.  Both trees start from the same
bytecode state: each side runs with its own fresh ``PYTHONPYCACHEPREFIX``
(and ``PYTHONDONTWRITEBYTECODE`` unset), warmed by one untimed smoke run
before the first pair, so neither side's ``setup_s`` is read from a
``__pycache__`` the other lacks.  Nothing else is written but the
temporary bytecode caches and the span file a traced run leaves in each
tree's git-ignored ``benchmarks/perf/out/``.  Exit status 0 unless a run failed, a pair's
digests differ or something is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "perf" / "run.py"
DEFAULT_SEEDS = tuple(range(11, 21))
#: pairs the driver runs, and below which no rule is applied; share of
#: them a claimed gain must win
MIN_PAIRS, MIN_WIN_SHARE = 10, 0.9


#: per-layer units that measure work, not time: equal in a speed-only change
WORK_UNITS = ("count", "bytes")


def bytecode_env(prefix: Path) -> Dict[str, str]:
    """This environment with bytecode read from and written to ``prefix`` only."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def run_once(
    tree: Path, workload: str, seed: int, smoke: bool, trace: int, env: Dict[str, str]
) -> Tuple[Dict[str, object], List[str]]:
    """One benchmark run in ``tree``: its verdict object and its digest lines."""
    command = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("digest ")]


def run_pair(
    trees: Dict[str, Path], envs: Dict[str, Dict[str, str]], workload: str, seed: int, smoke: bool,
    trace: int, change_first: bool, problems: List[str],
) -> Dict[str, Dict[str, object]]:
    """One run per tree, back to back: each side's verdict object.  Appends
    to ``problems`` a run that failed operations and digests that differ."""
    verdicts, digests = {}, {}
    for side in ("change", "parent") if change_first else ("parent", "change"):
        verdicts[side], digests[side] = run_once(trees[side], workload, seed, smoke, trace, envs[side])
        if not verdicts[side]["correct"] or verdicts[side]["failed"]:
            problems.append(f"{workload} seed {seed} {side}: {verdicts[side]['failed']} failed operations")
    if digests["parent"] != digests["change"] or not digests["parent"]:
        problems.append(f"{workload} seed {seed}: digests differ {digests}")
    return verdicts


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(metric: Dict[str, object], parent: Sequence[float], change: Sequence[float]) -> Dict[str, object]:
    """The driver's two rules for one metric of one workload over the pairs."""
    higher_is_better = metric["better"] == "higher"
    bound = float(metric["bound"])
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    better_by = (c_median - p_median) if higher_is_better else (p_median - c_median)
    spread, limit = c_q3 - c_q1, bound * p_median
    wins = sum((c > p) if higher_is_better else (c < p) for p, c in zip(parent, change))
    resolved = len(parent) >= MIN_PAIRS
    beyond_parent_iqr = better_by > p_q3 - p_q1
    gain = resolved and wins >= MIN_WIN_SHARE * len(parent) and beyond_parent_iqr
    problems = []
    if resolved and -better_by > limit:
        problems.append(f"median worse by {-better_by / p_median:.1%}, bound {bound:.0%}")
    if resolved and spread > limit:
        problems.append(f"quartile spread {spread:.4g} over {bound:.0%} of the parent's median ({limit:.4g})")
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_median / p_median,
        "spread": spread,
        "spread_limit": limit,
        "resolved": resolved,
        "beyond_parent_iqr": beyond_parent_iqr,
        "gain": gain,
        "problems": problems,
    }


def layers(
    declared: Sequence[Dict[str, object]], workloads: Sequence[str], trees: Dict[str, Path],
    envs: Dict[str, Dict[str, str]], seed: int, smoke: bool,
) -> int:
    """``--layers``: one traced run per tree and workload, every per-layer row side by side."""
    problems: List[str] = []
    flags: List[str] = []
    for workload in workloads:
        verdicts = run_pair(trees, envs, workload, seed, smoke, 1, False, problems)
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            old, new = (float(verdicts[side]["metrics"][name]["value"]) for side in ("parent", "change"))
            flagged = unit in WORK_UNITS and old != new
            print(
                f"{workload:<18} {name:<44} {old:>14.6g} -> {new:<14.6g} {unit:<6}"
                + (f" x{new / old:.3f}" if old else "")
                + (" FLAG" if flagged else "")
            )
            if flagged:
                flags.append(f"{workload}/{name}: {unit} {old:g} -> {new:g}")
    for flag in flags:
        print("FLAG " + flag)
    for problem in problems:
        print("PROBLEM " + problem)
    print(
        "verdict: "
        + (f"{len(flags)} work rows differ" if flags else "work rows equal")
        + ", "
        + (f"{len(problems)} problems" if problems else "nothing failed")
    )
    return 1 if problems else 0


def pairs(
    catalog: Dict[str, object], workloads: Sequence[str], trees: Dict[str, Path],
    envs: Dict[str, Dict[str, str]], seeds: Sequence[int], smoke: bool,
) -> int:
    """The seed pairs of every workload and the driver's rules per end-to-end metric."""
    failures: List[str] = []
    gains: List[str] = []
    for workload in workloads:
        values: Dict[str, Dict[str, List[float]]] = {side: {} for side in trees}
        for index, seed in enumerate(seeds):
            verdicts = run_pair(trees, envs, workload, seed, smoke, 0, index % 2 == 1, failures)
            for side, verdict in verdicts.items():
                for name, entry in verdict["metrics"].items():
                    values[side].setdefault(name, []).append(float(entry["value"]))
            print(f"pair {workload} seed {seed}: " + "  ".join(
                f"{name} {values['parent'][name][-1]:.4g} -> {values['change'][name][-1]:.4g}"
                for name in values["parent"]
            ), flush=True)
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            row = compare(metric, values["parent"][name], values["change"][name])
            (p_q1, p_median, p_q3), (c_q1, c_median, c_q3) = row["parent"], row["change"]
            print(
                f"{workload:<18} {name:<16} parent {p_median:.4f} [{p_q1:.4f}, {p_q3:.4f}]"
                f" | change {c_median:.4f} [{c_q1:.4f}, {c_q3:.4f}]"
                f" | wins {row['wins']}/{row['pairs']} | ratio {row['ratio']:.3f}"
                f" | gap > parent IQR: {'yes' if row['beyond_parent_iqr'] else 'no'}"
                f" | change IQR {row['spread']:.4g} <= {row['spread_limit']:.4g}:"
                f" {'yes' if row['spread'] <= row['spread_limit'] else 'NO'}"
                + ("" if row["resolved"] else f" | unresolved below {MIN_PAIRS} pairs")
            )
            if row["gain"]:
                gains.append(f"{workload}/{name} x{row['ratio']:.3f} ({row['wins']}/{row['pairs']})")
            failures.extend(f"{workload}/{name}: {problem}" for problem in row["problems"])

    for failure in failures:
        print("PROBLEM " + failure)
    print("verdict: " + ("gain on " + ", ".join(gains) if gains else "no gain") + ", "
          + (f"{len(failures)} problems" if failures else "nothing worse"))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks the tool, measures nothing")
    parser.add_argument(
        "--layers", type=int, metavar="SEED", help="instead of pairs: one traced run per tree at SEED"
    )
    args = parser.parse_args(argv)

    catalog = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in catalog["workloads"]]
    workloads = args.workloads or declared
    if set(workloads) - set(declared):
        parser.error(f"unknown workloads {sorted(set(workloads) - set(declared))}; expected {declared}")
    trees = {"parent": args.parent.resolve(), "change": REPO_ROOT}
    if not (trees["parent"] / RUNNER).is_file():
        parser.error(f"{trees['parent']} has no {RUNNER}")
    with tempfile.TemporaryDirectory(prefix="perf-pairs-pycache-") as cache:
        envs = {side: bytecode_env(Path(cache) / side) for side in trees}
        for side in trees:  # untimed: fills the side's cache before anything is measured
            run_once(trees[side], workloads[0], args.seeds[0], True, 0, envs[side])
        if args.layers is not None:
            return layers(catalog["per_layer"], workloads, trees, envs, args.layers, args.smoke)
        return pairs(catalog, workloads, trees, envs, args.seeds, args.smoke)


if __name__ == "__main__":
    sys.exit(main())

"""``tools/perf_pairs.py``: the paired-run rules, and the tool against itself."""

import importlib.util
import json
import os
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

THROUGHPUT = {"name": "sim_tasks_per_s", "better": "higher", "bound": 0.22}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
TEN = [1000.0 + 10.0 * i for i in range(10)]  # quartiles 1017.5 / 1045 / 1072.5


class TestRules:
    def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parents_quartiles(self):
        assert perf_pairs.compare(THROUGHPUT, TEN, [v * 1.2 for v in TEN])["gain"]
        nine = [v * 1.2 for v in TEN[:9]] + [TEN[9] - 1.0]
        assert perf_pairs.compare(THROUGHPUT, TEN, nine)["gain"]
        eight = [v * 1.2 for v in TEN[:8]] + [v - 1.0 for v in TEN[8:]]
        assert not perf_pairs.compare(THROUGHPUT, TEN, eight)["gain"]
        # Ten wins out of ten, by less than the parent spreads over its seeds.
        row = perf_pairs.compare(THROUGHPUT, TEN, [v + 20.0 for v in TEN])
        assert row["wins"] == 10 and not row["beyond_parent_iqr"] and not row["gain"]
        assert row["problems"] == []

    def test_lower_is_better_metrics_are_compared_the_other_way(self):
        times = [v / 1000.0 for v in TEN]
        row = perf_pairs.compare(SETUP, times, [v * 0.8 for v in times])
        assert row["gain"] and row["wins"] == 10 and row["ratio"] == pytest.approx(0.8)
        row = perf_pairs.compare(SETUP, times, [v * 1.3 for v in times])
        assert not row["gain"] and any("median worse by 30" in p for p in row["problems"])

    def test_worse_is_a_median_past_the_bound_or_a_spread_past_it(self):
        assert perf_pairs.compare(THROUGHPUT, TEN, [v * 0.8 for v in TEN])["problems"] == []
        worse = perf_pairs.compare(THROUGHPUT, TEN, [v * 0.7 for v in TEN])
        assert any("median worse by 30" in p for p in worse["problems"])
        # The spread bound is absolute: 22% of the *parent's* median.
        wide = [1500.0 + 80.0 * i for i in range(10)]  # quartile spread 440 > 0.22 * 1045
        row = perf_pairs.compare(THROUGHPUT, TEN, wide)
        assert row["gain"] and any("quartile spread" in p for p in row["problems"])

    def test_below_ten_pairs_nothing_is_decided(self):
        for change in ([2000.0], [500.0]):
            row = perf_pairs.compare(THROUGHPUT, [1000.0], change)
            assert not row["resolved"] and not row["gain"] and row["problems"] == []


def test_tool_against_its_own_tree_at_smoke_sizes(capsys, monkeypatch):
    """A/A on one seed: every run correct, digests equal, nothing claimed."""
    for knob in [k for k in os.environ if k.startswith(("REPRO_BENCH_", "REPRO_VALIDATE_"))]:
        monkeypatch.delenv(knob)  # CI's tier-1 step sets one; run.py refuses to measure under it
    workloads = ["gfs_replay", "baseline_lineup"]
    status = perf_pairs.main(
        ["--parent", str(REPO_ROOT), "--smoke", "--seeds", "11", "--workloads", *workloads]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0 and lines[-1] == "verdict: no gain, nothing worse"
    assert not [line for line in lines if line.startswith("PROBLEM")]
    metrics = [m["name"] for m in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = [line.split()[:2] for line in lines if "| wins " in line]
    assert rows == [[workload, metric] for workload in workloads for metric in metrics]


def test_layers_against_its_own_tree_at_smoke_sizes(capsys, monkeypatch):
    """A/A of ``--layers``: every per-layer row printed once, no work row flagged."""
    for knob in [k for k in os.environ if k.startswith(("REPRO_BENCH_", "REPRO_VALIDATE_"))]:
        monkeypatch.delenv(knob)
    workloads = ["sweep_small_cells", "service_session"]
    status = perf_pairs.main(
        ["--parent", str(REPO_ROOT), "--smoke", "--layers", "11", "--workloads", *workloads]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0 and lines[-1] == "verdict: work rows equal, nothing failed"
    assert not [line for line in lines if "FLAG" in line or line.startswith("PROBLEM")]
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rows = [line.split()[:2] for line in lines if " -> " in line]
    assert rows == [[workload, m["name"]] for workload in workloads for m in declared]
    # the work rows of a smoke run are non-trivial: equal means compared
    counts = {line.split()[1]: float(line.split()[2]) for line in lines if line.startswith("sweep")}
    assert counts["cluster.simulator.events"] > 0 and counts["experiments.engine.job_pickle_bytes"] > 0


def test_both_trees_start_from_the_same_bytecode_state(tmp_path, monkeypatch):
    """A tree with ``__pycache__`` imports faster than a fresh clone, which
    under ``PYTHONDONTWRITEBYTECODE=1`` never gets one: each side runs with
    its own fresh ``PYTHONPYCACHEPREFIX``, warmed untimed before the pairs."""
    parent = tmp_path / "parent"
    (parent / perf_pairs.RUNNER).parent.mkdir(parents=True)
    (parent / perf_pairs.RUNNER).write_text("")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    metrics = [m["name"] for m in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    verdict = {"correct": True, "failed": 0, "metrics": {m: {"value": 1.0} for m in metrics}}
    calls = []

    def fake_run(command, cwd, env=None, **kwargs):
        calls.append((Path(cwd).resolve(), dict(env) if env is not None else None, command))
        return types.SimpleNamespace(stdout=f"digest x 1\n{json.dumps(verdict)}\n")

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    status = perf_pairs.main(["--parent", str(parent), "--seeds", "11", "12", "--workloads", "gfs_replay"])
    assert status == 0
    trees = {parent.resolve(): "parent", REPO_ROOT.resolve(): "change"}
    prefixes = {}
    for cwd, env, _ in calls:
        assert env is not None and "PYTHONDONTWRITEBYTECODE" not in env
        prefixes.setdefault(trees[cwd], set()).add(env["PYTHONPYCACHEPREFIX"])
    assert all(len(p) == 1 for p in prefixes.values()) and prefixes["parent"] != prefixes["change"]
    # One untimed smoke run per tree comes before the four timed runs.
    assert sorted(trees[cwd] for cwd, _, _ in calls[:2]) == ["change", "parent"]
    assert all("--smoke" in command for _, _, command in calls[:2])
    assert len(calls) == 6 and not any("--smoke" in command for _, _, command in calls[2:])


def test_unknown_workload_and_missing_runner_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        perf_pairs.main(["--parent", str(REPO_ROOT), "--workloads", "nope"])
    with pytest.raises(SystemExit):
        perf_pairs.main(["--parent", str(tmp_path)])

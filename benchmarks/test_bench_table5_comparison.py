"""Benchmark E-T5: regenerate Table 5 (scheduler comparison, three workloads)."""

from dataclasses import replace

from repro.experiments import PAPER_GRIDS, run_grid, spot_levels
from repro.workloads import SpotWorkloadLevel


def table5(level: SpotWorkloadLevel):
    """Table 5 restricted to one spot workload level."""
    return replace(PAPER_GRIDS["table5"], workloads=spot_levels([level]))


def test_bench_table5_low_workload(run_once, bench_scale):
    result = run_once(run_grid, table5(SpotWorkloadLevel.LOW), bench_scale)
    print()
    print(result.report())
    rows = result.rows("low")
    assert set(rows) == {"YARN-CS", "Chronus", "Lyra", "FGD", "GFS"}
    # HP tasks are never evicted under any scheduler.
    assert all(r["hp_jct"] > 0 for r in rows.values())


def test_bench_table5_medium_workload(run_once, bench_scale):
    result = run_once(run_grid, table5(SpotWorkloadLevel.MEDIUM), bench_scale)
    print()
    print(result.report())
    rows = result.rows("medium")
    # Headline qualitative claims of Table 5 at the medium workload:
    # GFS keeps HP queuing low and evicts less than the greedy preempting
    # baselines (YARN-CS, FGD).
    assert rows["GFS"]["hp_jqt"] <= min(rows["YARN-CS"]["hp_jqt"], rows["FGD"]["hp_jqt"]) + 120.0
    assert rows["GFS"]["spot_eviction"] <= rows["YARN-CS"]["spot_eviction"] + 0.05
    assert rows["GFS"]["spot_eviction"] <= rows["FGD"]["spot_eviction"] + 0.05


def test_bench_table5_high_workload(run_once, bench_scale):
    result = run_once(run_grid, table5(SpotWorkloadLevel.HIGH), bench_scale)
    print()
    print(result.report())
    rows = result.rows("high")
    assert rows["GFS"]["spot_eviction"] <= 0.25

"""Benchmarks E-T8/E-T9/E-T10: regenerate the three ablation tables."""

import math

from repro.experiments import PAPER_GRIDS, run_grid


def test_bench_table8_gde_ablation(run_once, bench_scale):
    result = run_once(run_grid, PAPER_GRIDS["table8"], bench_scale)
    print()
    print(result.report())
    rows = result.rows()
    # Paper shape (Table 8): replacing the probabilistic forecast by last
    # week's peak hurts spot SLOs (longer queuing / completion).  At small
    # benchmark scale the naive peak forecast can starve spot tasks entirely
    # (no spot task finishes), which reports as NaN and counts as "worse".
    gfse_jqt = rows["GFS-E"]["spot_jqt"]
    gfse_jct = rows["GFS-E"]["spot_jct"]
    assert math.isnan(gfse_jqt) or rows["GFS"]["spot_jqt"] <= gfse_jqt + 60.0
    assert math.isnan(gfse_jct) or rows["GFS"]["spot_jct"] <= gfse_jct * 1.05


def test_bench_table9_sqa_ablation(run_once, bench_scale):
    result = run_once(run_grid, PAPER_GRIDS["table9"], bench_scale)
    print()
    print(result.report())
    rows = result.rows()
    # Paper shape (Table 9): the eta feedback loop should not hurt spot SLOs,
    # and HP metrics stay essentially unchanged.
    assert abs(rows["GFS"]["hp_jct"] - rows["GFS-D"]["hp_jct"]) < 0.05 * rows["GFS-D"]["hp_jct"]
    assert rows["GFS"]["spot_jqt"] <= rows["GFS-D"]["spot_jqt"] * 1.25 + 60.0


def test_bench_table10_pts_ablation(run_once, bench_scale):
    result = run_once(run_grid, PAPER_GRIDS["table10"], bench_scale)
    print()
    print(result.report())
    rows = result.rows()
    assert set(rows) == {"GFS-SP", "GFS-S", "GFS-P", "GFS"}
    # Paper shape (Table 10): the fully degraded variant is the worst for
    # spot tasks; full GFS is not worse than the doubly degraded variant.
    assert rows["GFS"]["spot_jct"] <= rows["GFS-SP"]["spot_jct"] * 1.10
    assert rows["GFS"]["hp_jqt"] <= rows["GFS-SP"]["hp_jqt"] + 120.0

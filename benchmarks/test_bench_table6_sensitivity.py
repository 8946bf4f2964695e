"""Benchmark E-T6: regenerate Table 6 (guarantee-hours sensitivity)."""

from repro.experiments import run_grid, table6_grid


def test_bench_table6_guarantee_hours(run_once, bench_scale):
    grid = table6_grid(guarantee_hours=(1.0, 2.0, 4.0))
    result = run_once(run_grid, grid, bench_scale)
    print()
    print(result.report())
    rows = {grid.row_label(spec): result.rows()[spec.display] for spec in grid.schedulers}
    assert set(rows) == {1.0, 2.0, 4.0}
    # Paper shape: HP metrics are essentially insensitive to H, and the spot
    # eviction rate stays low for every configuration.
    hp_jcts = [r["hp_jct"] for r in rows.values()]
    assert max(hp_jcts) - min(hp_jcts) < 0.05 * max(hp_jcts)
    assert all(r["spot_eviction"] < 0.2 for r in rows.values())
    # A longer guarantee horizon reserves more, so spot queuing should not
    # improve when moving from H=1 to H=4.
    assert rows[4.0]["spot_jqt"] >= rows[1.0]["spot_jqt"] - 120.0

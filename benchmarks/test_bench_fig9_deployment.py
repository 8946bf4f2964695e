"""Benchmark E-F9: production deployment before/after and monthly benefit."""

import math

from repro.experiments import paper_reference_benefit, run_deployment_experiment


def test_bench_fig9_deployment(run_once):
    result = run_once(
        run_deployment_experiment,
        fleet_scale=0.006,
        duration_hours=8.0,
        spot_scale=2.0,
    )
    print()
    print(result.report())
    before, after = result.benefit.eviction_before, result.benefit.eviction_after
    assert len(before) == 4
    # Paper shape: GFS should not increase the eviction rate on any model
    # partition, and the fleet-wide allocation-weighted metrics move in the
    # right direction on aggregate.
    improved = sum(1 for model in before if after[model] <= before[model] + 0.02)
    assert improved >= 3
    assert math.isfinite(result.benefit.monthly_gain_usd)


def test_bench_fig9_paper_reference_benefit(run_once):
    benefit = run_once(paper_reference_benefit)
    print()
    print(
        f"Monthly benefit at the paper's reported operating points: "
        f"${benefit.monthly_gain_usd:,.0f} "
        f"(allocation ${benefit.allocation_gain_usd:,.0f} + "
        f"eviction ${benefit.eviction_gain_usd:,.0f})"
    )
    # Same order of magnitude as the paper's $459,715 / month.
    assert 100_000 < benefit.monthly_gain_usd < 5_000_000

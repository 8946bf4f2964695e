"""Estimate the value of deploying GFS on a heterogeneous production fleet.

This example mirrors the paper's production-deployment analysis (Figure 9
and the $459,715/month estimate): it simulates each GPU-model partition of
the Table 1 fleet under the legacy first-fit policy and under GFS, then
prices the allocation-rate and eviction-rate changes with the cloud
pricing model.

Run with:  python examples/production_deployment.py [--fast]
Exits non-zero if the experiment fails to cover the fleet or the pricing
model produces nonsense.
"""

import argparse
import math
import sys

from repro.experiments import paper_reference_benefit, run_deployment_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="tiny fleet/duration for CI smoke runs"
    )
    args = parser.parse_args(argv)

    fleet_scale = 0.004 if args.fast else 0.02
    duration_hours = 6.0 if args.fast else 12.0

    print("Simulating pre/post-GFS operating points per GPU model (scaled fleet)...")
    result = run_deployment_experiment(
        fleet_scale=fleet_scale, duration_hours=duration_hours, spot_scale=2.0
    )
    print()
    print(result.report())

    print("\nPer-model improvements (simulated):")
    benefit = result.benefit
    for model in benefit.eviction_before:
        print(
            f"  {model.value:5s} eviction {benefit.eviction_reduction(model) * 100.0:+.1f}% relative, "
            f"allocation {benefit.allocation_improvement(model):+.1f} points"
        )

    reference = paper_reference_benefit()
    print(
        "\nFor reference, pricing the paper's own reported operating points "
        f"(Table 1 / Figure 9 fleet) yields ${reference.monthly_gain_usd:,.0f} per month."
    )

    # Sanity checks for CI: all four fleet models simulated, rates in range,
    # and the paper-reference pricing strictly positive.
    failures = []
    if len(benefit.eviction_before) != 4 or len(result.grid.cells) != 8:
        failures.append(f"expected 4 GPU models x before/after, got {sorted(result.grid.cells)}")
    for label in ("eviction_before", "eviction_after", "allocation_before", "allocation_after"):
        for model, rate in getattr(benefit, label).items():
            if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
                failures.append(f"{model.value}.{label} out of range: {rate}")
    if not math.isfinite(benefit.monthly_gain_usd):
        failures.append("missing/non-finite simulated benefit")
    if not reference.monthly_gain_usd > 0:
        failures.append(f"paper-reference benefit not positive: {reference.monthly_gain_usd}")
    if failures:
        print("\nFAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print("\nOK: deployment experiment covered the fleet with sane operating points.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

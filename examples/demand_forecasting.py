"""Probabilistic GPU demand forecasting with OrgLinear.

This example trains the paper's OrgLinear model on per-organization GPU
demand series, compares it with the DLinear and previous-week-peak
baselines, and shows how the Spot Quota Allocator turns the forecast into
a spot GPU quota with a guaranteed duration.

Run with:  python examples/demand_forecasting.py
"""


from repro.core.gde import (
    DLinearModel,
    GPUDemandEstimator,
    OrgLinear,
    OrgLinearConfig,
    PreviousWeekPeakModel,
    SeasonalQuantileForecaster,
    build_window_dataset,
    evaluate_forecast,
    train_test_split_dataset,
)
from repro.core import GFSConfig
from repro.core.sqa import SpotQuotaAllocator
from repro.workloads import DEFAULT_HOLIDAYS, default_organizations, generate_org_demand_matrix


def main() -> None:
    # 1. Eight weeks of hourly demand for the four organizations of Figure 4.
    organizations = default_organizations()
    history = generate_org_demand_matrix(organizations, hours=8 * 168, seed=3)
    attributes = {o.name: o.business_attributes() for o in organizations}

    # 2. Sliding-window dataset: 168 h of history -> 24 h forecast.
    dataset = build_window_dataset(
        history, attributes, input_length=168, horizon=24, stride=6, holidays=set(DEFAULT_HOLIDAYS)
    )
    train, test = train_test_split_dataset(dataset, test_fraction=0.25)
    y_true = test.arrays()["Y"]
    print(f"Training windows: {len(train)}, test windows: {len(test)}")

    # 3. Train OrgLinear and two baselines; compare accuracy.
    models = {
        "OrgLinear": OrgLinear(OrgLinearConfig(epochs=60)),
        "DLinear": DLinearModel(),
        "PrevWeekPeak": PreviousWeekPeakModel(),
    }
    print(f"\n{'model':14s} {'MAE':>8s} {'RMSE':>8s} {'MAPE':>8s} {'0.95-MAQE':>10s} {'train(s)':>9s}")
    for name, model in models.items():
        model.fit(train)
        mu, sigma = model.predict(test)
        ev = evaluate_forecast(y_true, mu, sigma, model.training_time)
        print(
            f"{name:14s} {ev.mae:8.2f} {ev.rmse:8.2f} {ev.mape:8.3f} "
            f"{ev.maqe_95:10.3f} {ev.training_time:9.2f}"
        )

    # 4. Turn the probabilistic forecast into a spot quota (Eqs. 9-10).
    estimator = GPUDemandEstimator(SeasonalQuantileForecaster()).fit(history)
    capacity = 512.0
    sqa = SpotQuotaAllocator(
        estimator, capacity, GFSConfig(guarantee_rate=0.9, guarantee_hours=1.0)
    )

    now_hour = 8 * 168  # "now" = right after the history ends
    available, peaks = sqa.inventory(now_hour, p=0.9, horizon_hours=1.0)
    quota = sqa.compute_quota(
        now=0.0,
        start_hour=now_hour,
        idle_gpus=capacity * 0.4,
        guaranteed_spot_gpus=60.0,
        eviction_rate=0.02,
        max_queue_time=120.0,
    )
    print(
        f"\nCluster capacity {capacity:.0f} GPUs; predicted aggregated HP peak "
        f"(next hour, p=0.9) = {sum(peaks.values()):.0f} GPUs, leaving f(p, H) = {available:.0f}"
    )
    print(f"Spot quota with 1-hour guarantee: {quota:.0f} GPUs (eta = {sqa.eta:.2f})")


if __name__ == "__main__":
    main()

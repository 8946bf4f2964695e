"""Tests for the Spot Quota Allocator: inventory estimation and eta feedback."""

import numpy as np
import pytest

from repro.core.gde import GPUDemandEstimator, SeasonalQuantileForecaster
from repro.core.sqa import GPUInventoryEstimator, SQAConfig, SpotQuotaAllocator


def make_estimator(level_a=200.0, level_b=100.0, hours=336):
    history = {
        "org-A": np.full(hours, level_a),
        "org-B": np.full(hours, level_b),
    }
    return GPUDemandEstimator(SeasonalQuantileForecaster()).fit(history)


class TestInventoryEstimation:
    def test_available_is_capacity_minus_peak(self):
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        estimate = inventory.estimate(start_hour=336, horizon_hours=1.0, p=0.9)
        assert estimate.aggregated_peak_demand == pytest.approx(300.0, abs=15.0)
        assert estimate.available == pytest.approx(512.0 - estimate.aggregated_peak_demand)

    def test_saturated_cluster_yields_zero(self):
        inventory = GPUInventoryEstimator(make_estimator(400.0, 300.0), capacity=512.0)
        assert inventory.available_gpus(336, 1.0, 0.9) == 0.0

    def test_higher_guarantee_rate_reserves_more(self):
        history = {"org-A": 200.0 + 20.0 * np.random.default_rng(0).normal(size=336)}
        estimator = GPUDemandEstimator(SeasonalQuantileForecaster()).fit(history)
        inventory = GPUInventoryEstimator(estimator, capacity=512.0)
        assert inventory.available_gpus(336, 1.0, 0.99) <= inventory.available_gpus(336, 1.0, 0.8)

    def test_longer_horizon_cannot_increase_availability(self):
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        short = inventory.available_gpus(336, 1.0, 0.9)
        long = inventory.available_gpus(336, 8.0, 0.9)
        assert long <= short + 1e-6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GPUInventoryEstimator(make_estimator(), capacity=0.0)

    def test_per_org_breakdown_present(self):
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        estimate = inventory.estimate(336, 1.0, 0.9)
        assert set(estimate.per_org_peak) == {"org-A", "org-B"}

    def test_per_org_breakdown_belongs_to_the_estimate(self):
        """The GDE keeps its answer between quota updates; an estimate must not share it."""
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        estimate = inventory.estimate(336, 1.0, 0.9)
        kept = dict(estimate.per_org_peak)
        estimate.per_org_peak.clear()
        again = inventory.estimate(336, 1.0, 0.9)
        assert again.per_org_peak == kept
        assert again.aggregated_peak_demand == estimate.aggregated_peak_demand


class TestEtaFeedback:
    def make_sqa(self, **config_kwargs):
        config = SQAConfig(**config_kwargs)
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        return SpotQuotaAllocator(inventory, config)

    def test_high_eviction_shrinks_eta(self):
        sqa = self.make_sqa(guarantee_rate=0.9)
        before = sqa.eta
        sqa.update_eta(eviction_rate=0.4, max_queue_time=0.0)
        assert sqa.eta < before

    def test_low_eviction_with_long_queue_grows_eta(self):
        sqa = self.make_sqa(guarantee_rate=0.9, queue_threshold=3600.0)
        before = sqa.eta
        sqa.update_eta(eviction_rate=0.01, max_queue_time=7200.0)
        assert sqa.eta > before

    def test_low_eviction_with_short_queue_keeps_eta(self):
        sqa = self.make_sqa()
        before = sqa.eta
        sqa.update_eta(eviction_rate=0.01, max_queue_time=10.0)
        assert sqa.eta == pytest.approx(before)

    def test_moderate_eviction_keeps_eta(self):
        sqa = self.make_sqa(guarantee_rate=0.9)
        before = sqa.eta
        sqa.update_eta(eviction_rate=0.1, max_queue_time=10_000.0)
        assert sqa.eta == pytest.approx(before)

    def test_eta_bounded(self):
        sqa = self.make_sqa(min_eta=0.5, max_eta=2.0)
        for _ in range(20):
            sqa.update_eta(eviction_rate=0.9, max_queue_time=0.0)
        assert sqa.eta == pytest.approx(0.5)
        for _ in range(20):
            sqa.update_eta(eviction_rate=0.0, max_queue_time=1e6)
        assert sqa.eta == pytest.approx(2.0)


class TestQuotaComputation:
    def make_sqa(self):
        inventory = GPUInventoryEstimator(make_estimator(), capacity=512.0)
        return SpotQuotaAllocator(inventory, SQAConfig(guarantee_rate=0.9, guarantee_hours=1.0))

    def test_quota_bounded_by_physical_availability(self):
        sqa = self.make_sqa()
        quota = sqa.compute_quota(
            now=0.0, start_hour=336, idle_gpus=50.0, guaranteed_spot_gpus=10.0,
            eviction_rate=0.0, max_queue_time=0.0,
        )
        assert quota <= 60.0 + 1e-9

    def test_quota_bounded_by_forecast(self):
        sqa = self.make_sqa()
        quota = sqa.compute_quota(
            now=0.0, start_hour=336, idle_gpus=512.0, guaranteed_spot_gpus=0.0,
            eviction_rate=0.0, max_queue_time=0.0, adapt=False,
        )
        estimate = sqa.inventory.estimate(336, 1.0, 0.9)
        assert quota == pytest.approx(estimate.available * sqa.eta)

    def test_quota_never_negative(self):
        inventory = GPUInventoryEstimator(make_estimator(600.0, 300.0), capacity=512.0)
        sqa = SpotQuotaAllocator(inventory, SQAConfig())
        quota = sqa.compute_quota(
            now=0.0, start_hour=336, idle_gpus=0.0, guaranteed_spot_gpus=0.0,
            eviction_rate=0.5, max_queue_time=0.0,
        )
        assert quota == 0.0

    def test_admits_respects_quota(self):
        sqa = self.make_sqa()
        sqa.current_quota = 100.0
        assert sqa.admits(requested_gpus=20.0, spot_gpus_in_use=70.0)
        assert not sqa.admits(requested_gpus=40.0, spot_gpus_in_use=70.0)

    def test_returned_quota_is_the_quota_in_force(self):
        sqa = self.make_sqa()
        quota = sqa.compute_quota(now=10.0, start_hour=336, idle_gpus=100.0,
                                  guaranteed_spot_gpus=0.0, eviction_rate=0.0, max_queue_time=0.0)
        assert quota == sqa.current_quota > 0.0

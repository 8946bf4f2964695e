"""Tests for the Spot Quota Allocator: inventory estimation and eta feedback."""

import numpy as np
import pytest

from repro.core.gde import GPUDemandEstimator, SeasonalQuantileForecaster
from repro.core import GFSConfig
from repro.core.sqa import MAX_ETA, MIN_ETA, SpotQuotaAllocator


def make_estimator(level_a=200.0, level_b=100.0, hours=336):
    history = {
        "org-A": np.full(hours, level_a),
        "org-B": np.full(hours, level_b),
    }
    return GPUDemandEstimator(SeasonalQuantileForecaster()).fit(history)


def make_sqa(estimator=None, capacity=512.0, **config_kwargs):
    return SpotQuotaAllocator(estimator or make_estimator(), capacity, GFSConfig(**config_kwargs))


class TestInventoryEstimation:
    """Eq. 9, ``SpotQuotaAllocator.inventory``: f(p, H) and the per-org peaks."""

    def test_available_is_capacity_minus_peak(self):
        available, peaks = make_sqa().inventory(start_hour=336, p=0.9, horizon_hours=1.0)
        assert sum(peaks.values()) == pytest.approx(300.0, abs=15.0)
        assert available == pytest.approx(512.0 - sum(peaks.values()))

    def test_saturated_cluster_yields_zero(self):
        assert make_sqa(make_estimator(400.0, 300.0)).inventory(336, 0.9, 1.0)[0] == 0.0

    def test_higher_guarantee_rate_reserves_more(self):
        history = {"org-A": 200.0 + 20.0 * np.random.default_rng(0).normal(size=336)}
        sqa = make_sqa(GPUDemandEstimator(SeasonalQuantileForecaster()).fit(history))
        assert sqa.inventory(336, 0.99, 1.0)[0] <= sqa.inventory(336, 0.8, 1.0)[0]

    def test_longer_horizon_cannot_increase_availability(self):
        sqa = make_sqa()
        short = sqa.inventory(336, 0.9, 1.0)[0]
        long = sqa.inventory(336, 0.9, 8.0)[0]
        assert long <= short + 1e-6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            make_sqa(capacity=0.0)

    def test_per_org_breakdown_present(self):
        _, peaks = make_sqa().inventory(336, 0.9, 1.0)
        assert set(peaks) == {"org-A", "org-B"}

    def test_per_org_breakdown_belongs_to_the_estimate(self):
        """The GDE keeps its answer between quota updates; the caller owns what it gets."""
        sqa = make_sqa()
        available, peaks = sqa.inventory(336, 0.9, 1.0)
        kept = dict(peaks)
        peaks.clear()
        again, peaks_again = sqa.inventory(336, 0.9, 1.0)
        assert peaks_again == kept
        assert again == available


class TestEtaFeedback:
    def make_sqa(self, **config_kwargs):
        return make_sqa(**config_kwargs)

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
        sqa = self.make_sqa()
        for _ in range(20):
            sqa.update_eta(eviction_rate=0.9, max_queue_time=0.0)
        assert sqa.eta == MIN_ETA == 0.5
        for _ in range(20):
            sqa.update_eta(eviction_rate=0.0, max_queue_time=1e6)
        assert sqa.eta == MAX_ETA == 4.0


class TestQuotaComputation:
    def make_sqa(self):
        return make_sqa(guarantee_rate=0.9, guarantee_hours=1.0)

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
        assert quota == pytest.approx(sqa.inventory(336, 0.9, 1.0)[0] * sqa.eta)

    def test_quota_never_negative(self):
        sqa = make_sqa(make_estimator(600.0, 300.0))
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

"""Tests for the online forecasters and the GPU demand estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gde import (
    GPUDemandEstimator,
    OrgLinearConfig,
    OrgLinearOnlineForecaster,
    PreviousWeekPeakForecaster,
    SeasonalQuantileForecaster,
    normal_quantile,
)
from repro.core.sqa import SpotQuotaAllocator


@pytest.fixture
def seasonal_history():
    """Two weeks of strongly diurnal demand for two organizations."""
    hours = 2 * 168
    t = np.arange(hours)
    org_a = 100 + 20 * np.sin(2 * np.pi * (t % 24) / 24.0)
    org_b = 50 + 5 * np.cos(2 * np.pi * (t % 24) / 24.0)
    return {"org-A": org_a, "org-B": org_b}


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_known_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.6449, abs=1e-3)
        assert normal_quantile(0.9) == pytest.approx(1.2816, abs=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)


class TestSeasonalQuantileForecaster:
    def test_tracks_diurnal_pattern(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        mu_peak, _ = forecaster.predict("org-A", start_hour=2 * 168 + 6, horizon=1)
        mu_trough, _ = forecaster.predict("org-A", start_hour=2 * 168 + 18, horizon=1)
        # hour-of-day 6 is the sine peak, hour 18 the trough
        assert mu_peak[0] > mu_trough[0]

    def test_unknown_org_returns_zeros(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        mu, sigma = forecaster.predict("ghost", 0, 4)
        assert np.allclose(mu, 0.0)
        assert mu.shape == (4,)

    def test_observe_extends_history(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        length = len(forecaster.history["org-A"])
        forecaster.observe("org-A", length, 500.0)
        assert forecaster.history["org-A"][-1] == 500.0

    def test_observe_fills_gaps(self):
        forecaster = SeasonalQuantileForecaster().fit({"o": np.array([1.0, 2.0])})
        forecaster.observe("o", 5, 9.0)
        assert len(forecaster.history["o"]) == 6
        assert forecaster.history["o"][5] == 9.0

    def test_observe_overwrites_existing_hour(self):
        forecaster = SeasonalQuantileForecaster().fit({"o": np.array([1.0, 2.0, 3.0])})
        forecaster.observe("o", 1, 7.0)
        assert forecaster.history["o"][1] == 7.0

    @pytest.mark.parametrize(
        "forecaster_class",
        [SeasonalQuantileForecaster, PreviousWeekPeakForecaster, OrgLinearOnlineForecaster],
    )
    def test_observe_rejects_a_negative_hour(self, forecaster_class):
        """``series[-1] = v`` would overwrite the newest hour and, on the
        seasonal forecaster, mark slot ``-1 % period`` stale instead of the
        slot written."""
        forecaster = forecaster_class().fit({"o": np.arange(10.0)})
        before = forecaster.predict("o", 10, 3)
        with pytest.raises(ValueError, match="hour_index"):
            forecaster.observe("o", -1, 99.0)
        assert forecaster.history["o"] == list(np.arange(10.0))
        for got, want in zip(forecaster.predict("o", 10, 3), before):
            assert np.array_equal(got, want)


class FrozenSeasonalReference:
    """The pre-cache ``SeasonalQuantileForecaster``, frozen as the oracle.

    ``predict`` recomputes the statistics of every slot from the whole
    series on every call; the forecaster under test must return the very
    same floats whatever it keeps between calls.
    """

    def __init__(self, period, recent_hours=12, blend=0.1):
        self.period = period
        self.recent_hours = recent_hours
        self.blend = blend
        self.history = {}

    def fit(self, history):
        self.history = {org: list(map(float, series)) for org, series in history.items()}

    def observe(self, org, hour_index, value):
        series = self.history.setdefault(org, [])
        if hour_index < len(series):
            series[hour_index] = float(value)
            return
        last = series[-1] if series else float(value)
        while len(series) < hour_index:
            series.append(last)
        series.append(float(value))

    def _slot_stats(self, org):
        series = np.asarray(self.history.get(org, []), dtype=float)
        means = np.zeros(self.period)
        stds = np.zeros(self.period)
        if series.size == 0:
            return means, stds
        for slot in range(self.period):
            values = series[slot :: self.period] if slot < series.size else series[-1:]
            if values.size == 0:
                values = series[-1:]
            means[slot] = float(values.mean())
            stds[slot] = float(values.std()) if values.size > 1 else float(series.std())
        return means, stds

    def predict(self, org, start_hour, horizon):
        series = np.asarray(self.history.get(org, []), dtype=float)
        if series.size == 0:
            return np.zeros(horizon), np.ones(horizon)
        means, stds = self._slot_stats(org)
        recent = series[-self.recent_hours :]
        recent_level = float(recent.mean())
        slots = [(start_hour + h) % self.period for h in range(horizon)]
        seasonal = means[slots]
        mu = (1.0 - self.blend) * seasonal + self.blend * recent_level
        sigma = np.maximum(stds[slots], 1e-3)
        return mu, sigma


def assert_same_forecasts(forecaster, reference, orgs, start_hour, horizon):
    for org in orgs:
        mu, sigma = forecaster.predict(org, start_hour, horizon)
        ref_mu, ref_sigma = reference.predict(org, start_hour, horizon)
        assert np.array_equal(mu, ref_mu), org
        assert np.array_equal(sigma, ref_sigma), org


class TestSlotStatisticsMatchFrozenReference:
    """Kept slot statistics are bit-identical to a full recomputation."""

    ORGS = ("org-A", "org-B", "org-C")
    #: history lengths, in periods: under one, one to two (single-sample
    #: slots), two and more, and nine and more (numpy's pairwise summation
    #: regroups from eight samples per slot on)
    LENGTH_BANDS = ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (9.0, 10.5))

    def _draw_history(self, data, period):
        history = {}
        for org in data.draw(st.lists(st.sampled_from(self.ORGS), unique=True), label="fit orgs"):
            low, high = data.draw(st.sampled_from(self.LENGTH_BANDS), label=f"band {org}")
            length = data.draw(st.integers(int(low * period), int(high * period)), label=f"len {org}")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"seed {org}"))
            history[org] = rng.uniform(0.0, 1000.0, size=length)
        return history

    @pytest.mark.parametrize("check_every_step", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_interleavings(self, check_every_step, data):
        period = data.draw(st.sampled_from([3, 24]), label="period")
        forecaster = SeasonalQuantileForecaster(period=period)
        reference = FrozenSeasonalReference(period=period)
        value = st.floats(0.0, 1000.0, allow_nan=False)
        queried = self.ORGS + ("ghost",)

        def check():
            start_hour = data.draw(st.integers(0, 12 * period), label="start hour")
            horizon = data.draw(st.integers(1, period + 2), label="horizon")
            assert_same_forecasts(forecaster, reference, queried, start_hour, horizon)

        history = self._draw_history(data, period)
        forecaster.fit(history)
        reference.fit(history)
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            op = data.draw(
                st.sampled_from(["append", "append", "overwrite", "gap", "predict", "fit"]),
                label="op",
            )
            if op == "fit":
                history = self._draw_history(data, period)
                forecaster.fit(history)
                reference.fit(history)
            elif op == "predict":
                check()
            else:
                org = data.draw(st.sampled_from(self.ORGS), label="org")
                size = len(reference.history.get(org, ()))
                if op == "append":
                    hour = size
                elif op == "gap":
                    hour = size + data.draw(st.integers(1, period + 2), label="gap")
                else:
                    hour = data.draw(st.integers(0, max(size - 1, 0)), label="old hour")
                observed = data.draw(value, label="value")
                forecaster.observe(org, hour, observed)
                reference.observe(org, hour, observed)
            if check_every_step:
                check()
        check()
        assert forecaster.history == reference.history

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_full_build_matches_the_per_slot_loop(self, data):
        """All of ``(means, stds)`` after a full build, not only the slots a
        forecast reads, are the floats of the frozen loop of
        ``series[slot::period].mean()`` / ``.std()`` calls -- over the
        lengths where numpy regroups its additions (eight samples per slot
        and up), ragged tails and constant series.  A one-reduction form of
        the build (docs/performance.md, stage 5) has to pass this as it is."""
        period = data.draw(st.sampled_from([1, 2, 3, 7, 24, 168]), label="period")
        # in periods: under one (slots past the end), one to two (single-sample
        # slots), and up to 13 -- or 300 samples per slot where that is cheap
        most = 13 * period if period > 7 else 300 * period
        length = data.draw(
            st.one_of(st.integers(1, 2 * period), st.integers(1, most)), label="length"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["uniform", "constant", "few values", "wide"]), label="kind")
        series = {
            "uniform": lambda: rng.uniform(0.0, 1000.0, length),
            "constant": lambda: np.full(length, rng.uniform(0.0, 1000.0)),
            "few values": lambda: rng.choice([0.0, 0.1, 8.0, 1e6 / 3.0], size=length),
            "wide": lambda: rng.uniform(0.0, 1.0, length) * 10.0 ** rng.integers(-8, 9, length),
        }[kind]()
        forecaster = SeasonalQuantileForecaster(period=period).fit({"o": series})
        reference = FrozenSeasonalReference(period=period)
        reference.fit({"o": series})
        means, stds = forecaster._slot_stats("o", forecaster.history["o"])
        ref_means, ref_stds = reference._slot_stats("o")
        assert np.array_equal(means, ref_means)
        assert np.array_equal(stds, ref_stds)

    def test_hourly_observations_over_weekly_period(self, seasonal_history):
        """The simulator's pattern: fit, then per hour one observe and 12 queries."""
        rng = np.random.default_rng(7)
        history = {org: series + rng.normal(0.0, 3.0, series.size) for org, series in seasonal_history.items()}
        history["short"] = rng.uniform(0.0, 50.0, size=200)
        forecaster = SeasonalQuantileForecaster().fit(history)
        reference = FrozenSeasonalReference(period=168)
        reference.fit(history)
        for hour in range(336, 336 + 30):
            for org in history:
                observed = float(rng.uniform(0.0, 200.0))
                forecaster.observe(org, hour, observed)
                reference.observe(org, hour, observed)
            for _ in range(2):
                assert_same_forecasts(forecaster, reference, list(history) + ["ghost"], hour, 4)

    def test_history_replaced_from_outside(self, seasonal_history):
        """``OrgLinearOnlineForecaster`` assigns ``history`` directly."""
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        reference = FrozenSeasonalReference(period=168)
        reference.fit(seasonal_history)
        assert_same_forecasts(forecaster, reference, seasonal_history, 336, 6)
        # Same organizations, same lengths, different values: only the
        # identity of the list tells the kept statistics are stale.
        replaced = {org: list(np.asarray(series)[::-1] * 1.5) for org, series in seasonal_history.items()}
        forecaster.history = {org: list(series) for org, series in replaced.items()}
        reference.history = {org: list(series) for org, series in replaced.items()}
        assert_same_forecasts(forecaster, reference, replaced, 336, 6)
        # One organization's list swapped in place of the old one, shorter.
        forecaster.history["org-A"] = replaced["org-A"][:100]
        reference.history["org-A"] = replaced["org-A"][:100]
        assert_same_forecasts(forecaster, reference, replaced, 340, 6)
        # ... and appended to without going through observe().
        forecaster.history["org-B"].extend([7.0, 9.0])
        reference.history["org-B"].extend([7.0, 9.0])
        assert_same_forecasts(forecaster, reference, replaced, 340, 6)


class TestPreviousWeekPeakForecaster:
    def test_predicts_constant_peak(self, seasonal_history):
        forecaster = PreviousWeekPeakForecaster().fit(seasonal_history)
        mu, sigma = forecaster.predict("org-A", 2 * 168, 6)
        assert np.allclose(mu, np.max(seasonal_history["org-A"][-168:]))
        assert np.allclose(sigma, 0.0)


class TestOrgLinearOnlineForecaster:
    def test_falls_back_when_history_too_short(self):
        forecaster = OrgLinearOnlineForecaster().fit({"o": np.arange(50.0)})
        mu, sigma = forecaster.predict("o", 50, 4)
        assert mu.shape == (4,)

    def test_predicts_with_enough_history(self, seasonal_history):
        forecaster = OrgLinearOnlineForecaster(config=OrgLinearConfig(epochs=5)).fit(seasonal_history)
        mu, sigma = forecaster.predict("org-A", 2 * 168, 6)
        assert mu.shape == (6,)
        assert np.all(sigma >= 0)


class TestGPUDemandEstimator:
    def test_upper_bound_above_mean(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        mu, _ = estimator.predict("org-A", 336, 4)
        upper = estimator.upper_bound("org-A", 336, 4, p=0.95)
        assert np.all(upper >= mu - 1e-9)

    def test_peak_and_aggregate(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        peaks = estimator.peak_demand(336, 24, p=0.9)
        assert set(peaks) == {"org-A", "org-B"}
        # Eq. 9 aggregates them in the quota allocator.
        available, per_org = SpotQuotaAllocator(estimator, capacity=512.0).inventory(336, 0.9, 24)
        assert per_org == peaks and available == pytest.approx(512.0 - sum(peaks.values()))

    def test_unfitted_estimator_raises(self):
        with pytest.raises(RuntimeError):
            GPUDemandEstimator().predict("o", 0, 1)

    def test_observe_passthrough(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        estimator.observe("org-A", 400, 123.0)
        assert estimator.forecaster.history["org-A"][400] == 123.0


def frozen_peak_demand(estimator, start_hour, horizon, p):
    """``GPUDemandEstimator.peak_demand`` as it was before answers were kept."""
    z = normal_quantile(p)
    peaks = {}
    for org in estimator.organizations():
        mu, sigma = estimator.forecaster.predict(org, start_hour, horizon)
        peaks[org] = float(np.max(mu + z * np.maximum(sigma, 0.0)))
    return peaks


FORECASTERS = {
    "seasonal": lambda: SeasonalQuantileForecaster(period=24),
    "prev-week-peak": lambda: PreviousWeekPeakForecaster(week_hours=24),
    "orglinear": lambda: OrgLinearOnlineForecaster(
        config=OrgLinearConfig(input_length=12, horizon=4, decomposition_kernel=5, epochs=1)
    ),
}


class TestKeptPeakDemandMatchesFrozenRecomputation:
    """Kept ``peak_demand`` answers are the floats a recomputation gives,
    through every way the forecaster's history can change."""

    ORGS = ("org-A", "org-B", "org-C")
    #: few distinct queries, so that most of them repeat an earlier one
    START_HOURS, HORIZONS, RATES = (0, 30, 31), (1, 4), (0.9, 0.99)
    OPS = (
        "peak", "peak", "peak", "inventory", "upper bound", "mutate answer",
        "append", "gap", "overwrite", "fit",
        "replace dict", "replace list", "shorten", "extend", "new org", "rename org",
    )

    def _draw_history(self, data):
        orgs = data.draw(st.lists(st.sampled_from(self.ORGS), unique=True), label="fit orgs")
        history = {}
        for org in orgs:
            length = data.draw(st.integers(0, 60), label=f"len {org}")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"seed {org}"))
            history[org] = rng.uniform(0.0, 1000.0, size=length)
        return history

    @pytest.mark.parametrize("kind", sorted(FORECASTERS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_interleavings(self, kind, data):
        estimator = GPUDemandEstimator(FORECASTERS[kind]()).fit(self._draw_history(data))
        forecaster = estimator.forecaster
        value = st.floats(0.0, 1000.0, allow_nan=False)

        def query():
            return (
                data.draw(st.sampled_from(self.START_HOURS), label="start hour"),
                data.draw(st.sampled_from(self.HORIZONS), label="horizon"),
                data.draw(st.sampled_from(self.RATES), label="p"),
            )

        def check(args):
            assert estimator.peak_demand(*args) == frozen_peak_demand(estimator, *args)

        asked = query()
        check(asked)
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(self.OPS), label="op")
            org = data.draw(st.sampled_from(self.ORGS), label="org")
            series = forecaster.history.get(org, [])
            if op == "peak":
                asked = query()
            elif op == "inventory":
                start_hour, horizon, p = query()
                want = frozen_peak_demand(estimator, start_hour, horizon, p)
                available, peaks = SpotQuotaAllocator(estimator, 1e6).inventory(start_hour, p, horizon)
                assert peaks == want and available == max(0.0, 1e6 - float(sum(want.values())))
            elif op == "upper bound":
                start_hour, horizon, p = query()
                mu, sigma = forecaster.predict(org, start_hour, horizon)
                want = mu + normal_quantile(p) * np.maximum(sigma, 0.0)
                assert np.array_equal(estimator.upper_bound(org, start_hour, horizon, p), want)
            elif op == "mutate answer":
                args = query()
                answer = estimator.peak_demand(*args)
                answer["ghost"] = -1.0
                for name in list(answer):
                    answer[name] = -1.0
                check(args)
            elif op == "fit":
                estimator.fit(self._draw_history(data))
            elif op == "append":
                estimator.observe(org, len(series), data.draw(value, label="value"))
            elif op == "gap":
                hour = len(series) + data.draw(st.integers(1, 5), label="gap")
                estimator.observe(org, hour, data.draw(value, label="value"))
            elif op == "overwrite":
                hour = data.draw(st.integers(0, max(len(series) - 1, 0)), label="old hour")
                estimator.observe(org, hour, data.draw(value, label="value"))
            # Edits from outside, behind fit() and observe()'s back.
            elif op == "replace dict":
                forecaster.history = {o: [v * 1.5 for v in s] for o, s in forecaster.history.items()}
            elif op == "replace list" and org in forecaster.history:
                forecaster.history[org] = [v + 1.0 for v in series]
            elif op == "shorten" and series:
                del series[data.draw(st.integers(0, len(series) - 1), label="cut") :]
            elif op == "extend" and org in forecaster.history:
                series.extend(data.draw(st.lists(value, min_size=1, max_size=3), label="extra"))
            elif op == "new org":
                forecaster.history.setdefault("org-D", [5.0, 7.0])
            elif op == "rename org" and org in forecaster.history:
                forecaster.history = {o + "'" * (o == org): s for o, s in forecaster.history.items()}
            # The query asked before the step is asked again after it.
            check(asked)

    def test_outside_edits_of_the_history(self, seasonal_history):
        """The edits of ``test_history_replaced_from_outside``, each between
        two identical queries: the second answer is never the kept one."""
        estimator = GPUDemandEstimator().fit(seasonal_history)
        forecaster = estimator.forecaster
        args = (336, 6, 0.9)
        seen = [estimator.peak_demand(*args)]

        def changed():
            seen.append(estimator.peak_demand(*args))
            assert seen[-1] == frozen_peak_demand(estimator, *args)
            assert seen[-1] != seen[-2]

        forecaster.history = {org: list(np.asarray(s)[::-1] * 1.5) for org, s in seasonal_history.items()}
        changed()
        forecaster.history["org-A"] = forecaster.history["org-A"][:100]
        changed()
        forecaster.history["org-B"].extend([7.0, 9.0])
        changed()
        del forecaster.history["org-B"][-50:]
        changed()
        estimator.observe("org-A", 3, 4321.0)  # same lengths, same lists
        changed()
        forecaster.history = {org.lower(): s for org, s in forecaster.history.items()}
        changed()
        estimator.forecaster = PreviousWeekPeakForecaster()
        estimator.forecaster.history = forecaster.history  # the very same lists
        estimator.forecaster.version = forecaster.version
        changed()

    def test_repeated_query_does_not_forecast_again(self, seasonal_history, monkeypatch):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        calls = []
        predict = estimator.forecaster.predict
        monkeypatch.setattr(
            estimator.forecaster, "predict", lambda *args: calls.append(args) or predict(*args)
        )
        first = estimator.peak_demand(336, 1, 0.9)
        assert len(calls) == 2
        assert estimator.peak_demand(336, 1, 0.9) == first and len(calls) == 2
        assert estimator.peak_demand(336, 1, 0.9) is not first
        estimator.peak_demand(337, 1, 0.9)
        estimator.peak_demand(336, 1, 0.9)
        assert len(calls) == 4  # another hour is another answer; both are kept
        estimator.observe("org-A", 336, 10.0)
        estimator.peak_demand(336, 1, 0.9)
        assert len(calls) == 6

    def test_unfitted_estimator_still_raises(self):
        estimator = GPUDemandEstimator()
        estimator.observe("o", 0, 1.0)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                estimator.peak_demand(0, 1, 0.9)
        assert estimator.fit({"o": np.ones(3)}).peak_demand(0, 1, 0.9) == frozen_peak_demand(
            estimator, 0, 1, 0.9
        )

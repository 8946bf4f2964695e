"""Online demand forecasters used inside the scheduling loop.

The full OrgLinear model (``orglinear.py``) is what the forecasting
experiments evaluate; inside a running scheduler the GDE needs something
that can be queried thousands of times per simulated day and updated with
freshly observed demand.  All online forecasters implement the same small
interface:

``fit(history)``
    history: organization name -> hourly demand array (hour 0 = first hour).
``observe(org, hour_index, value)``
    Append/overwrite one observed demand point.
``predict(org, start_hour, horizon) -> (mu, sigma)``
    Gaussian forecast for ``horizon`` hours starting at ``start_hour``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

HOURS_PER_WEEK = 168


class OnlineForecaster(ABC):
    """Interface of forecasters pluggable into the GPU demand estimator."""

    def __init__(self) -> None:
        self.history: Dict[str, List[float]] = {}
        #: number of ``fit``/``observe`` calls so far; a forecast can only
        #: change when this moves or ``history`` is edited from outside
        self.version = 0

    # ------------------------------------------------------------------
    def fit(self, history: Mapping[str, np.ndarray]) -> "OnlineForecaster":
        self.version += 1
        self.history = {org: list(map(float, series)) for org, series in history.items()}
        self._refit()
        return self

    def observe(self, org: str, hour_index: int, value: float) -> None:
        """Record the observed demand of ``org`` at ``hour_index``."""
        if hour_index < 0:
            raise ValueError(f"hour_index must be non-negative, got {hour_index}")
        self.version += 1
        series = self.history.setdefault(org, [])
        if hour_index < len(series):
            series[hour_index] = float(value)
            return
        last = series[-1] if series else float(value)
        while len(series) < hour_index:
            series.append(last)
        series.append(float(value))

    def organizations(self) -> List[str]:
        return list(self.history)

    # ------------------------------------------------------------------
    def _refit(self) -> None:
        """Hook for forecasters that precompute statistics after ``fit``."""

    @abstractmethod
    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        """Gaussian (mu, sigma) forecast for the next ``horizon`` hours."""


class _SlotStats:
    """Per-slot statistics of one organization, as of ``size`` samples."""

    __slots__ = ("values", "size", "means", "stds", "dirty")

    def __init__(self, values: List[float], period: int):
        #: the ``history`` list the statistics describe
        self.values = values
        self.size = len(values)
        self.means = np.zeros(period)
        self.stds = np.zeros(period)
        #: slots overwritten since the statistics were last brought up to
        #: date (appended slots follow from ``len(values) - size``)
        self.dirty: Set[int] = set()


class SeasonalQuantileForecaster(OnlineForecaster):
    """Hour-of-week seasonal profile with empirical dispersion.

    For every organization the forecaster keeps the mean and standard
    deviation of demand per hour-of-week slot, blended with a trailing
    short-term level so that recent shifts are tracked.  This is the
    default GDE predictor inside simulations: probabilistic, adaptive and
    cheap enough to query at every quota update, because the slot
    statistics are kept per organization and ``predict`` recomputes only
    the slots written since the previous query — one per observed hour —
    not all ``period`` of them.

    The kept statistics assume ``history`` changes only through ``fit``
    and ``observe``.  Replacing, shortening or appending to an
    organization's list from outside is detected; overwriting elements of
    it in place, bypassing ``observe``, is not.
    """

    name = "SeasonalQuantile"

    def __init__(self, period: int = HOURS_PER_WEEK, recent_hours: int = 12, blend: float = 0.1):
        super().__init__()
        self.period = period
        self.recent_hours = recent_hours
        self.blend = blend
        self._slot_stats_by_org: Dict[str, _SlotStats] = {}

    def _refit(self) -> None:
        self._slot_stats_by_org.clear()

    def observe(self, org: str, hour_index: int, value: float) -> None:
        stats = self._slot_stats_by_org.get(org)
        if stats is not None and hour_index < len(stats.values):
            stats.dirty.add(hour_index % self.period)
        super().observe(org, hour_index, value)

    def _slot_stats(self, org: str, values: List[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slot (means, stds) of ``values``, the non-empty history of ``org``."""
        period = self.period
        stats = self._slot_stats_by_org.get(org)
        if stats is None or stats.values is not values or len(values) < stats.size:
            stats = None  # nothing kept, or the list was replaced or shortened
        else:
            stats.dirty.update(h % period for h in range(stats.size, len(values)))
            if not stats.dirty:
                return stats.means, stats.stds
        series = np.asarray(values, dtype=float)
        # Below two periods some slot has a single sample (its std is the
        # whole series') or none (it reads the last element), so any write
        # can move any slot; from two periods on a slot depends on its own
        # samples only.
        if stats is None or stats.size < 2 * period:
            stats = self._slot_stats_by_org[org] = _SlotStats(values, period)
            slots: Iterable[int] = range(period)
        else:
            slots = stats.dirty
        means, stds = stats.means, stats.stds
        for slot in slots:
            samples = series[slot::period] if slot < series.size else series[-1:]
            means[slot] = float(samples.mean())
            stds[slot] = float(samples.std()) if samples.size > 1 else float(series.std())
        stats.dirty.clear()
        stats.size = series.size
        return means, stds

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        values = self.history.get(org)
        if values is None or len(values) == 0:
            return np.zeros(horizon), np.ones(horizon)
        means, stds = self._slot_stats(org, values)
        recent = np.asarray(values[-self.recent_hours :], dtype=float)
        recent_level = float(recent.mean())
        slots = [(start_hour + h) % self.period for h in range(horizon)]
        seasonal = means[slots]
        mu = (1.0 - self.blend) * seasonal + self.blend * recent_level
        sigma = np.maximum(stds[slots], 1e-3)
        return mu, sigma


class PreviousWeekPeakForecaster(OnlineForecaster):
    """Naive conservative predictor: the previous week's peak, everywhere.

    This reproduces the production heuristic used before GFS and serves as
    the predictor of the GFS-e ablation.  The forecast is a point estimate
    (sigma = 0), so the ICDF upper bound coincides with the peak itself.
    """

    name = "PrevWeekPeak"

    def __init__(self, week_hours: int = HOURS_PER_WEEK):
        super().__init__()
        self.week_hours = week_hours

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        series = np.asarray(self.history.get(org, []), dtype=float)
        if series.size == 0:
            return np.zeros(horizon), np.zeros(horizon)
        window = series[-self.week_hours :]
        peak = float(window.max())
        return np.full(horizon, peak), np.zeros(horizon)


class OrgLinearOnlineForecaster(OnlineForecaster):
    """OrgLinear wrapped for online use inside the scheduler.

    The model is trained once on the provided history (optionally refitted
    every ``refit_interval`` observed hours) and queried with the trailing
    input window.
    """

    name = "OrgLinearOnline"

    def __init__(self, config=None, attributes: Optional[Mapping[str, Mapping[str, str]]] = None):
        super().__init__()
        from .orglinear import OrgLinear, OrgLinearConfig

        self._config = config or OrgLinearConfig(epochs=30)
        self._model_cls = OrgLinear
        self.model: Optional[OrgLinear] = None
        self.attributes = dict(attributes or {})
        self._dataset = None

    def _refit(self) -> None:
        from .dataset import build_window_dataset

        attrs = {
            org: self.attributes.get(org, {"organization": org})
            for org in self.history
        }
        history = {org: np.asarray(series, dtype=float) for org, series in self.history.items()}
        usable = {
            org: series
            for org, series in history.items()
            if series.size >= self._config.input_length + self._config.horizon
        }
        if not usable:
            self.model = None
            return
        self._dataset = build_window_dataset(
            usable,
            attrs,
            input_length=self._config.input_length,
            horizon=self._config.horizon,
            stride=6,
        )
        self.model = self._model_cls(self._config).fit(self._dataset)

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        series = np.asarray(self.history.get(org, []), dtype=float)
        if self.model is None or self._dataset is None or series.size < self._config.input_length:
            # Fallback: seasonal statistics when the model cannot run yet.
            fallback = SeasonalQuantileForecaster()
            fallback.history = {org: list(series)}
            return fallback.predict(org, start_hour, horizon)
        from .dataset import ForecastSample, WindowDataset

        window = series[-self._config.input_length :]
        sample = ForecastSample(
            org=org,
            history=window,
            target=np.zeros(self._config.horizon),
            start_hour=start_hour,
            business_index=self._dataset.vocabulary.encode(
                self.attributes.get(org, {"organization": org})
            ),
        )
        query = WindowDataset(
            input_length=self._config.input_length,
            horizon=self._config.horizon,
            samples=[sample],
            vocabulary=self._dataset.vocabulary,
            norm=dict(self._dataset.norm),
        )
        mu, sigma = self.model.predict(query)
        return mu[0][:horizon], sigma[0][:horizon]

"""GPU Demand Estimator (GDE): the forecasting module of GFS.

The GDE maintains per-organization HP demand history, delegates forecasting
to a pluggable online forecaster and exposes the probabilistic queries the
Spot Quota Allocator consumes: per-organization Gaussian forecasts and the
ICDF upper bounds used by the inventory estimation of Eq. (9).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .forecaster import OnlineForecaster, SeasonalQuantileForecaster


@functools.lru_cache
def normal_quantile(p: float) -> float:
    """Standard-normal quantile via the inverse error function."""
    if not 0.0 < p < 1.0:
        raise ValueError("guarantee rate p must be in (0, 1)")
    from scipy.special import erfinv

    return math.sqrt(2.0) * float(erfinv(2.0 * p - 1.0))


class GPUDemandEstimator:
    """Forecasts per-organization HP GPU demand distributions."""

    def __init__(self, forecaster: Optional[OnlineForecaster] = None):
        self.forecaster = forecaster or SeasonalQuantileForecaster()
        self._fitted = False
        #: ``peak_demand`` answers by ``(start_hour, horizon, p)``, kept while
        #: the forecaster is as ``_peaks_basis`` and ``_peaks_series`` saw it
        self._peaks: Dict[Tuple[int, int, float], Dict[str, float]] = {}
        self._peaks_basis: Optional[tuple] = None
        self._peaks_series: List[List[float]] = []

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def fit(self, history: Mapping[str, np.ndarray]) -> "GPUDemandEstimator":
        """Load historical per-organization hourly demand and fit the forecaster."""
        self.forecaster.fit(history)
        self._fitted = True
        return self

    def observe(self, org: str, hour_index: int, demand: float) -> None:
        """Feed one observed demand point back into the forecaster."""
        self.forecaster.observe(org, hour_index, demand)

    def organizations(self) -> list[str]:
        return self.forecaster.organizations()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        """Gaussian (mu, sigma) forecast for one organization."""
        if not self._fitted:
            raise RuntimeError("GPUDemandEstimator.fit must be called first")
        return self.forecaster.predict(org, start_hour, horizon)

    def upper_bound(self, org: str, start_hour: int, horizon: int, p: float) -> np.ndarray:
        """ICDF upper-bound sequence ``y_hat_{o|p}[1:H]`` of Section 3.3.1."""
        return self._upper_bound(org, start_hour, horizon, normal_quantile(p))

    def _upper_bound(self, org: str, start_hour: int, horizon: int, z: float) -> np.ndarray:
        mu, sigma = self.predict(org, start_hour, horizon)
        return mu + z * np.maximum(sigma, 0.0)

    def peak_demand(self, start_hour: int, horizon: int, p: float) -> Dict[str, float]:
        """Per-organization peak of the upper-bound sequence over the horizon.

        Quota updates ask every few minutes and demand is observed once an
        hour, so an answer is kept until it can have changed: a ``fit`` or
        ``observe`` on the forecaster since, or an organization's history
        list replaced, shortened or extended from outside (the edits the
        seasonal forecaster's kept statistics detect; overwriting elements
        in place behind ``observe``'s back is not detected).  The check
        holds the lists themselves, so a snapshot or a ``fork()`` of the
        simulator inherits the answers.  The caller owns the returned dict.
        """
        forecaster = self.forecaster
        series = list(forecaster.history.values())
        basis = (forecaster, forecaster.version, list(forecaster.history), list(map(len, series)))
        if basis != self._peaks_basis or not all(map(operator.is_, series, self._peaks_series)):
            self._peaks, self._peaks_basis, self._peaks_series = {}, basis, series
        peaks = self._peaks.get((start_hour, horizon, p))
        if peaks is None:
            z = normal_quantile(p)
            peaks = self._peaks[start_hour, horizon, p] = {
                org: float(np.max(self._upper_bound(org, start_hour, horizon, z)))
                for org in self.organizations()
            }
        return dict(peaks)

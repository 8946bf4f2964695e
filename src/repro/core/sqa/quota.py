"""Spot Quota Allocator (Section 3.3).

The SQA converts the GDE's probabilistic demand forecast into a concrete,
time-varying GPU quota for spot tasks.  The inventory with guaranteed
duration ``H`` at guarantee rate ``p`` is the cluster capacity left over
after reserving the aggregated per-organization peak upper-bound demand:

    f(p, H) = max(0, C - sum_o max(y_hat_{o|p}[1:H]))      (Eq. 9)

(the paper's ``max(C, ...)`` formulation together with its "set f to 0
when demand saturates the cluster" convention is clamping at zero), and
the quota is

    Q_H = min(f(p, H) * eta,  S_0 + S_a)                   (Eq. 10)

where ``S_0`` is the number of currently idle GPUs and ``S_a`` the GPUs
held by spot tasks whose guaranteed duration extends at least ``H`` hours.
The safety coefficient ``eta`` is adapted by an eviction-aware feedback
rule (Eq. 11): shrink the quota when the observed eviction rate is too
high, grow it when evictions are rare but spot tasks queue for too long.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import GFSConfig
from ..gde.estimator import GPUDemandEstimator

#: safety coefficient eta before any feedback (Eq. 10)
INITIAL_ETA = 1.0
#: bounds keeping eta in a sane range under the Eq. (11) feedback; the lower
#: bound prevents a collapse spiral where evictions shrink the quota so far
#: that evicted tasks can never be re-admitted
MIN_ETA = 0.5
MAX_ETA = 4.0


class SpotQuotaAllocator:
    """Dynamic spot quota controller with eviction-aware feedback.

    Holds the demand estimator and the cluster capacity ``C`` of Eq. (9);
    ``p``, ``H`` and ``theta`` are the :class:`~repro.core.config.GFSConfig`'s.
    """

    def __init__(
        self, estimator: GPUDemandEstimator, capacity: float, config: Optional[GFSConfig] = None
    ):
        if capacity <= 0:
            raise ValueError("cluster capacity must be positive")
        self.estimator = estimator
        self.capacity = float(capacity)
        self.config = config or GFSConfig()
        self.eta = INITIAL_ETA
        self.current_quota: float = 0.0

    # ------------------------------------------------------------------
    # Inventory (Eq. 9)
    # ------------------------------------------------------------------
    def inventory(
        self, start_hour: int, p: float, horizon_hours: float
    ) -> Tuple[float, Dict[str, float]]:
        """``f(p, H)`` from ``start_hour`` and the per-organization peaks it reserves.

        The caller owns the returned dict.
        """
        per_org = self.estimator.peak_demand(start_hour, max(1, int(round(horizon_hours))), p)
        return max(0.0, self.capacity - float(sum(per_org.values()))), per_org

    # ------------------------------------------------------------------
    # Feedback rule (Eq. 11)
    # ------------------------------------------------------------------
    def update_eta(self, eviction_rate: float, max_queue_time: float) -> float:
        """Adapt the safety coefficient from recent cluster conditions."""
        cfg = self.config
        tolerated = 1.0 - cfg.guarantee_rate  # the paper's p is a guarantee rate
        if tolerated <= 0:
            tolerated = 1e-6
        if eviction_rate > 1.5 * tolerated:
            self.eta *= tolerated / max(eviction_rate, 1e-9)
        elif eviction_rate < 0.5 * tolerated and max_queue_time > cfg.queue_threshold:
            self.eta *= 1.5 - eviction_rate / tolerated
        self.eta = min(MAX_ETA, max(MIN_ETA, self.eta))
        return self.eta

    # ------------------------------------------------------------------
    # Quota computation (Eq. 10)
    # ------------------------------------------------------------------
    def compute_quota(
        self,
        now: float,
        start_hour: int,
        idle_gpus: float,
        guaranteed_spot_gpus: float,
        eviction_rate: float,
        max_queue_time: float,
        adapt: bool = True,
    ) -> float:
        """Recompute the spot quota ``Q_H`` for the next interval."""
        cfg = self.config
        if adapt:
            self.update_eta(eviction_rate, max_queue_time)
        available, _ = self.inventory(start_hour, cfg.guarantee_rate, cfg.guarantee_hours)
        quota = min(available * self.eta, idle_gpus + guaranteed_spot_gpus)
        self.current_quota = max(0.0, quota)
        return self.current_quota

    # ------------------------------------------------------------------
    def admits(self, requested_gpus: float, spot_gpus_in_use: float) -> bool:
        """Quota check: would admitting ``requested_gpus`` stay within Q_H?"""
        return spot_gpus_in_use + requested_gpus <= self.current_quota + 1e-9

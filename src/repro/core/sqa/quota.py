"""Spot Quota Allocator (Section 3.3).

The SQA converts the GDE's probabilistic demand forecast into a concrete,
time-varying GPU quota for spot tasks:

    Q_H = min(f(p, H) * eta,  S_0 + S_a)            (Eq. 10)

where ``S_0`` is the number of currently idle GPUs and ``S_a`` the GPUs
held by spot tasks whose guaranteed duration extends at least ``H`` hours.
The safety coefficient ``eta`` is adapted by an eviction-aware feedback
rule (Eq. 11): shrink the quota when the observed eviction rate is too
high, grow it when evictions are rare but spot tasks queue for too long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .inventory import GPUInventoryEstimator


@dataclass
class SQAConfig:
    """Tunable parameters of the spot quota allocator (Table 4)."""

    #: target guarantee rate p; the tolerated eviction rate is 1 - p
    guarantee_rate: float = 0.9
    #: guaranteed duration H in hours
    guarantee_hours: float = 1.0
    #: initial safety coefficient eta
    initial_eta: float = 1.0
    #: queuing-time threshold theta (seconds) of the low-eviction rule
    queue_threshold: float = 3600.0
    #: bounds keeping eta in a sane range under feedback; the lower bound
    #: prevents a collapse spiral where evictions shrink the quota so far
    #: that evicted tasks can never be re-admitted
    min_eta: float = 0.5
    max_eta: float = 4.0


class SpotQuotaAllocator:
    """Dynamic spot quota controller with eviction-aware feedback."""

    def __init__(self, inventory: GPUInventoryEstimator, config: Optional[SQAConfig] = None):
        self.inventory = inventory
        self.config = config or SQAConfig()
        self.eta = self.config.initial_eta
        self.current_quota: float = 0.0

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
        self.eta = min(cfg.max_eta, max(cfg.min_eta, self.eta))
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
        estimate = self.inventory.estimate(start_hour, cfg.guarantee_hours, cfg.guarantee_rate)
        quota = min(estimate.available * self.eta, idle_gpus + guaranteed_spot_gpus)
        self.current_quota = max(0.0, quota)
        return self.current_quota

    # ------------------------------------------------------------------
    def admits(self, requested_gpus: float, spot_gpus_in_use: float) -> bool:
        """Quota check: would admitting ``requested_gpus`` stay within Q_H?"""
        return spot_gpus_in_use + requested_gpus <= self.current_quota + 1e-9

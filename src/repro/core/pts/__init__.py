"""Preemptive Task Scheduler (PTS): scoring, Algorithms 1-3."""

from .nonpreemptive import non_preemptive_placement
from .preemptive import (
    PreemptionCandidate,
    node_preemption_plan,
    preemption_cost,
    preemptive_placement,
)
from .scheduler import PreemptiveTaskScheduler
from .scoring import (
    circuit_breaker_active,
    colocation_score,
    eviction_awareness_score,
    packing_score,
    score_tuple,
    weighted_eviction_rate,
)

__all__ = [
    "PreemptionCandidate",
    "PreemptiveTaskScheduler",
    "circuit_breaker_active",
    "colocation_score",
    "eviction_awareness_score",
    "node_preemption_plan",
    "non_preemptive_placement",
    "packing_score",
    "preemption_cost",
    "preemptive_placement",
    "score_tuple",
    "weighted_eviction_rate",
]

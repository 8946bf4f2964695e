"""GPU device models and per-device allocation state.

The paper's production fleet (Table 1) mixes four GPU models (A10, A100,
A800, H800).  Tasks may request whole cards or card fractions (< 1 GPU),
so every device tracks a fractional allocation map keyed by task id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

# Tolerance used when comparing fractional GPU allocations.
EPSILON = 1e-9


def is_fractional_pod(gpus_per_pod: float) -> bool:
    """Whether a pod shares one card (< 1 GPU) rather than taking whole cards.

    Fit checks, allocation, candidate indexes and scores all ask this one.
    """
    return gpus_per_pod < 1.0 - EPSILON


class GPUModel(str, Enum):
    """GPU models present in the production cluster of Table 1.

    Members (``A10``, ``A100``, ``A800``, ``H800``) compare as strings,
    so they serialise cleanly into reports and can key per-model fleet
    partitions.

    Example
    -------
    >>> GPUModel.A100.value
    'A100'
    >>> GPUModel("H800") is GPUModel.H800
    True
    """

    A10 = "A10"
    A100 = "A100"
    A800 = "A800"
    H800 = "H800"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Approximate on-demand hourly price (USD) per GPU, used by the economics
#: module to translate allocation-rate gains into monthly benefit (Fig. 9).
HOURLY_PRICE_USD: Dict[GPUModel, float] = {
    GPUModel.A10: 0.9,
    GPUModel.A100: 3.1,
    GPUModel.A800: 2.8,
    GPUModel.H800: 4.2,
}

#: Spot discount relative to on-demand pricing (the paper quotes 60-90%).
SPOT_DISCOUNT = 0.7


@dataclass
class GPUDevice:
    """A single GPU card on a node.

    Attributes
    ----------
    index:
        Card index within its node (0-based).
    model:
        The hardware model of the card.
    allocations:
        Mapping of task id to the fraction of this card the task holds.
        The sum of fractions never exceeds 1.
    """

    index: int
    model: GPUModel
    allocations: Dict[str, float] = field(default_factory=dict)
    _used: float = 0.0

    @property
    def used_fraction(self) -> float:
        """Total allocated fraction of this card."""
        return self._used

    @property
    def free_fraction(self) -> float:
        """Remaining free fraction of this card."""
        return max(0.0, 1.0 - self.used_fraction)

    @property
    def is_idle(self) -> bool:
        """True when no task holds any share of this card."""
        return not self.allocations

    def can_fit(self, fraction: float) -> bool:
        """Whether ``fraction`` of this card can still be allocated."""
        if is_fractional_pod(fraction):
            return self.free_fraction + EPSILON >= fraction
        return self.is_idle

    def allocate(self, task_id: str, fraction: float) -> None:
        """Assign ``fraction`` of this card to ``task_id``.

        Raises
        ------
        ValueError
            If the requested fraction does not fit on the card.
        """
        if not self.can_fit(fraction):
            raise ValueError(
                f"GPU {self.index} cannot fit {fraction:.2f} "
                f"(free={self.free_fraction:.2f})"
            )
        self.allocations[task_id] = self.allocations.get(task_id, 0.0) + fraction
        self._used += fraction

    def release(self, task_id: str) -> float:
        """Release every share held by ``task_id`` and return the freed fraction."""
        freed = self.allocations.pop(task_id, 0.0)
        self._used = max(0.0, self._used - freed)
        if not self.allocations:
            self._used = 0.0
        return freed

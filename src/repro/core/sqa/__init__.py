"""Spot Quota Allocator (SQA): inventory estimation and dynamic quota control."""

from .inventory import GPUInventoryEstimator, InventoryEstimate
from .quota import SQAConfig, SpotQuotaAllocator

__all__ = [
    "GPUInventoryEstimator",
    "InventoryEstimate",
    "SQAConfig",
    "SpotQuotaAllocator",
]

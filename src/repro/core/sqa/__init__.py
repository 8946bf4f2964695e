"""Spot Quota Allocator (SQA): inventory estimation and dynamic quota control."""

from .quota import MAX_ETA, MIN_ETA, SpotQuotaAllocator

__all__ = ["MAX_ETA", "MIN_ETA", "SpotQuotaAllocator"]

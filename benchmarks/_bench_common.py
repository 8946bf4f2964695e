"""Shared helpers for the benchmark harness.

Lives beside the benchmark tests (the benchmarks directory is on
``sys.path`` during collection, like ``legacy/``) so every harness uses
one definition of metric bit-identity and one rule for wall-clock gates
instead of drifting copies.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Sequence

from repro.cluster import SimulationMetrics


def values_equal(a, b) -> bool:
    """Exact equality, treating NaN == NaN and descending into sequences."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    return a == b


def assert_metrics_identical(new: SimulationMetrics, old: SimulationMetrics, label: str) -> None:
    """Field-by-field bit-identity, descending into the per-class metrics."""
    for cls_name in ("hp", "spot"):
        new_cls, old_cls = getattr(new, cls_name), getattr(old, cls_name)
        for field_name, old_value in vars(old_cls).items():
            new_value = getattr(new_cls, field_name)
            assert values_equal(new_value, old_value), (
                f"[{label}] {cls_name}.{field_name}: "
                f"optimized {new_value!r} != reference {old_value!r}"
            )
    for field_name, old_value in vars(old).items():
        if field_name in ("hp", "spot"):
            continue
        new_value = getattr(new, field_name)
        assert values_equal(new_value, old_value), (
            f"[{label}] {field_name}: optimized {new_value!r} != reference {old_value!r}"
        )


def gate(label: str, failures: Sequence[str]) -> None:
    """Assert a wall-clock check found nothing wrong; warn instead under
    ``REPRO_BENCH_STRICT=0``.

    Shared CI runners are too noisy for a hard timing bound, so tier-1 CI
    sets that knob; every other run (``make verify``, ``make perf-smoke``)
    asserts.  Correctness checks (metric identity, conservation) never go
    through here: they always assert.
    """
    message = f"{label}: " + "; ".join(failures)
    if os.environ.get("REPRO_BENCH_STRICT", "1").strip().lower() in ("", "0", "false", "no", "off"):
        if failures:
            warnings.warn(message)
    else:
        assert not failures, message

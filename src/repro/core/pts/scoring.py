"""Node scoring criteria of the non-preemptive scheduling policy (Section 3.4.2).

Three criteria are evaluated lexicographically for every candidate node:

* **Score 1 — GPU packing** (Eq. 13): prefer nodes with few idle GPUs to
  limit fragmentation.
* **Score 2 — homogeneous co-location** (Eq. 14): HP tasks prefer nodes
  already running HP tasks, spot tasks prefer nodes running spot tasks.
* **Score 3 — eviction awareness** (Eqs. 15-16): spot tasks avoid nodes
  with a history of evictions, HP tasks are steered towards them; a
  circuit breaker blacklists nodes whose spot score reaches zero.

The weights gamma and m are :class:`~repro.core.config.GFSConfig`'s.
"""

from __future__ import annotations

from typing import Tuple

from ...cluster import Node, Task
from ..config import GFSConfig

#: short / long eviction observation windows of Eq. (15), in seconds
SHORT_WINDOW = 3600.0
LONG_WINDOW = 24 * 3600.0


def packing_score(node: Node, idle_gpus: float) -> float:
    """Score 1 (Eq. 13): higher for nodes with fewer idle GPUs."""
    if node.total_gpus <= 0:
        return 0.0
    return 1.0 - idle_gpus / node.total_gpus


def colocation_score(node: Node, task: Task) -> float:
    """Score 2 (Eq. 14): same-type GPU share on the node."""
    if node.total_gpus <= 0:
        return 0.0
    return node.allocated_gpus_by_type(task.task_type) / node.total_gpus


def weighted_eviction_rate(node: Node, now: float, config: GFSConfig) -> float:
    """Weighted node eviction measure ``e_bar`` of Eq. (15)."""
    short = node.eviction_count_since(now, SHORT_WINDOW)
    long = node.eviction_count_since(now, LONG_WINDOW)
    long_hours = LONG_WINDOW / 3600.0
    return config.gamma * short + (1.0 - config.gamma) * long / long_hours


def eviction_penalty(node: Node, now: float, config: GFSConfig) -> float:
    """The penalty term ``0.01 * m * e_bar`` of Eq. (16).

    Exactly ``0.0`` for a node with an empty eviction history, so a caller
    scoring many nodes may skip the call for those.
    """
    return 0.01 * config.penalty * weighted_eviction_rate(node, now, config)


def _eviction_awareness(penalty: float, task: Task) -> float:
    if task.is_hp:
        return min(penalty, 1.0)
    return max(1.0 - penalty, 0.0)


def _circuit_broken(penalty: float) -> bool:
    return 1.0 - penalty <= 0.0


def eviction_terms(penalty: float, task: Task) -> Tuple[bool, float]:
    """``(circuit breaker, Score 3)`` for ``task`` on a node with ``penalty``."""
    return _circuit_broken(penalty), _eviction_awareness(penalty, task)


def eviction_awareness_score(node: Node, task: Task, now: float, config: GFSConfig) -> float:
    """Score 3 (Eq. 16) with asymmetric penalties for HP and spot tasks."""
    return _eviction_awareness(eviction_penalty(node, now, config), task)


def circuit_breaker_active(node: Node, now: float, config: GFSConfig) -> bool:
    """Whether the node is blacklisted for spot scheduling (Score 3 == 0)."""
    return _circuit_broken(eviction_penalty(node, now, config))


def score_tuple(
    node: Node,
    idle_gpus: float,
    task: Task,
    now: float,
    config: GFSConfig,
    use_colocation: bool = True,
    use_eviction_awareness: bool = True,
) -> Tuple[float, float, float]:
    """The <Score1, Score2, Score3> tuple used to rank candidate nodes."""
    s2 = colocation_score(node, task) if use_colocation else 0.0
    s3 = eviction_awareness_score(node, task, now, config) if use_eviction_awareness else 0.0
    return (packing_score(node, idle_gpus), s2, s3)

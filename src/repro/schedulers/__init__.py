"""Baseline schedulers and the scheduler interface."""

from .base import Scheduler
from .chronus import ChronusScheduler
from .fgd import FGDScheduler, fgd_score, fragmentation_after
from .lyra import LyraScheduler
from .placement import NodeView, PlacementContext, gpus_held_on_node, spot_tasks_on_node
from .registry import available_schedulers, create_scheduler, register
from .yarn_cs import YarnCSScheduler, best_fit_score

__all__ = [
    "ChronusScheduler",
    "FGDScheduler",
    "LyraScheduler",
    "NodeView",
    "PlacementContext",
    "Scheduler",
    "YarnCSScheduler",
    "available_schedulers",
    "best_fit_score",
    "create_scheduler",
    "fgd_score",
    "fragmentation_after",
    "gpus_held_on_node",
    "register",
    "spot_tasks_on_node",
]

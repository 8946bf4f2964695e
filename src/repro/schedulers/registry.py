"""Scheduler registry: build any scheduler (baselines or GFS) by name."""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Scheduler
from .chronus import ChronusScheduler
from .fgd import FGDScheduler
from .lyra import LyraScheduler
from .yarn_cs import YarnCSScheduler

SchedulerFactory = Callable[..., Scheduler]

_REGISTRY: Dict[str, SchedulerFactory] = {}


def register(name: str, factory: SchedulerFactory) -> None:
    """Register a scheduler factory under a case-insensitive name."""
    _REGISTRY[name.lower()] = factory


def available_schedulers() -> List[str]:
    """Names of every registered scheduler."""
    _ensure_core_registered()
    return sorted(_REGISTRY)


def display_name(name: str) -> str:
    """The report name of a scheduler without building it: the class's
    ``name``, or the upper-cased kind for the ablation factories (which is
    what ``make_ablation`` names its instances)."""
    _ensure_core_registered()
    key = name.lower()
    return getattr(_REGISTRY.get(key), "name", key.upper())


def create_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by its registered (case-insensitive) name.

    Accepts the four baselines (``"yarn-cs"``, ``"chronus"``, ``"lyra"``,
    ``"fgd"``), PTS without admission control (``"pts"``), ``"gfs"``
    and the ablation variants (``"gfs-e"``,
    ``"gfs-d"``, ``"gfs-s"``, ``"gfs-p"``, ``"gfs-sp"``); keyword
    arguments are forwarded to the scheduler constructor.  Raises
    ``KeyError`` listing the registered names when ``name`` is unknown.

    Example
    -------
    >>> from repro import create_scheduler
    >>> scheduler = create_scheduler("gfs", org_history=trace.org_history)
    >>> scheduler.name
    'GFS'
    """
    _ensure_core_registered()
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown scheduler {name!r}; available: {available_schedulers()}")
    return _REGISTRY[key](**kwargs)


def _ensure_core_registered() -> None:
    """Lazily register PTS and the GFS variants: ``repro.core`` imports
    this package at load time, so a module-level import would be circular."""
    if "gfs" in _REGISTRY:
        return
    from ..core.gfs import GFSScheduler, make_ablation
    from ..core.pts import PreemptiveTaskScheduler

    register("pts", PreemptiveTaskScheduler)
    register("gfs", GFSScheduler)
    for variant in ("gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp"):
        register(variant, lambda v=variant, **kw: make_ablation(v, **kw))


register("yarn-cs", YarnCSScheduler)
register("yarn_cs", YarnCSScheduler)
register("chronus", ChronusScheduler)
register("lyra", LyraScheduler)
register("fgd", FGDScheduler)

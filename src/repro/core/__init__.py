"""The paper's primary contribution: GDE + SQA + PTS assembled into GFS."""

from . import gde, pts, sqa
from .config import GFSConfig
from .gfs import ABLATION_OVERRIDES, GFSScheduler, make_ablation

__all__ = [
    "ABLATION_OVERRIDES",
    "GFSConfig",
    "GFSScheduler",
    "gde",
    "make_ablation",
    "pts",
    "sqa",
]

"""The one configuration of GFS, shared by the GDE, SQA and PTS.

The paper's modules read one parameter table (Table 4: beta, p, H, theta,
gamma, m); :class:`GFSConfig` is that table plus the GDE forecaster choice
and the Section 4.6 ablation switches.  It imports nothing from the
modules that read it, so ``core.sqa``, ``core.pts`` and ``core.gfs`` all
take it as is.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GFSConfig:
    """End-to-end configuration of GFS (defaults follow Table 4).

    Groups every knob of the three modules: the SQA guarantee targets
    (``guarantee_rate``/``guarantee_hours``/``queue_threshold``), the PTS
    scoring weights (``beta``/``gamma``/``penalty``), the GDE forecaster
    choice, and the ablation switches used by :func:`repro.core.make_ablation`.

    Example
    -------
    >>> config = GFSConfig(guarantee_hours=2.0, forecaster="seasonal")
    >>> scheduler = GFSScheduler(config, org_history=trace.org_history)
    """

    #: preemption-cost weight beta (Eq. 19)
    beta: float = 0.5
    #: target guarantee rate p (Eq. 9); the tolerated eviction rate is 1 - p
    guarantee_rate: float = 0.9
    #: guaranteed duration H in hours (Eq. 9 / Table 6)
    guarantee_hours: float = 1.0
    #: maximum spot queuing-time threshold theta, seconds (Eq. 11)
    queue_threshold: float = 3600.0
    #: eviction-history weight gamma (Eq. 15)
    gamma: float = 0.8
    #: eviction penalty intensity m (Eq. 16)
    penalty: float = 3.0
    #: which online forecaster the GDE uses:
    #: "seasonal" (default), "prev-week-peak" (GFS-e) or "orglinear"
    forecaster: str = "seasonal"
    #: disable the eta feedback loop (GFS-d keeps eta = 1.0)
    adapt_eta: bool = True
    #: disable Score2/Score3 in non-preemptive scheduling (GFS-s)
    use_colocation: bool = True
    use_eviction_awareness: bool = True
    #: replace cost-aware preemption by random selection (GFS-p)
    random_preemption: bool = False
    #: seed of the random-preemption draws
    seed: int = 0

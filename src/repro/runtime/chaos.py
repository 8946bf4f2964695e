"""Self-chaos harness: seeded fault injection for the *harness itself*.

PR 5's :class:`~repro.dynamics.FaultInjector` kills simulated nodes
inside the simulation; this module applies the same discipline one layer
up, to the processes that *run* the simulations.  A :class:`ChaosPlan`
is a pure function of ``(seed, job key, attempt)`` — no wall clock, no
global RNG — so a chaos schedule is exactly reproducible, and a
:class:`ChaosWorker` wraps the real worker callable with three failure
modes drawn from that schedule:

* ``kill``   — ``os._exit(139)``: the worker process vanishes without
  unwinding, exactly like ``kill -9`` / an OOM kill.  Breaks the whole
  ``ProcessPoolExecutor``, which is the point.
* ``hang``   — sleep past the guard timeout: a wedged worker that will
  never return (deadlocked allocator, stuck NFS read).
* ``poison`` — raise :class:`ChaosPoison`: a job that fails loudly.

``max_strikes`` bounds injections per job: once a job's attempt number
exceeds it, the plan always answers ``ok`` — so any guard whose retry
budget exceeds the worst-case strike count provably converges, and the
chaos suite can assert the swept grid is bit-identical to an
uninterrupted reference run (``tests/test_chaos_harness.py``).

Only use ``kill``/``hang`` modes with jobs in worker processes
(``workers >= 2``, or a guard deadline, which ``hang`` needs anyway):
in-process, ``os._exit`` would take the driver down with it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from .guards import deterministic_fraction

#: chaos decision outcomes, in evaluation order
CHAOS_ACTIONS = ("kill", "hang", "poison", "ok")


class ChaosPoison(RuntimeError):
    """The exception a poisoned chaos job raises."""


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic schedule of harness faults.

    Probabilities are cumulative-checked in ``kill, hang, poison``
    order against one deterministic draw per ``(job, attempt)``.
    """

    seed: int = 0
    kill_prob: float = 0.0
    hang_prob: float = 0.0
    poison_prob: float = 0.0
    hang_s: float = 30.0
    #: attempts beyond this are never struck (guarantees convergence)
    max_strikes: int = 2

    def decide(self, job_key: str, attempt: int) -> str:
        """The fault (or ``"ok"``) this job suffers on this attempt."""
        if attempt > self.max_strikes:
            return "ok"
        draw = deterministic_fraction("chaos", self.seed, job_key, attempt)
        threshold = 0.0
        for action, prob in (
            ("kill", self.kill_prob),
            ("hang", self.hang_prob),
            ("poison", self.poison_prob),
        ):
            threshold += prob
            if draw < threshold:
                return action
        return "ok"


class ChaosWorker:
    """Picklable wrapper injecting a :class:`ChaosPlan` around a worker.

    ``inner`` must itself be picklable (a top-level function); the
    wrapper is invoked with the executor's ``(item, attempt)`` protocol
    and consults the plan *before* running the real work, so a struck
    attempt does no simulation at all — like a worker that died on
    startup.
    """

    def __init__(self, plan: ChaosPlan, inner: Callable):
        self.plan = plan
        self.inner = inner

    def __call__(self, item, attempt: int = 1):
        job_key = item.key
        action = self.plan.decide(job_key, attempt)
        if action == "kill":
            os._exit(139)  # no unwinding: indistinguishable from kill -9
        if action == "hang":
            time.sleep(self.plan.hang_s)
            raise ChaosPoison(
                f"chaos hang on {job_key!r} attempt {attempt} outlived its sleep "
                f"(guard timeout did not fire?)"
            )
        if action == "poison":
            raise ChaosPoison(f"chaos poison on {job_key!r} attempt {attempt}")
        return self.inner(item, attempt)

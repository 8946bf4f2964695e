"""Fault-tolerant job execution: one supervision loop, in process or over a pool.

``concurrent.futures.ProcessPoolExecutor`` has a brutal failure model:
one worker dying (``kill -9``, OOM kill, a segfaulting extension)
*breaks the entire pool* — every in-flight future raises
``BrokenProcessPool`` and nothing can be submitted again.  A hung worker
is worse: nothing times out, ever.  :class:`ResilientExecutor` wraps the
pool with the supervision loop both cases need:

* **pool loss** — on ``BrokenProcessPool`` every in-flight job is
  charged one attempt (the guilty job cannot be distinguished from
  innocent ones, so all pay — bounded by the guard's retry budget) and
  the pool is rebuilt;
* **timeouts** — each submitted job carries a deadline; a job that
  outlives it is charged an attempt and the pool is rebuilt: its worker
  processes are terminated outright (the only way to un-wedge a hung
  worker) and innocent in-flight jobs re-queue *for free* at their
  current attempt;
* **retries** — failed attempts re-queue after a deterministic
  exponential backoff (:class:`~.guards.RetryPolicy`); jobs whose
  budget is exhausted yield a structured
  :class:`~.guards.JobFailure` instead of raising;
* **draining** — a ``should_stop`` callable (typically
  :class:`~.signals.GracefulShutdown`'s flag) stops new submissions
  and lets in-flight work finish, so Ctrl-C flushes a consistent
  partial grid instead of vaporising it.

``workers`` and the guard's ``timeout_s`` alone decide where jobs run:
``workers=1`` without a deadline runs each job in-process (no pool, no
pickling) through the same loop, whose stand-in pool runs a job at
``submit``; a deadline needs a worker process to kill, so it makes even
``workers=1`` use a one-process pool.

Jobs flow out of :meth:`run` as ``(item, outcome)`` pairs the moment
they complete — outcome is the worker's return value or a
:class:`JobFailure` — so callers can journal and cache incrementally.
Workers are called as ``worker(item, attempt)`` and report failures
under ``item.key``; the attempt number is what lets the chaos harness
(:mod:`.chaos`) key fault injection deterministically per execution.
Supervision is reported on the telemetry bus only.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.telemetry import TelemetryBus
from .guards import JobFailure, JobGuard

#: maximum seconds one supervision-loop wait blocks (keeps the loop
#: responsive to drain signals and retry timers)
_POLL_S = 0.25


def _worker_init() -> None:
    """Signal hygiene for pool workers (runs in each worker process).

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group; workers ignore it so the parent's graceful drain can let
    in-flight cells finish instead of vaporising them.  SIGTERM resets
    to the default disposition: forked workers would otherwise inherit
    the parent's :class:`~.signals.GracefulShutdown` handler, whose
    first-signal-sets-a-flag semantics would make ``terminate()`` a
    no-op and force :func:`_kill_pool` through its SIGKILL escalation.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - restricted platforms
        pass
    # A worker whose parent is SIGKILL'd would otherwise block forever on
    # the call queue — the fork kept the queue pipe's write end open in
    # every worker, so the blocking read never sees EOF — leaking a
    # process (and any inherited pipes) per kill.  On Linux, ask the
    # kernel to deliver SIGTERM the moment the parent dies.
    if sys.platform.startswith("linux"):
        try:
            import ctypes

            PR_SET_PDEATHSIG = 1
            ctypes.CDLL(None, use_errno=True).prctl(
                PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0
            )
        except (OSError, AttributeError, ValueError):  # pragma: no cover
            pass


def _kill_pool(pool: Executor) -> None:
    """Tear a pool down *now*, terminating workers (hung ones included)."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    deadline = time.monotonic() + 5.0
    for proc in processes:
        try:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass


class _InProcessPool(Executor):
    """The pool stand-in for ``workers=1`` without a deadline: ``submit``
    runs the job in this process and returns its completed future."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - the loop's harvest judges it
            future.set_exception(exc)
        return future


class ResilientExecutor:
    """Supervised execution of a batch of keyed jobs (see module doc).

    ``worker`` must be picklable when jobs run in a pool (a top-level
    function or an instance of a top-level class) and is invoked as
    ``worker(item, attempt)``; failures are reported under ``item.key``.

    ``telemetry`` is the :class:`~repro.obs.telemetry.TelemetryBus`
    every supervision event goes to — ``job_start`` / ``job_done`` /
    ``job_retry`` / ``job_timeout`` / ``job_fail`` / ``pool_rebuild``
    (schema in ``docs/observability.md``); it is the executor's only
    report, and the bus writes each event as a log line.  Without one
    the executor builds a bus with no sinks.
    """

    def __init__(
        self,
        worker: Callable,
        workers: int = 1,
        guard: Optional[JobGuard] = None,
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.worker = worker
        self.workers = max(1, int(workers))
        self.guard = guard or JobGuard()
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        #: pool teardowns so far (the count each ``pool_rebuild`` event carries)
        self.pool_rebuilds = 0

    def run(
        self,
        items: Sequence[object],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Tuple[object, object]]:
        """Yield ``(item, result_or_JobFailure)`` as jobs complete.

        With ``should_stop`` returning ``True`` the executor stops
        launching queued jobs, drains in-flight ones and returns;
        un-launched items are simply never yielded (the caller's
        journal knows which cells completed).
        """
        # queue entries: (item, attempt, not_before_monotonic)
        queue: Deque[Tuple[object, int, float]] = deque(
            (item, 1, 0.0) for item in items
        )
        # future -> (item, attempt, deadline, started_monotonic)
        inflight: Dict[Future, Tuple[object, int, float, float]] = {}
        timeout_s = self.guard.timeout_s
        in_process = self.workers == 1 and not timeout_s
        pool: Optional[Executor] = None
        try:
            while queue or inflight:
                now = time.monotonic()
                stopping = should_stop is not None and should_stop()

                # Launch ready jobs up to the worker count (capping
                # in-flight at `workers` keeps deadlines honest: a
                # submitted job starts immediately).
                if not stopping:
                    pending_retry: List[Tuple[object, int, float]] = []
                    while queue and len(inflight) < self.workers:
                        item, attempt, not_before = queue.popleft()
                        if not_before > now:
                            pending_retry.append((item, attempt, not_before))
                            continue
                        if pool is None:
                            pool = _InProcessPool() if in_process else ProcessPoolExecutor(
                                max_workers=self.workers, initializer=_worker_init
                            )
                        self.telemetry.emit("job_start", job=item.key, attempt=attempt)
                        started = time.monotonic()
                        try:
                            future = pool.submit(self.worker, item, attempt)
                        except (BrokenProcessPool, RuntimeError):
                            # Pool broke between harvests; rebuild and requeue.
                            queue.appendleft((item, attempt, not_before))
                            self._rebuild(pool, inflight, queue)
                            pool = None
                            break
                        deadline = started + timeout_s if timeout_s else float("inf")
                        inflight[future] = (item, attempt, deadline, started)
                    queue.extendleft(reversed(pending_retry))

                if not inflight:
                    if stopping or not queue:
                        return
                    # Everything queued is backing off; sleep to the
                    # earliest retry time.
                    wake = min(entry[2] for entry in queue)
                    time.sleep(min(_POLL_S, max(0.0, wake - time.monotonic())))
                    continue

                next_deadline = min(entry[2] for entry in inflight.values())
                wait_s = max(0.0, min(_POLL_S, next_deadline - time.monotonic()))
                done, _ = wait(list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED)

                pool_broken = False
                outcomes: List[Tuple[object, object]] = []
                for future in done:
                    item, attempt, _, started = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        outcomes.extend(self._requeue_or_fail(queue, item, attempt, exc, "worker-lost"))
                    except Exception as exc:  # noqa: BLE001 - guard converts to JobFailure
                        outcomes.extend(self._requeue_or_fail(queue, item, attempt, exc, "exception"))
                    else:
                        self.telemetry.emit(
                            "job_done",
                            job=item.key,
                            wall_s=round(time.monotonic() - started, 6),
                        )
                        outcomes.append((item, result))

                if pool_broken:
                    # The whole pool is dead: every other in-flight job
                    # failed with it.  Charge them all one attempt (the
                    # guilty one is indistinguishable).
                    for item, attempt, _, _ in inflight.values():
                        exc = BrokenProcessPool("worker process died; pool re-spawned")
                        outcomes.extend(self._requeue_or_fail(queue, item, attempt, exc, "worker-lost"))
                    inflight.clear()

                # Deadline sweep: a hung worker cannot be interrupted, so
                # an expired job costs the whole pool.
                now = time.monotonic()
                expired = [f for f, entry in inflight.items() if entry[2] <= now]
                for future in expired:
                    item, attempt, _, _ = inflight.pop(future)
                    self.telemetry.emit(
                        "job_timeout", job=item.key, attempt=attempt, timeout_s=timeout_s
                    )
                    exc = TimeoutError(f"job exceeded guard timeout of {timeout_s:.3f}s")
                    outcomes.extend(self._requeue_or_fail(queue, item, attempt, exc, "timeout"))
                if pool_broken or expired:
                    self._rebuild(pool, inflight, queue)
                    pool = None

                yield from outcomes

            # Clean finish: let workers exit normally.
            if pool is not None:
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                _kill_pool(pool)

    def _rebuild(self, pool: Executor, inflight: Dict, queue: Deque) -> None:
        """Tear down a lost pool: in-flight jobs requeue at their current
        attempt (they did nothing wrong), the workers are killed and the
        rebuild is reported; the next launch spawns a fresh pool."""
        for future, (item, attempt, _, _) in inflight.items():
            future.cancel()
            queue.append((item, attempt, 0.0))
        inflight.clear()
        _kill_pool(pool)
        self.pool_rebuilds += 1
        self.telemetry.emit("pool_rebuild", rebuilds=self.pool_rebuilds)

    def _requeue_or_fail(
        self,
        queue: Deque,
        item: object,
        attempt: int,
        exc: BaseException,
        kind: str,
    ) -> List[Tuple[object, JobFailure]]:
        """Schedule a retry with backoff, or emit a terminal failure."""
        if self.guard.allows_retry(attempt):
            delay = self.guard.backoff.delay(attempt)
            self.telemetry.emit("job_retry", job=item.key, attempt=attempt, delay_s=delay)
            queue.append((item, attempt + 1, time.monotonic() + delay))
            return []
        failure = JobFailure.from_exception(item.key, exc, attempt, kind=kind)
        self.telemetry.emit(
            "job_fail", job=item.key, kind=failure.kind, attempts=failure.attempts
        )
        return [(item, failure)]

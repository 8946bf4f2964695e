"""Graceful SIGINT/SIGTERM draining for long-running sweeps.

First signal: set a flag.  The engine's supervision loop sees it, stops
launching queued cells, lets in-flight workers finish, flushes the
journal and the partial grid, then surfaces a ``KeyboardInterrupt`` so
the CLI can report what was saved and exit 130.  Second signal: raise
``KeyboardInterrupt`` immediately — the user insists, and the journal's
fsync'd appends mean even a hard stop (or a ``kill -9``, which no
handler can see) loses at most the cell in flight.

Handlers only install in the main thread of the main interpreter
(``signal.signal`` refuses anywhere else); elsewhere the context manager
degrades to a no-op flag that never triggers.
"""

from __future__ import annotations

import signal
import threading
from types import FrameType
from typing import List, Optional, Tuple


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain flag.

    Example::

        with GracefulShutdown() as stop:
            for job, outcome in executor.run(jobs, should_stop=stop.triggered):
                ...  # journal, cache, report
        if stop.requested:
            raise KeyboardInterrupt
    """

    def __init__(self, signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)):
        self.signums = signums
        self.requested = False
        self._previous: List[Tuple[int, object]] = []

    # `should_stop` callable handed to the executor
    def triggered(self) -> bool:
        return self.requested

    def _handler(self, signum: int, frame: Optional[FrameType]) -> None:
        if self.requested:
            raise KeyboardInterrupt  # second signal: stop now
        self.requested = True

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            try:
                for signum in self.signums:
                    self._previous.append((signum, signal.getsignal(signum)))
                    signal.signal(signum, self._handler)
            except (ValueError, OSError):
                # Non-main interpreter or restricted environment: flag-only.
                self._restore()
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for signum, previous in self._previous:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

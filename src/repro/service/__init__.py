"""Streaming scheduler service: the simulator as a long-running server.

Everything else in this repository is batch — build a trace, run it to
completion, read metrics.  This package turns the incremental-stepping
API of :class:`~repro.cluster.simulator.ClusterSimulator` (``advance``,
mid-flight ``submit``/``inject``, ``snapshot``/``restore``/``fork``) into
an operational tool: an asyncio HTTP/JSON server that hosts many live
simulation *sessions*, accepts streaming job submissions from concurrent
clients, and answers live queries — cluster occupancy, per-org quota
headroom, and speculative *what-if* placement advice computed against a
forked copy of the session without disturbing the live state.

Start it from the CLI::

    python -m repro.experiments.cli serve --port 8151

and talk to it with :class:`~repro.service.client.ServiceClient` (sync)
or :class:`~repro.service.client.AsyncServiceClient` (asyncio).  The full
API, the session lifecycle and the snapshot wire format are documented in
``docs/service.md``; the determinism contract (stepped == batch,
snapshot→restore→continue == uninterrupted, fork isolation) is enforced
by ``tests/test_stepping_determinism.py``, ``tests/test_snapshot_fork.py``
and ``tests/test_service.py``.

With ``serve --state-dir DIR`` the service is additionally *durable*:
sessions persist across server restarts (boot recovery with corrupt-file
quarantine, ``GET /readyz`` gating), requests honour per-request
deadlines, and clients retry safely through ``Idempotency-Key`` headers
— see ``docs/fault_tolerance.md`` and
``tests/test_service_durability.py``.
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError
from .dashboard import DASHBOARD_HTML
from .server import SchedulerServer
from .session import SimulationSession, task_from_payload
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
)
from .store import RecoveryReport, SessionStore, StoredSession
from .stream import SessionStream, parse_sse_stream

__all__ = [
    "AsyncServiceClient",
    "DASHBOARD_HTML",
    "RecoveryReport",
    "SchedulerServer",
    "ServiceClient",
    "ServiceError",
    "SessionStore",
    "SessionStream",
    "SimulationSession",
    "SnapshotError",
    "SNAPSHOT_VERSION",
    "StoredSession",
    "decode_snapshot",
    "encode_snapshot",
    "parse_sse_stream",
    "task_from_payload",
]

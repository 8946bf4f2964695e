"""``serve`` subcommand: run the streaming scheduler service.

Reached through the main experiments CLI (``python -m repro.experiments.cli
serve``) or directly as ``python -m repro.service.cli``.  The server runs
until interrupted or until a client posts ``/shutdown``.

``--log-level info`` sends the ``repro`` logger to stderr at that level:
the server's telemetry records (one JSON object per request, quarantined
session or failed persist, with the server's ``svc-…`` run id — schema
in ``docs/observability.md``) arrive there on ``repro.telemetry``.  The
default leaves logging unconfigured, so the server stays silent.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from ..obs.logging import configure_json_logging
from .server import serve

_LOG_LEVELS = ("critical", "error", "warning", "info", "debug")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the streaming scheduler service (see docs/service.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8151, help="bind port, 0 for ephemeral (default: %(default)s)"
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=_LOG_LEVELS,
        help="log the server's JSON telemetry lines to stderr at this level (default: off)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable session store: sessions are persisted here after every "
        "mutation and recovered on the next boot (default: in-memory only; "
        "see docs/fault_tolerance.md)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; past it the client gets 504 while the "
        "operation finishes server-side (default: unbounded)",
    )
    args = parser.parse_args(argv)
    configure_json_logging(args.log_level)
    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                state_dir=args.state_dir,
                request_timeout_s=args.request_timeout,
            )
        )
    except KeyboardInterrupt:
        print("scheduler service stopped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

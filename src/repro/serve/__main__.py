"""``python -m repro.serve`` -- boot the serving endpoint.

Example::

    python -m repro.serve --port 7878 --max-inflight 8 --demo

``--demo`` registers a small ``hotels`` table so a fresh server has
something to query; ``--port 0`` (the default) picks a free port and
prints it.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from ..api.config import SessionConfig
from ..engine.backends import BACKEND_NAMES
from ..engine.types import DOUBLE, STRING
from .app import SkylineServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant skyline query server (JSON lines over "
                    "TCP).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="bound on concurrently executing queries")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="per-tenant queue bound; beyond it requests "
                             "are shed with the 'overloaded' error code")
    parser.add_argument("--backend", choices=BACKEND_NAMES,
                        default="local",
                        help="default execution backend for tenants")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-pool size for the process backend")
    parser.add_argument("--partitions", type=int, default=None,
                        help="scan partition count (num_executors) so "
                             "skyline stages fan out")
    parser.add_argument("--demo", action="store_true",
                        help="pre-register a demo 'hotels' table")
    parser.add_argument("--demo-rows", type=int, default=0,
                        help="with --demo: add this many generated rows "
                             "so queries do real work")
    return parser


def load_demo(server: SkylineServer, extra_rows: int = 0) -> None:
    rows = [("A", 120.0, 4.5, 2.0), ("B", 90.0, 4.0, 5.5),
            ("C", 150.0, 3.0, 1.0), ("D", 85.0, 3.5, 6.0),
            ("E", 200.0, 5.0, 0.5)]
    if extra_rows > 0:
        # Deterministic anticorrelated-ish filler (no RNG on purpose:
        # the fault-injection smoke compares servers bit-for-bit).
        rows += [(f"H{i}",
                  50.0 + (i * 37 % 400),
                  1.0 + (i * 17 % 40) / 10.0,
                  0.2 + (i * 29 % 100) / 10.0)
                 for i in range(extra_rows)]
    session = server.tenant("default").session
    session.create_table(
        "hotels",
        [("name", STRING, False), ("price", DOUBLE, False),
         ("rating", DOUBLE, False), ("distance", DOUBLE, False)],
        rows)


async def amain(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    config = SessionConfig(backend=args.backend,
                           num_workers=args.workers)
    if args.partitions:
        config = config.with_options(num_executors=args.partitions)
    server = SkylineServer(host=args.host, port=args.port,
                           max_inflight=args.max_inflight,
                           max_queue_per_tenant=args.max_queue,
                           default_config=config)
    if args.demo:
        load_demo(server, args.demo_rows)
    host, port = await server.start()
    print(f"repro.serve listening on {host}:{port}", flush=True)
    serving = asyncio.ensure_future(server.serve_forever())
    # SIGTERM cancels serving, so that aclose() below shuts the worker
    # pools down instead of leaving them orphaned.
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                  serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        return asyncio.run(amain(argv))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.serve`` — run the simulation service from the shell.

Examples
--------
Serve on a fixed port with an on-disk result cache::

    python -m repro.serve --port 7411 --cache-dir results/sweep_cache

Ephemeral port for scripting (the bound address lands in the ready
file, which is written only once the socket is listening)::

    python -m repro.serve --port 0 --ready-file /tmp/serve_ready.json

Then, from any script::

    from repro.serve.client import ServeClient
    client = ServeClient(host, port)
    client.submit_and_wait("load_point", {...})
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.scheduler import Scheduler, ServeConfig
from repro.serve.server import ServeServer
from repro.sweep.cache import SweepCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service front end for repro sweep points.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7411, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: ServeConfig default)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=None,
        help="admission bound: submits beyond this many queued jobs shed",
    )
    parser.add_argument(
        "--batch-max", type=int, default=None,
        help="max same-kind jobs dispatched in one worker round trip",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None,
        help="seconds before a dispatch is declared hung and its worker killed",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="max retry attempts after a worker crash",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="SweepCache directory for read-through/write-through results",
    )
    parser.add_argument(
        "--shard-id", default=None,
        help="identity of this instance inside a repro.cluster fleet "
        "(surfaced in the greeting and health responses)",
    )
    parser.add_argument(
        "--ready-file", type=Path, default=None,
        help="write {'host','port','pid'} JSON here once listening",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    config = ServeConfig()
    if args.workers is not None:
        config.workers = max(1, args.workers)
    if args.queue_depth is not None:
        config.max_queue = max(1, args.queue_depth)
    if args.batch_max is not None:
        config.batch_max = max(1, args.batch_max)
    if args.job_timeout is not None:
        config.job_timeout = args.job_timeout if args.job_timeout > 0 else None
    if args.retries is not None:
        config.max_retries = max(0, args.retries)
    if args.shard_id is not None:
        config.shard_id = args.shard_id
    return config


def write_ready_file(path: Path, address: Dict[str, Any]) -> None:
    """Announce ``address`` as JSON at ``path``, atomically.

    The JSON goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``: a reader that finds the file
    finds all of it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    staging.write_text(json.dumps(address))
    os.replace(staging, path)


async def _serve(args: argparse.Namespace) -> int:
    cache = SweepCache(args.cache_dir) if args.cache_dir else None
    scheduler = Scheduler(config_from_args(args), cache=cache)
    server = ServeServer(scheduler, host=args.host, port=args.port)
    host, port = await server.start()
    # SIGTERM (a fleet supervisor stopping its shard) and SIGINT take the
    # normal shutdown path, which closes the worker pool.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_stop)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    if args.ready_file is not None:
        ready = {"host": host, "port": port, "pid": os.getpid()}
        if scheduler.config.shard_id is not None:
            ready["shard"] = scheduler.config.shard_id
        write_ready_file(args.ready_file, ready)
    if not args.quiet:
        print(
            f"repro.serve listening on {host}:{port} "
            f"(workers={scheduler.pool.size}, queue={scheduler.config.max_queue}, "
            f"batch={scheduler.config.batch_max}, "
            f"cache={'on' if cache else 'off'})",
            flush=True,
        )
    try:
        await server.serve_until_stopped()
    except asyncio.CancelledError:  # pragma: no cover - signal teardown
        await server.stop()
    if not args.quiet:
        print("repro.serve stopped", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 0

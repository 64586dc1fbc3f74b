"""``python -m repro.cluster`` — launch a local fleet plus HTTP gateway.

Examples
--------
A 3-shard fleet behind an ephemeral HTTP port, address in a ready file::

    python -m repro.cluster --shards 3 --http-port 0 \\
        --ready-file /tmp/cluster_ready.json

Then, from any HTTP client::

    curl -s -X POST http://HOST:PORT/submit \\
        -d '{"kind": "nap", "params": {"duration": 0.0}}'
    curl -s "http://HOST:PORT/result/JOB?wait=1&timeout=30"

The ready file holds ``{"host", "port", "shards": [{id, host, port}...],
"pid"}`` and is written only once every shard announced itself and the
gateway socket is listening.  The supervisor loop watches the shard
processes; a dead shard is reported (and the gateway routes its keys to
the next shard in ring order) but not respawned — restart policy belongs
to real process managers, the gateway's job is to keep answering while
degraded.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
from pathlib import Path
from typing import List, Optional

from repro.cluster.fleet import LocalFleet
from repro.cluster.gateway import ClusterGateway
from repro.serve.cli import write_ready_file

#: Seconds between shard-process liveness polls in the supervisor loop.
SUPERVISE_INTERVAL = 1.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded simulation fleet with an HTTP/JSON gateway.",
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="serve instances to launch"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per shard",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--http-port", type=int, default=7410,
        help="gateway HTTP port (0 = ephemeral)",
    )
    parser.add_argument(
        "--run-dir", type=Path, default=Path("results/cluster"),
        help="per-shard ready files and scratch space",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="shared SweepCache directory (all shards read/write through it)",
    )
    parser.add_argument(
        "--ready-file", type=Path, default=None,
        help="write the gateway+fleet addresses JSON here once listening",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner"
    )
    return parser


async def _run(args: argparse.Namespace) -> int:
    fleet = LocalFleet(
        shards=args.shards,
        workers=args.workers,
        run_dir=args.run_dir,
        host=args.host,
        cache_dir=args.cache_dir,
    )
    specs = await asyncio.get_running_loop().run_in_executor(None, fleet.start)
    gateway = ClusterGateway(specs, host=args.host, port=args.http_port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    try:
        host, port = await gateway.start()
        if args.ready_file is not None:
            write_ready_file(
                args.ready_file,
                {
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "shards": [
                        {"id": s.id, "host": s.host, "port": s.port}
                        for s in specs
                    ],
                },
            )
        if not args.quiet:
            shares = gateway.ring.shares(1024)
            print(
                f"repro.cluster gateway on http://{host}:{port} "
                f"({len(specs)} shards, key shares "
                f"{'/'.join(f'{shares[s.id]:.2f}' for s in specs)})",
                flush=True,
            )
        reported: set = set()
        while not stop.is_set():
            try:
                await asyncio.wait_for(
                    stop.wait(), timeout=SUPERVISE_INTERVAL
                )
            except asyncio.TimeoutError:
                pass
            dead = [
                shard_id
                for shard_id, code in fleet.poll().items()
                if code is not None
            ]
            for shard_id in dead:
                if shard_id not in reported:
                    reported.add(shard_id)
                    if not args.quiet:
                        print(
                            f"repro.cluster: {shard_id} exited; "
                            f"serving degraded on the other shards",
                            flush=True,
                        )
                gateway.mark_down(shard_id)
    finally:
        await gateway.stop()
        await asyncio.get_running_loop().run_in_executor(None, fleet.stop)
    if not args.quiet:
        print("repro.cluster stopped", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 0

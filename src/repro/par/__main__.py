"""CLI for the partitioned runner.

``python -m repro.par crosscheck`` proves byte-identity between the
sequential reference and K-way-partitioned runs; ``python -m repro.par
bench`` measures the scaling that identity makes trustworthy.

Examples::

    python -m repro.par crosscheck --partitions 2 4 --scenario fig3_base
    python -m repro.par crosscheck --partitions 2 --backend process
    python -m repro.par bench --scenario saturated_torus_32 --shards 2,4,8
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.net.flitlevel.crosscheck import (
    crosscheck_partitioned,
    timeline_digest,
)
from repro.par import SCENARIOS, run_partitioned, run_sequential


def _cmd_crosscheck(args) -> int:
    names = args.scenario or sorted(SCENARIOS)
    failed = False
    for name in names:
        for k in args.partitions:
            try:
                report = crosscheck_partitioned(
                    name, k, engine=args.engine, backend=args.backend
                )
            except ValueError as exc:
                print(f"SKIP {name} [K={k}]: {exc}")
                continue
            line = report.describe().splitlines()[0]
            print(("OK   " if report.ok else "FAIL ")
                  + f"{name} [K={k}]: {line}")
            if args.digests and report.ok:
                print(f"     digest {timeline_digest(report.baseline)}")
            if not report.ok:
                print(report.describe())
                failed = True
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    import time

    out = []
    for name in args.scenario or ["saturated_torus_32"]:
        for engine in args.engines:
            t0 = time.perf_counter()
            net, status = run_sequential(name, engine)
            secs = time.perf_counter() - t0
            # Run-only events (injection at build time records some), the
            # same numerator the partitioned runner sums over windows.
            events = net._progress_events - net._build_events
            out.append({
                "scenario": name, "engine": engine, "k": 1,
                "backend": "sequential", "status": status,
                "now": net.now, "events": events,
                "wall_seconds": round(secs, 4),
                "events_per_sec": round(events / secs, 1),
            })
            print(f"{name}/{engine}/seq: {events} events in {secs:.2f}s "
                  f"({events / secs:,.0f} ev/s)")
        for k in args.shards:
            res = run_partitioned(
                name, k, engine=args.engines[-1], backend=args.backend
            )
            crit = res.critical_path_seconds
            out.append({
                "scenario": name, "engine": res.engine, "k": k,
                "backend": res.backend, "status": res.status,
                "now": res.now, "events": res.events,
                "windows": res.windows_run, "window": res.window,
                "cut_links": res.cut_links,
                "flits_exchanged": res.flits_exchanged,
                "wall_seconds": round(res.wall_seconds, 4),
                "critical_path_seconds": round(crit, 4),
                "events_per_sec": round(res.events / crit, 1),
                "digest": timeline_digest(res.timeline),
            })
            print(f"{name}/{res.engine}/K={k}: {res.events} events, "
                  f"critical path {crit:.2f}s "
                  f"({res.events / crit:,.0f} ev/s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.par",
        description="partitioned-run crosscheck and scaling bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cc = sub.add_parser("crosscheck", help="sequential vs K-way byte parity")
    cc.add_argument("--partitions", type=int, nargs="+", default=[2],
                    metavar="K")
    cc.add_argument("--scenario", action="append", default=None)
    cc.add_argument("--engine", default="active")
    cc.add_argument("--backend", default="inline",
                    choices=("inline", "process"))
    cc.add_argument("--digests", action="store_true",
                    help="print the shared timeline digest per scenario")
    cc.set_defaults(func=_cmd_crosscheck)

    bench = sub.add_parser("bench", help="sequential vs partitioned rates")
    bench.add_argument("--scenario", action="append", default=None)
    bench.add_argument("--shards", type=lambda s: [int(x) for x in
                                                   s.split(",")],
                       default=[2, 4], metavar="N,M,...")
    bench.add_argument("--engines", nargs="+", default=["active"],
                       help="sequential engines to time; the last one is "
                            "also the shard engine")
    bench.add_argument("--backend", default="inline",
                       choices=("inline", "process"))
    bench.add_argument("--json", default=None, metavar="PATH",
                       help="write results as JSON to PATH")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())

"""``python -m repro.sweep`` — run figure sweeps in parallel from the shell.

Examples
--------
Run the full Figure 10 grid on all cores and save the records::

    python -m repro.sweep --figure fig10 --out results/fig10.json

Re-run after a code change (only changed points simulate, thanks to the
cache)::

    python -m repro.sweep --figure fig10 --cache-dir results/sweep_cache

Check the parallel path against the sequential one point-for-point::

    python -m repro.sweep --figure fig11 --scale 0.2 --verify-sequential
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from repro.sweep.cache import SweepCache, code_fingerprint
from repro.sweep.figures import FIGURE_SPECS
from repro.sweep.runner import (
    records_to_results,
    records_to_testbed_results,
    run_sweep,
)


def _scale(text: str) -> float:
    """``--scale``: an effort multiplier, a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Parallel sweep runner for the paper's figure grids.",
    )
    parser.add_argument(
        "--figure",
        required=True,
        choices=sorted(FIGURE_SPECS),
        help="which figure's sweep to run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS env or CPU count)",
    )
    parser.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="REPRO_SCALE-style effort multiplier, a finite number > 0 "
        "(default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write result records to this JSON file",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="enable the on-disk result cache rooted here",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="list the sweep's points without simulating",
    )
    parser.add_argument(
        "--verify-sequential",
        action="store_true",
        help="re-run sequentially and fail unless records match byte-for-byte",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="embed a per-point observability metrics snapshot in each "
        "record and a record-order merge in the --out payload",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    builder = FIGURE_SPECS[args.figure]
    if args.figure in ("fig12", "fig13"):
        spec = builder(scale=args.scale)  # testbed sweep is deterministic, no seed
    else:
        spec = builder(scale=args.scale, seed=args.seed)
    if args.obs:
        spec.base["obs"] = True
    print(spec.describe())

    if args.dry_run:
        for point in spec.points():
            print(f"  [{point.index:3d}] seed={point.seed} {point.key}")
        return 0

    cache = None
    if args.cache_dir is not None:
        cache = SweepCache(args.cache_dir)
        print(f"cache: {cache.root} (code {cache.code_hash[:12]})")

    outcome = run_sweep(spec, jobs=args.jobs, cache=cache, progress=print)
    print(
        f"done: {len(outcome.records)} points in {outcome.wall_time:.2f}s "
        f"({outcome.workers} workers, {outcome.cached} cached)"
    )

    if args.verify_sequential:
        sequential = run_sweep(spec, jobs=1, progress=print)
        if sequential.records != outcome.records:
            print("FAIL: parallel records differ from sequential records")
            return 1
        print(
            f"verified: parallel == sequential, speedup "
            f"{sequential.wall_time / outcome.wall_time:.2f}x"
        )

    if spec.kind == "load_point":
        from repro.analysis import format_results_table

        print(format_results_table(records_to_results(outcome.records)))
    elif spec.kind == "fault_campaign":
        from repro.analysis import format_availability_table

        print(format_availability_table(outcome.records))
    elif spec.kind == "repair_campaign":
        from repro.analysis import format_repair_table

        print(format_repair_table(outcome.records))
    elif spec.kind == "vc_lanes":
        from repro.analysis import format_table

        rows = [
            [
                r["topology"],
                r["mode"],
                r["lanes"],
                r["status"],
                r["ticks"],
                "/".join(str(n) for n in r["lane_flits"]),
            ]
            for r in outcome.records
        ]
        print(format_table(
            ["topology", "scheme", "lanes", "status", "ticks", "lane flits"],
            rows,
        ))
    else:
        from repro.analysis import format_table

        results = records_to_testbed_results(outcome.records)
        rows = [
            [
                r.packet_size,
                "all" if r.all_send else "single",
                f"{r.throughput_mbps_per_host:.1f}",
                f"{r.loss_rate_per_host:.1%}",
            ]
            for r in results
        ]
        print(format_table(["bytes", "senders", "Mb/s per host", "loss"], rows))

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": {
                "figure": args.figure,
                "scale": args.scale,
                "seed": args.seed,
                "code": code_fingerprint(),
                "workers": outcome.workers,
                "wall_time_s": round(outcome.wall_time, 3),
            },
            "results": outcome.records,
        }
        if args.obs:
            payload["obs"] = outcome.merged_obs()
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"records written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

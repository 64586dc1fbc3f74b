#!/usr/bin/env python
"""Compare a fresh ``bench_trajectory`` output against a committed baseline.

The CI perf-smoke job runs the kernel microbenchmarks into a scratch
trajectory file, then calls this script to fail the build if any
workload's ``events_per_second`` dropped more than ``--tolerance``
(default 30%) below ``benchmarks/perf_baseline.json``::

    python scripts/check_perf_regression.py --current results/perf_smoke.json

The generous tolerance absorbs runner-speed variance; a real regression
(an accidentally quadratic queue, a lost fast path) moves throughput by
integer factors, not 30%.  Regenerate the baseline with::

    python scripts/check_perf_regression.py --update-baseline --current ...

Workloads present in the current run but missing from the baseline are
reported and added on ``--update-baseline``; workloads in the baseline
but missing from the run are *skipped with a warning* (the run may be a
reduced smoke subset -- e.g. ``--only 'kernel_*'`` -- but a silently
vanished label would otherwise mask a benchmark that stopped running).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "benchmarks" / "perf_baseline.json"


def _latest_by_label(entries):
    """Last entry per label wins (the file accumulates history)."""
    latest = {}
    for entry in entries:
        if "events_per_second" in entry:
            latest[entry["label"]] = entry
    return latest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", type=Path, required=True,
        help="trajectory JSON produced by scripts/bench_trajectory.py",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional drop in events/sec (default 0.30)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current run instead of checking",
    )
    args = parser.parse_args(argv)

    current = _latest_by_label(
        json.loads(args.current.read_text()).get("entries", [])
    )
    if not current:
        print(f"no events_per_second entries in {args.current}")
        return 2

    if args.update_baseline:
        baseline = {
            label: {
                "events_per_second": entry["events_per_second"],
                "engine": entry.get("engine"),
            }
            for label, entry in sorted(current.items())
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline rewritten: {args.baseline} ({len(baseline)} workloads)")
        return 0

    baseline = json.loads(args.baseline.read_text())
    failed = False
    for label in sorted(baseline):
        if label not in current:
            print(f"SKIP {label}: in baseline but missing from this run")
    for label, entry in sorted(current.items()):
        now = entry["events_per_second"]
        base = baseline.get(label, {}).get("events_per_second")
        if base is None:
            print(f"NEW  {label}: {now:,} events/s (not in baseline)")
            continue
        floor = base * (1.0 - args.tolerance)
        verdict = "OK  " if now >= floor else "FAIL"
        failed |= now < floor
        print(
            f"{verdict} {label}: {now:,} events/s vs baseline {base:,} "
            f"(floor {round(floor):,})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

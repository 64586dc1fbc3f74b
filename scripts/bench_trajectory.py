#!/usr/bin/env python
"""Record a perf-trajectory snapshot in ``BENCH_sweep.json``.

Runs the kernel events/sec microbenchmarks, the flit-engine comparison
(dense / active), the virtual-channel lane ladder, the
partitioned-runner scaling run and two reduced sweeps, appending one
machine-readable entry per workload so the repo carries its own
performance history from commit to commit::

    PYTHONPATH=src python scripts/bench_trajectory.py [--scale 0.5] [--label msg]
    PYTHONPATH=src python scripts/bench_trajectory.py --only 'kernel_*' --only 'flit_*'

``--only GLOB`` (repeatable) keeps the workloads whose entry label matches
any of the globs; a section none of whose labels match is not run at all.

Entries land in ``{"entries": [...]}`` (see
:func:`repro.sweep.runner.append_trajectory`); each has a timestamp, the
workload label, the interpreter version, the flit engine it
measured (flit and par entries), and either ``events_per_second`` or the
wall-time footprint.
Re-running at the same code fingerprint with the same label *replaces*
the matching entries instead of duplicating them.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_kernel_events import (  # noqa: E402
    _contended_grants,
    _timeout_churn,
    _uncontended_grants,
)
from bench_flit_engine import run_suite as _flit_suite  # noqa: E402
from bench_par_engine import run_par_suite  # noqa: E402
from bench_vc_lanes import LANE_COUNTS, run_vc_suite  # noqa: E402

from repro.sweep import append_trajectory, run_sweep  # noqa: E402
from repro.sweep.cache import code_fingerprint  # noqa: E402
from repro.sweep.figures import fig10_spec, vc_lanes_spec  # noqa: E402

#: (label, workload thunk).
KERNEL_WORKLOADS = [
    ("kernel_timeout_churn", lambda: _timeout_churn(20, 2000)),
    ("kernel_uncontended_grants", lambda: _uncontended_grants(8, 5000)),
    ("kernel_contended_grants", lambda: _contended_grants(50, 10, 400)),
]

_DEDUP = ("code", "label", "note")


def _events_per_second(fn, repeats: int = 5) -> tuple:
    """Best-of-N events/sec (min wall time resists scheduler noise)."""
    times = []
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        events = fn()
        times.append(time.perf_counter() - start)
    return events, events / min(times), events / statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=ROOT / "BENCH_sweep.json",
        help="trajectory file (default BENCH_sweep.json at the repo root)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="sweep effort multiplier (default 0.5: quick but stable)",
    )
    parser.add_argument(
        "--label", default=None,
        help="optional note stored with every entry (e.g. a commit subject)",
    )
    parser.add_argument(
        "--only", action="append", metavar="GLOB",
        help="run only workloads whose entry label matches this glob "
             "(repeatable, e.g. 'kernel_*' or 'par_*'); sections with no "
             "matching label are skipped entirely",
    )
    parser.add_argument(
        "--shards", type=lambda s: [int(x) for x in s.split(",")],
        default=[2, 4], metavar="N,M,...",
        help="partition counts for the par section (default 2,4)",
    )
    parser.add_argument(
        "--par-scenario", default="saturated_torus_32",
        help="repro.par scenario the par section measures",
    )
    parser.add_argument(
        "--par-engine", default="active",
        choices=("dense", "active"),
        help="engine each shard runs in the par section",
    )
    args = parser.parse_args(argv)

    def wanted(label: str) -> bool:
        return not args.only or any(
            fnmatch.fnmatch(label, glob) for glob in args.only
        )

    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    code = code_fingerprint()[:12]
    env = {"python_version": platform.python_version()}

    for name, fn in KERNEL_WORKLOADS:
        if not wanted(name):
            continue
        events, best, median = _events_per_second(fn)
        entry = {
            "timestamp": stamp,
            "label": name,
            "kind": "kernel_microbench",
            "events": events,
            "events_per_second": round(best),
            "events_per_second_median": round(median),
            "code": code,
            **env,
        }
        if args.label:
            entry["note"] = args.label
        append_trajectory(args.out, entry, dedup_on=_DEDUP)
        print(f"{name}: {round(best):,} events/s (median {round(median):,})")

    flit_names = ("sparse_fig3", "saturated_shufflenet", "saturated_torus")
    if any(wanted(f"flit_{n}") for n in flit_names):
        for name, rec in _flit_suite(scale=args.scale, repeats=3).items():
            if not wanted(f"flit_{name}"):
                continue
            entry = {
                "timestamp": stamp,
                "label": f"flit_{name}",
                "kind": "flit_microbench",
                "engine": "dense+active",
                "code": code,
                **env,
                **rec,
            }
            if args.label:
                entry["note"] = args.label
            append_trajectory(args.out, entry, dedup_on=_DEDUP)
            print(
                f"flit_{name}: dense {rec['dense_seconds']:.3f}s | active "
                f"{rec['active_seconds']:.3f}s ({rec['speedup']:.2f}x)"
            )

    vc_names = tuple(f"flit_vc_lanes{n}" for n in LANE_COUNTS) + (
        "flit_vc_butterfly1k",
    )
    if any(wanted(n) for n in vc_names):
        # best-of-5: the vc timed regions are short (~0.1-0.3 s), so extra
        # repeats keep the regression gate's minimum out of scheduler noise
        for name, rec in run_vc_suite(scale=args.scale, repeats=5).items():
            if not wanted(name):
                continue
            entry = {
                "timestamp": stamp,
                "label": name,
                "kind": "flit_vc_microbench",
                "code": code,
                **env,
                **rec,
            }
            if args.label:
                entry["note"] = args.label
            append_trajectory(args.out, entry, dedup_on=_DEDUP)
            print(
                f"{name}: {rec['events_per_second']:,} ticks/s "
                f"(final tick {rec['final_tick']})"
            )

    scenario = args.par_scenario
    seq_labels = {
        engine: f"par_{scenario}_seq_{engine}"
        for engine in ("dense", "active")
    }
    shard_labels = {k: f"par_{scenario}_k{k}" for k in args.shards}
    shards = [k for k, lab in shard_labels.items() if wanted(lab)]
    engines = tuple(e for e, lab in seq_labels.items() if wanted(lab))
    if shards and args.par_engine not in engines:
        # The suite needs the shard engine's sequential digest as the
        # identity baseline.
        engines += (args.par_engine,)
    if shards:
        suite = run_par_suite(
            scenario, shards=shards, engines=engines,
            par_engine=args.par_engine, repeats=2,
        )
        common = {
            "timestamp": stamp,
            "kind": "par_microbench",
            "scenario": scenario,
            "host_cores": os.cpu_count(),
            "code": code,
            **env,
        }
        if args.label:
            common["note"] = args.label
        for engine, rec in suite["sequential"].items():
            if not wanted(seq_labels[engine]):
                continue
            append_trajectory(args.out, {
                **common,
                "label": seq_labels[engine],
                "engine": engine,
                "timing": "wall",
                **{key: rec[key] for key in
                   ("status", "now", "events", "run_seconds",
                    "events_per_second", "digest")},
            }, dedup_on=_DEDUP)
            print(f"{seq_labels[engine]}: "
                  f"{rec['events_per_second']:,.0f} events/s")
        for k, rec in suite["partitioned"].items():
            append_trajectory(args.out, {
                **common,
                "label": shard_labels[int(k)],
                "engine": rec["engine"],
                "timing": "critical_path",
                **{key: rec[key] for key in
                   ("backend", "scheme", "cut_links", "window",
                    "windows_run", "status", "now", "events",
                    "flits_exchanged", "wall_seconds",
                    "critical_path_seconds", "events_per_second",
                    "speedup_vs_best_sequential", "digest")},
            }, dedup_on=_DEDUP)
            print(f"{shard_labels[int(k)]}: "
                  f"{rec['events_per_second']:,.0f} events/s "
                  f"({rec['speedup_vs_best_sequential']:.2f}x vs best "
                  f"sequential, critical path)")

    if wanted("vc_lanes_sweep"):
        spec = vc_lanes_spec(scale=args.scale)
        # Grow the butterfly axis to a 2304-switch 2-ary 9-fly so the
        # lanes-vs-scheme grid includes a 1000+-switch multistage run
        # end-to-end (torus/clos read their own shape keys and ignore it).
        spec.base["stages"] = 9
        outcome = run_sweep(spec)
        table = {
            f"{r['topology']}/{r['mode']}/lanes={r['lanes']}": {
                "status": r["status"],
                "ticks": r["ticks"],
                "lane_flits": r["lane_flits"],
            }
            for r in outcome.records
        }
        entry = outcome.bench_entry(
            label="vc_lanes_sweep", scale=args.scale, code=code,
            lanes_vs_scheme=table,
        )
        entry.update(env)
        if args.label:
            entry["note"] = args.label
        append_trajectory(args.out, entry, dedup_on=_DEDUP)
        delivered = sum(
            1 for r in outcome.records if r["status"] == "delivered"
        )
        print(
            f"vc_lanes_sweep: {delivered}/{len(outcome.records)} points "
            f"delivered in {outcome.wall_time:.2f}s"
        )

    if wanted("fig10_sweep"):
        spec = fig10_spec(loads=[0.04, 0.06, 0.08], scale=args.scale)
        outcome = run_sweep(spec)
        entry = outcome.bench_entry(
            label="fig10_sweep", scale=args.scale, code=code
        )
        entry.update(env)
        if args.label:
            entry["note"] = args.label
        append_trajectory(args.out, entry, dedup_on=_DEDUP)
        print(
            f"fig10_sweep: {len(outcome.records)} points in "
            f"{outcome.wall_time:.2f}s ({outcome.points_per_second:.2f} pts/s, "
            f"{outcome.workers} workers)"
        )

    print(f"trajectory appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

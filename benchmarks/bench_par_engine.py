"""Partitioned vs sequential scaling benchmark for one scenario.

Measures the conservative synchronous-window runner (:mod:`repro.par`)
against the sequential flit engines on the *same* registered scenario,
after asserting the timelines are byte-identical -- a scaling number for
a run that diverged semantically would be measuring a different
simulation.

The headline workload is ``saturated_torus_32``: a 1024-switch torus
with per-link propagation delay 4 (cross-cut lookahead 5 ticks, so one
barrier covers five flit cycles) saturated by staggered hardware
broadcasts -- the traffic class where per-tick work is proportional to
topology size and therefore shards cleanly.  The acceptance bar (ROADMAP
item 2) is >= 3x events/s at K=4 over the best sequential engine; the
active engine is both the best sequential baseline on this workload and
the default shard engine.

Two timings are reported per partitioned run:

* ``wall_seconds`` -- real elapsed time of the coordinator loop on this
  host.  On a single-core box this includes every shard ticking in turn
  plus all exchange overhead, so it *understates* parallel speedup.
* ``critical_path_seconds`` -- per window, the slowest shard's compute
  plus the slowest inject, summed.  This is the elapsed time a
  K-core host would observe (exchange batches are a few hundred bytes;
  transport cost is negligible next to a window's compute), and is the
  number the speedup column uses.  ``host_cores`` and ``timing`` fields
  make the method explicit in every record.

Run standalone to emit JSON::

    python benchmarks/bench_par_engine.py --scenario saturated_torus_32 \
        --shards 2,4,8 --out results/par_bench.json

or under pytest-benchmark (not collected by the default test run)::

    python -m pytest benchmarks/bench_par_engine.py
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _sub in ("src", "benchmarks"):
    _p = str(_ROOT / _sub)
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.net.flitlevel.crosscheck import (  # noqa: E402
    timeline_digest,
    worm_timeline,
)
from repro.par import get_scenario, run_partitioned  # noqa: E402
from repro.par.shard import fail_node_flit  # noqa: E402


def _sequential_point(name: str, engine: str, repeats: int):
    """Time the *run* (not the build) of the sequential reference.

    Returns the best-of-N record.  Events are run-only progress events
    (the cumulative counter minus what traffic injection recorded at
    build time) -- the same numerator the partitioned runner sums over
    its windows, so the events/s ratio compares like with like.
    """
    best = None
    for _ in range(repeats):
        scenario = get_scenario(name)
        net = scenario.build_net(engine)
        build_events = net._progress_events
        t0 = time.perf_counter()
        for tick, kind, target in sorted(scenario.faults):
            net.run_window(tick)
            if kind == "fail_link":
                net.fail_link(target)
            else:
                fail_node_flit(net, target)
        status = net.run(
            scenario.max_ticks, scenario.quiet_limit,
            raise_on_deadlock=False,
        )
        secs = time.perf_counter() - t0
        if best is None or secs < best["run_seconds"]:
            best = {
                "engine": engine,
                "status": status,
                "now": net.now,
                "events": net._progress_events - build_events,
                "run_seconds": round(secs, 4),
                "events_per_second": round(
                    (net._progress_events - build_events) / secs, 1
                ),
                "digest": timeline_digest(worm_timeline(net, status)),
            }
    return best


def _partitioned_point(name: str, k: int, engine: str, backend: str,
                       repeats: int):
    """Best-of-N partitioned record (best = smallest critical path)."""
    best = None
    for _ in range(repeats):
        res = run_partitioned(name, k, engine=engine, backend=backend)
        crit = res.critical_path_seconds
        if best is None or crit < best["critical_path_seconds"]:
            best = {
                "k": k,
                "engine": engine,
                "backend": backend,
                "scheme": res.scheme,
                "cut_links": res.cut_links,
                "window": res.window,
                "windows_run": res.windows_run,
                "status": res.status,
                "now": res.now,
                "events": res.events,
                "flits_exchanged": res.flits_exchanged,
                "wall_seconds": round(res.wall_seconds, 4),
                "critical_path_seconds": round(crit, 4),
                "events_per_second": round(res.events / crit, 1),
                "digest": timeline_digest(res.timeline),
            }
    return best


def run_par_suite(
    scenario: str = "saturated_torus_32",
    shards=(2, 4, 8),
    engines=("dense", "active"),
    par_engine: str = "active",
    backend: str = "inline",
    repeats: int = 2,
):
    """Full comparison on one scenario; returns a JSON-ready dict.

    Raises if any partitioned timeline digest differs from the
    sequential one -- identity first, speed second.
    """
    if par_engine not in engines:
        engines = tuple(engines) + (par_engine,)
    sequential = {
        engine: _sequential_point(scenario, engine, repeats)
        for engine in engines
    }
    best_engine = max(
        sequential, key=lambda e: sequential[e]["events_per_second"]
    )
    best_rate = sequential[best_engine]["events_per_second"]
    reference = sequential[par_engine]["digest"]
    partitioned = {}
    for k in shards:
        rec = _partitioned_point(scenario, k, par_engine, backend, repeats)
        if rec["digest"] != reference:
            raise AssertionError(
                f"{scenario} K={k}: partitioned digest {rec['digest'][:12]} "
                f"!= sequential {reference[:12]} -- refusing to report a "
                "speedup for a divergent run"
            )
        rec["speedup_vs_best_sequential"] = round(
            rec["events_per_second"] / best_rate, 3
        )
        partitioned[str(k)] = rec
    return {
        "scenario": scenario,
        "host_cores": os.cpu_count(),
        "timing": "critical_path",
        "best_sequential_engine": best_engine,
        "sequential": sequential,
        "partitioned": partitioned,
    }


# -- pytest entry points (opt-in: benchmarks/ is not in testpaths) -------

def test_par_torus8_identity():
    suite = run_par_suite(
        "saturated_torus_8", shards=(2, 4), engines=("active",),
        par_engine="active", repeats=1,
    )
    for rec in suite["partitioned"].values():
        assert rec["digest"] == suite["sequential"]["active"]["digest"]


def test_par_k4_speedup_meets_bar():
    # The recorded bar (BENCH_sweep.json) is >= 3x vs the best sequential
    # engine including dense; this opt-in test times only the active
    # baseline (the best one on this workload) to stay fast, and uses a
    # 2.5x floor to absorb runner noise around the measured ~3.3x.
    suite = run_par_suite(
        "saturated_torus_32", shards=(4,), engines=("active",), repeats=1
    )
    rec = suite["partitioned"]["4"]
    assert rec["speedup_vs_best_sequential"] >= 2.5, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="saturated_torus_32")
    parser.add_argument(
        "--shards", type=lambda s: [int(x) for x in s.split(",")],
        default=[2, 4, 8], metavar="N,M,...",
    )
    parser.add_argument(
        "--engines", nargs="+", default=["dense", "active"],
        help="sequential baselines to time (best one sets the speedup "
             "denominator)",
    )
    parser.add_argument(
        "--par-engine", default="active",
        choices=("dense", "active"),
        help="engine each shard runs (active shards near-linearly on the "
             "broadcast workload)",
    )
    parser.add_argument("--backend", default="inline",
                        choices=("inline", "process"))
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    suite = run_par_suite(
        args.scenario, shards=args.shards, engines=tuple(args.engines),
        par_engine=args.par_engine, backend=args.backend,
        repeats=args.repeats,
    )
    for engine, rec in suite["sequential"].items():
        mark = " (best)" if engine == suite["best_sequential_engine"] else ""
        print(f"seq/{engine}{mark}: {rec['events']} events in "
              f"{rec['run_seconds']:.2f}s "
              f"({rec['events_per_second']:,.0f} ev/s)")
    for k, rec in suite["partitioned"].items():
        print(f"K={k}: critical path {rec['critical_path_seconds']:.2f}s "
              f"(wall {rec['wall_seconds']:.2f}s) "
              f"{rec['events_per_second']:,.0f} ev/s = "
              f"{rec['speedup_vs_best_sequential']:.2f}x")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(suite, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

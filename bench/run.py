#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: the paper's workloads, timed.

Run from the repository root::

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload served --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --trace 1                # per-layer split + Chrome traces
    python3 bench/run.py --out runs.jsonl         # append results for compare.py

Each workload runs in a fresh Python process.  The run prints every metric
with its unit, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced (``--trace 0``), its per-layer metrics traced
(``--trace 1``).  ``failed / attempted`` is the error rate: points or
requests that raised, timed out, got a non-200 reply, or produced a record
that fails its check.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SWEEP_WORKLOADS = ("paper_wormlevel", "paper_flitlevel", "fault_recovery")

#: Which end-to-end metric each per-layer metric should move, and on
#: which workloads (the others are predicted not to move).  ``None`` marks
#: the validity and hygiene metrics, which move no end-to-end metric.
_WORM = ("paper_wormlevel",)
_FLIT = ("paper_flitlevel",)
_SIM = ("paper_wormlevel", "fault_recovery")
_BUILD = ("paper_flitlevel", "fault_recovery")
_SERVED = ("served",)
LAYER_MOVES: Dict[str, Any] = {
    "sim.run_s": ("wall_s", _SIM),
    "sim.events": ("wall_s", _SIM),
    "sim.events_per_s": ("wall_s", _SIM),
    "sim.wakeups": ("wall_s", _SIM),
    "sim.events_by_type._DeferredCall": ("wall_s", _SIM),
    "sim.events_by_type.Timeout": ("wall_s", _SIM),
    "sim.events_by_type.Event": ("wall_s", _SIM),
    "sim.events_by_type.Initialize": ("wall_s", _SIM),
    "sim.events_by_type.Process": ("wall_s", _SIM),
    "traffic.build_engine_s": ("wall_s", _WORM),
    "wormnet.worms": ("wall_s", _WORM),
    "core.messages": ("wall_s", _WORM),
    "topology.build_s": ("wall_s", _BUILD),
    "topology.builds": ("wall_s", _BUILD),
    "updown.build_s": ("wall_s", _BUILD),
    "updown.builds": ("wall_s", _BUILD),
    "wormnet.refreshes": ("wall_s", ("fault_recovery",)),
    "flitlevel.build_s": ("wall_s", _FLIT),
    "flitlevel.builds": ("wall_s", _FLIT),
    "flitlevel.run_s": ("wall_s", _FLIT),
    "flitlevel.ticks": ("wall_s", _FLIT),
    "flitlevel.ticks_per_s": ("wall_s", _FLIT),
    "myrinet.run_s": ("wall_s", _WORM),
    "faults.campaign_s": ("wall_s", ("fault_recovery",)),
    "sweep.points": ("wall_s", SWEEP_WORKLOADS),
    "sweep.other_s": ("wall_s", SWEEP_WORKLOADS),
    "cluster.submit_ms.p50": ("latency_p50_ms", _SERVED),
    "cluster.submit_ms.p99": ("latency_p95_ms", _SERVED),
    "cluster.overhead_ms.p50": ("latency_p50_ms", _SERVED),
    "cluster.ring_owners_us": ("latency_p50_ms", _SERVED),
    "cluster.shard_share.max": ("latency_p95_ms", _SERVED),
    "serve.wait_ms.p50": ("latency_p50_ms", _SERVED),
    "serve.wait_ms.p99": ("latency_p95_ms", _SERVED),
    "serve.exec_ms.p50": ("wall_s", _SERVED),
    "serve.exec_ms.p99": ("latency_p95_ms", _SERVED),
    "serve.hit_ratio": ("wall_s", _SERVED),
    "serve.batches": ("wall_s", _SERVED),
    "serve.batch_size.mean": ("wall_s", _SERVED),
    "trace.overhead_pct": None,
    "trace.span_coverage_pct": None,
    "cluster.leaked_procs": None,
}


def load_config() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 write_reference: bool = False) -> Dict[str, Any]:
    """Measure one workload in this process; returns its result."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    from common import OUT_DIR, REFERENCE_SEED, write_pins

    trace_path = OUT_DIR / f"{name}.chrome.json" if trace else None
    if name == "served":
        import served

        outcome = served.run(name, seed, seconds, trace, trace_path)
        setup = outcome["setup_s"]
    else:
        import sweeps

        setup = sweeps.setup_s(name, seed)
        outcome = sweeps.run(name, seed, seconds, trace, trace_path)
    ledger = outcome["ledger"]
    config = load_config()
    if trace:
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        values = {key: 0.0 for key in units}
        unknown = set(outcome["layers"]) - set(units)
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(outcome["layers"])
    else:
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
        values = dict(outcome["e2e"], setup_s=setup)
    if write_reference:
        if seed != REFERENCE_SEED:
            raise SystemExit(f"--write-reference needs --seed {REFERENCE_SEED}")
        path = write_pins(name, {item: ledger.seen[item] for item in outcome["pin_items"]
                                 if item in ledger.seen})
        print(f"pinned {len(outcome['pin_items'])} records in {path}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()
        },
        "problems": ledger.problems,
        "passes": outcome["passes"],
        "window_s": outcome["window_s"],
    }


def _report(name: str, seed: int, trace: bool, result: Dict[str, Any]) -> None:
    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"window {result['window_s']:.1f} s  passes {result['passes']:.2f}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<36} {metric['value']:>14.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"error_rate {rate:.4f}  correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  ! {problem}")


def _result_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: Optional[List[str]] = None) -> int:
    config = load_config() if (ROOT / "BENCHMARK.json").is_file() else None
    names = [w["name"] for w in config["workloads"]] if config else []
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names or None,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"] if config else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON line per workload run (compare.py input)")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin bench/reference/<workload>.json from this run")
    args = parser.parse_args(argv)
    if config is None or not (SRC / "repro" / "__init__.py").is_file():
        print("error: run from a repository checkout (BENCHMARK.json and "
              "src/repro are required)", file=sys.stderr)
        return 2

    selected = args.workload or names
    results = {}
    for name in selected:
        if len(selected) == 1:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.write_reference)
            _report(name, args.seed, bool(args.trace), result)
            result = _result_line(result)
        else:
            result = _child(name, args)
        results[name] = result
        if args.out is not None:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "seconds": args.seconds,
                                     **result}) + "\n")
    if len(selected) == 1:
        print(json.dumps(results[selected[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }))
    return 0


def _child(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter: echo its report, return
    its result line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.write_reference:
        command.append("--write-reference")
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = done.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())

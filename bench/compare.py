#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/run.py --seed 1 --out A.jsonl     # parent commit, repeat
    python3 bench/run.py --seed 1 --out B.jsonl     # change, repeat
    python3 bench/compare.py A.jsonl B.jsonl

Inputs are the JSON lines ``run.py --out`` appends, one per workload run.
For every metric x workload present in both files the table shows each
side's median and quartiles and a verdict:

* ``within bound`` -- B's median is no worse than A's by more than the
  metric's bound;
* ``regressed``    -- it is worse by more than the bound;
* ``unresolved``   -- either side's spread (quartile distance over median)
  is wider than the bound, so the data cannot tell; unless every B run
  beats every A run, which reads ``better``;
* ``layer``        -- a per-layer metric: no bound, shown for diagnosis.

The error rate (failed / attempted, traced runs included) may not rise at
all: B regresses when its worst run fails more often than A's worst run.
The exit status is 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values``; ``error_rate`` is derived per run,
    traced or not."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        workload = run["workload"]
        for name, metric in run["metrics"].items():
            values[(workload, name)].append(float(metric["value"]))
        values[(workload, "error_rate")].append(run["failed"] / max(1, run["attempted"]))
    return values


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values: List[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: Dict, a: List[float], b: List[float]) -> Tuple[str, float]:
    """``(verdict, relative change of B's median, positive = worse)``."""
    a_med, b_med = summary(a)[0], summary(b)[0]
    sign = 1.0 if metric.get("better", "lower") == "lower" else -1.0
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if metric["name"] == "error_rate":
        # No median: one failing B run among passing ones is a regression.
        return ("regressed" if max(b) > max(a) else "within bound"), change
    if "bound" not in metric:
        return "layer", change
    bound = metric["bound"]
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better", change
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    return ("regressed" if change > bound else "within bound"), change


def compare(a_path: Path, b_path: Path, config: Dict) -> Tuple[List[str], bool]:
    """Rendered table lines and whether anything regressed."""
    metrics = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    metrics["error_rate"] = {"name": "error_rate", "unit": "fraction", "better": "lower"}
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    lines = [
        f"{'workload':<16} {'metric':<34} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'change':>8}  verdict"
    ]
    regressed = False
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, name = key
        if name not in metrics:
            continue
        status, change = verdict(metrics[name], a_runs[key], b_runs[key])
        regressed |= status == "regressed"
        cells = []
        for values in (a_runs[key], b_runs[key]):
            med, q1, q3 = summary(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
        lines.append(
            f"{workload:<16} {name:<34} {cells[0]:>32} {cells[1]:>32} "
            f"{100 * change:>+7.1f}%  {status}"
        )
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline runs (JSON lines)")
    parser.add_argument("b", type=Path, help="candidate runs (JSON lines)")
    parser.add_argument("--config", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    lines, regressed = compare(args.a, args.b, json.loads(args.config.read_text()))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three sweep workloads: the paper's grids run point by point.

Every point goes through ``run_sweep(spec, jobs=1, cache=None)`` as a
one-point spec, so a run can stop between points when its time is up.
Points repeat in grid order, pass after pass; a point's time is the
median over its passes, so one slow pass (another process on the core)
does not move ``wall_s``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH,
    REFERENCE_SEED,
    ROOT,
    SETUP_LAUNCHES,
    Ledger,
    SpeedMeter,
    item_id,
    load_pins,
    median,
    peak_rss_mb,
    percentile,
)
from tracing import EVENT_CLASSES, LAYER_MODULES, Tracer

#: Figure-10 loads of ``paper_wormlevel``: low, middle and high load of
#: the paper's axis.  All nine at the paper's effort take ~15 s, longer
#: than one run may measure; three loads keep every scheme and the
#: saturation end of the curve.
WORM_FIG10_LOADS = [0.04, 0.08, 0.12]
#: Effort scale of the worm-level and fault grids (see figures.scaled).
WORM_SCALE = 0.2
FAULT_SCALE = 0.4
#: Butterfly stages of the flit-level VC grid: the 2-ary 8-fly, 1,024
#: switches, keeps network construction a fifth of the pass.  The 2,304-
#: switch 9-fly doubles the pass to ~10 s, too long for three passes in
#: one run.
VC_STAGES = 8

#: ROADMAP reference point: Fig-10 hamiltonian-sf at load 0.06, full
#: effort, seed 1 -> mean multicast latency and channel utilization.
ROADMAP_POINT = {"latency": 3850.44, "utilization": 0.128399}


def grid_specs(name: str, seed: int) -> list:
    """The sweep specs of workload ``name`` at ``seed``.

    Each point draws its own seed from ``seed`` and its parameters
    (``derive_seeds``).  Under the paper's common random numbers every
    point of a figure shares one group layout, so one seed's layout makes
    the whole pass cheaper or dearer; independent draws average out.
    """
    specs = _paper_specs(name, seed)
    for spec in specs:
        spec.derive_seeds = True
    return specs


def _paper_specs(name: str, seed: int) -> list:
    from repro.core.switch_mcast import SwitchScheme
    from repro.sweep.figures import (
        faults_spec,
        fig10_spec,
        fig11_spec,
        fig12_spec,
        repair_spec,
        vc_lanes_spec,
    )
    from repro.sweep.spec import SweepSpec

    if name == "paper_wormlevel":
        myrinet = fig12_spec(scale=WORM_SCALE)  # takes no seed argument
        myrinet.base_seed = seed
        return [
            fig10_spec(loads=WORM_FIG10_LOADS, scale=WORM_SCALE, seed=seed),
            fig11_spec(scale=WORM_SCALE, seed=seed),
            myrinet,
        ]
    if name == "paper_flitlevel":
        fig3 = SweepSpec(
            kind="fig3_offsets",
            grid={"scheme": [scheme.value for scheme in SwitchScheme]},
            base={"mc_delays": 6, "uc_delays": 6},
            base_seed=seed,
        )
        vc = vc_lanes_spec(seed=seed)
        vc.base["stages"] = VC_STAGES
        return [fig3, vc]
    if name == "fault_recovery":
        return [faults_spec(scale=FAULT_SCALE, seed=seed), repair_spec(seed=seed)]
    raise ValueError(f"unknown sweep workload {name!r}")


def _single(point) -> Tuple[str, Any]:
    """``(item id, one-point spec)`` for a grid point."""
    from repro.sweep.spec import SweepSpec

    params = dict(point.params, seed=point.seed)
    return item_id(point.kind, params), SweepSpec(kind=point.kind, base=params)


def grid(name: str, seed: int) -> List[Tuple[str, Any]]:
    return [_single(p) for spec in grid_specs(name, seed) for p in spec.points()]


def roadmap_point() -> Tuple[str, Any]:
    from repro.sweep.figures import fig10_spec

    return _single(fig10_spec(loads=[0.06], schemes=["hamiltonian-sf"]).points()[0])


def anchors(name: str, seed: int) -> List[Tuple[str, Any]]:
    """Pinned points run after the window at every seed: the first point
    of each spec at the reference seed (the whole grid is pinned there),
    plus the ROADMAP reference point on the worm-level workload."""
    out = []
    if seed != REFERENCE_SEED:
        out = [_single(spec.points()[0]) for spec in grid_specs(name, REFERENCE_SEED)]
    if name == "paper_wormlevel":
        out.append(roadmap_point())
    return out


def probe(name: str, seed: int) -> None:
    """Set-up as a user pays it: import the layers and expand the grid."""
    import importlib

    for module in LAYER_MODULES:
        importlib.import_module(module)
    grid(name, seed)
    print("ready", flush=True)


def setup_s(name: str, seed: int) -> float:
    """Median over cold launches of a fresh interpreter running
    :func:`probe`: seconds from process start to the first point ready,
    at reference host speed."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
        f"import sweeps; sweeps.probe({name!r}, {seed})"
    )
    times = []
    with SpeedMeter() as meter:
        for _ in range(SETUP_LAUNCHES):
            began = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-c", code], cwd=str(ROOT), stdout=subprocess.PIPE, text=True
            )
            line = child.stdout.readline()
            took = time.perf_counter() - began
            child.stdout.close()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe of {name} failed")
            times.append(took * meter.speed_since(began))
    return median(times)


def _execute(spec) -> Tuple[Optional[Dict[str, Any]], str]:
    from repro.sweep.runner import run_sweep

    try:
        return run_sweep(spec, jobs=1, cache=None).records[0], ""
    except Exception as exc:  # noqa: BLE001 - counted as a failed point
        return None, f"{type(exc).__name__}: {exc}"


def check_roadmap_point(record: Dict[str, Any]) -> bool:
    return (
        round(record["mean_multicast_latency"], 2) == ROADMAP_POINT["latency"]
        and round(record["mean_channel_utilization"], 6) == ROADMAP_POINT["utilization"]
    )


def run(
    name: str, seed: int, seconds: float, trace: bool,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Measure workload ``name`` for ``seconds``; returns metrics + ledger.

    Untraced, the run covers at least one full pass.  Traced, passes
    alternate untraced / traced and the run covers at least one of each,
    so ``trace.overhead_pct`` compares the same points.  The run pins
    itself to one CPU, and a :class:`SpeedMeter` on that CPU scales every
    point by the readings taken while it ran.
    """
    points = grid(name, seed)
    ledger = Ledger(load_pins(name))
    at_reference = seed == REFERENCE_SEED
    tracer = Tracer() if trace else None
    times: List[List[float]] = [[] for _ in points]
    traced_times: List[List[float]] = [[] for _ in points]
    layers: List[List[Dict[str, float]]] = [[] for _ in points]
    min_points = len(points) * (2 if trace else 1)
    count = 0
    clock = time.perf_counter
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    start = clock()
    try:
        with SpeedMeter(cpus=[cpu]) as meter:
            while count < min_points or clock() - start < seconds:
                pass_no, index = divmod(count, len(points))
                traced = trace and pass_no % 2 == 1
                if tracer is not None and index == 0:
                    tracer.remove()
                    if traced:
                        tracer.install()
                item, spec = points[index]
                began = clock()
                if traced:
                    record, error, layer_s, counts, took = _traced_point(tracer, index, spec)
                else:
                    record, error = _execute(spec)
                    took = clock() - began
                scale = meter.speed_since(began)
                if traced:
                    layers[index].append(dict(counts, **{k: v * scale for k, v in layer_s.items()}))
                    traced_times[index].append(took * scale)
                else:
                    times[index].append(took * scale)
                ledger.check(item, record, error, pinned=at_reference)
                count += 1
        window = clock() - start
    finally:
        os.sched_setaffinity(0, allowed)
        if tracer is not None:
            tracer.remove()

    roadmap_item = roadmap_point()[0]
    pin_items = set(ledger.seen) if at_reference else set()
    for item, spec in anchors(name, seed):
        record, error = _execute(spec)
        pin_items.add(item)
        if ledger.check(item, record, error, pinned=True) and item == roadmap_item:
            if not check_roadmap_point(record):
                ledger.fail(f"{item}: ROADMAP reference point moved")

    point_times = [median(per_point) for per_point in times]
    result = {
        "ledger": ledger,
        "e2e": {
            "wall_s": sum(point_times),
            "latency_p50_ms": percentile(point_times, 50) * 1e3,
            "latency_p95_ms": percentile(point_times, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        "window_s": window,
        "passes": count / len(points),
        "pin_items": pin_items,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(layers, traced_times, times, len(points))
        if trace_path is not None:
            for problem in tracer.export_chrome(trace_path)[:1]:
                ledger.fail(f"chrome trace invalid: {problem}")
    return result


def _traced_point(tracer: Tracer, index: int, spec):
    """Run one point inside a root span; returns the record, the error,
    the point's self seconds per layer, its counts and its duration."""
    events, wakeups, by_type = tracer.kernel_state()
    before = dict(tracer.counts)
    with tracer.root("point", key=index) as root:
        record, error = _execute(spec)
    span = tracer.spans[root]
    counts = {
        layer + "s": sum(1 for s in tracer.spans[root + 1:] if s[0] == layer)
        for layer in ("topology.build", "updown.build", "flitlevel.build")
    }
    now_events, now_wakeups, now_by_type = tracer.kernel_state()
    counts["sim.events"] = now_events - events
    counts["sim.wakeups"] = now_wakeups - wakeups
    for cls in EVENT_CLASSES:
        counts[f"sim.events_by_type.{cls}"] = now_by_type.get(cls, 0) - by_type.get(cls, 0)
    for key in ("flitlevel.ticks", "wormnet.refreshes"):
        counts[key] = tracer.counts.get(key, 0) - before.get(key, 0)
    counts["wormnet.worms"] = tracer.take_worms()
    counts["core.messages"] = (record or {}).get("messages_completed") or 0
    return record, error, tracer.layer_times(root), counts, span[2] - span[1]


def _layer_metrics(layers, traced_times, times, n_points: int) -> Dict[str, float]:
    """Per-pass layer totals: each point's median over its traced passes."""
    keys = sorted({key for per_point in layers for sample in per_point for key in sample})
    total = {
        key: sum(median(s.get(key, 0.0) for s in per_point) for per_point in layers)
        for key in keys
    }
    traced = sum(median(t) for t in traced_times)
    untraced = sum(median(t) for t in times)
    get = total.get
    sim_run = get("sim.run", 0.0)
    flit_run = get("flitlevel.run", 0.0)
    other = get("point.other", 0.0)
    out = {
        "sim.run_s": sim_run,
        "sim.events": get("sim.events", 0),
        "sim.events_per_s": get("sim.events", 0) / sim_run if sim_run else 0.0,
        "sim.wakeups": get("sim.wakeups", 0),
        "traffic.build_engine_s": get("traffic.build_engine", 0.0),
        "wormnet.worms": get("wormnet.worms", 0),
        "core.messages": get("core.messages", 0),
        "topology.build_s": get("topology.build", 0.0),
        "topology.builds": get("topology.builds", 0),
        "updown.build_s": get("updown.build", 0.0),
        "updown.builds": get("updown.builds", 0),
        "wormnet.refreshes": get("wormnet.refreshes", 0),
        "flitlevel.build_s": get("flitlevel.build", 0.0),
        "flitlevel.builds": get("flitlevel.builds", 0),
        "flitlevel.run_s": flit_run,
        "flitlevel.ticks": get("flitlevel.ticks", 0),
        "flitlevel.ticks_per_s": get("flitlevel.ticks", 0) / flit_run if flit_run else 0.0,
        "myrinet.run_s": get("myrinet.run", 0.0),
        "faults.campaign_s": get("faults.campaign", 0.0),
        "sweep.points": n_points,
        "sweep.other_s": other,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0) if untraced else 0.0,
        "trace.span_coverage_pct": 100.0 * (1.0 - other / traced) if traced else 0.0,
    }
    for cls in EVENT_CLASSES:
        out[f"sim.events_by_type.{cls}"] = get(f"sim.events_by_type.{cls}", 0)
    return out

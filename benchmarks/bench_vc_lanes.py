"""Virtual-channel lane benchmarks.

Two workloads bracket what the lanes buy and what they cost:

* ``saturated shufflenet x lanes`` -- all 24 hosts of the (2,3)
  bidirectional shufflenet injecting back-to-back worms at lanes 1/2/4.
  Extra lanes shorten the simulated completion time (blocked worms slip
  onto a free lane) but widen the fabric the engine must tick, so this
  measures both the completion win (simulated ticks) and the engine
  throughput cost (wall seconds, ticks/second).
* ``butterfly 1k multicast`` -- a 2304-switch 2-ary 9-fly butterfly
  carrying a multicast plus cross traffic end-to-end at lanes=2, the
  1000+-switch multistage scenario from the VC experiments.

Every workload asserts delivery and records engine ticks per wall second
as ``events_per_second``, the trajectory's rate field.

Run standalone to emit JSON::

    python benchmarks/bench_vc_lanes.py --scale 0.5 --out results/vc_bench.json

or under pytest-benchmark for statistics::

    python -m pytest benchmarks/bench_vc_lanes.py
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

from repro.net import bidirectional_shufflenet, butterfly  # noqa: E402
from repro.net.flitlevel import FlitNetwork  # noqa: E402

#: Engine the suite times by default.
DEFAULT_ENGINE = "active"

LANE_COUNTS = (1, 2, 4)


def _saturated_lanes_net(engine: str, lanes: int, rounds: int):
    topo = bidirectional_shufflenet(2, 3)
    net = FlitNetwork(topo, engine=engine, seed=21, lanes=lanes)
    hosts = topo.hosts
    for _ in range(rounds):
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 7) % len(hosts)],
                             payload_bytes=120)
    return net


def _saturated_lanes(engine: str, lanes: int, rounds: int):
    """24-node shufflenet, every host sending ``rounds`` worms, L lanes."""
    net = _saturated_lanes_net(engine, lanes, rounds)
    status = net.run(max_ticks=400_000)
    return status, net.now, net.ticks_executed


def _butterfly_1k_net(engine: str, lanes: int, fanout: int = 8):
    topo = butterfly(k=2, n=9)  # 256 rows x 9 stages
    net = FlitNetwork(topo, engine=engine, seed=9, lanes=lanes)
    hosts = topo.hosts
    stride = max(1, len(hosts) // (fanout + 1))
    dests = [hosts[(1 + i) * stride] for i in range(fanout)]
    net.send_multicast(hosts[0], dests, payload_bytes=200)
    for i in range(16):
        net.send_unicast(
            hosts[(3 * i + 1) % len(hosts)],
            hosts[(3 * i + 1 + len(hosts) // 2) % len(hosts)],
            payload_bytes=100, start_delay=5 * i,
        )
    return net


def _butterfly_1k(engine: str, lanes: int, fanout: int = 8):
    """2304-switch butterfly: one wide multicast plus cross unicasts."""
    net = _butterfly_1k_net(engine, lanes, fanout)
    status = net.run(max_ticks=200_000)
    return status, net.now, net.ticks_executed


def _timed_run(make_net, max_ticks, repeats):
    # Time only ``net.run``: topology construction and worm injection are
    # fixed costs that would otherwise dilute the ticks/s of reduced-scale
    # smoke runs and make them incomparable to the full-scale baseline.
    best = float("inf")
    out = None
    for _ in range(repeats):
        net = make_net()
        t0 = time.perf_counter()
        status = net.run(max_ticks=max_ticks)
        best = min(best, time.perf_counter() - t0)
        out = (status, net.now, net.ticks_executed)
    return best, out


def run_vc_suite(scale: float = 1.0, repeats: int = 3,
                 engine: str = DEFAULT_ENGINE):
    """Time the lane ladder and the 1000+-switch butterfly; JSON-ready.

    Keys are trajectory labels (``flit_vc_lanes{L}``,
    ``flit_vc_butterfly1k``); every record carries ``events_per_second``
    (engine ticks per wall second, best-of-``repeats``) for the
    regression gate plus the simulated completion tick, which is where
    the lanes themselves show up.
    """
    results = {}
    # The floor of 4 pins reduced-scale smoke runs (CI uses ~0.3) to the
    # same workload the committed baseline was measured on, so ticks/s
    # stays comparable; larger scales grow the run for tighter statistics.
    rounds = max(4, int(4 * scale))
    base_now = None
    for lanes in LANE_COUNTS:
        seconds, (status, now, ticks) = _timed_run(
            lambda: _saturated_lanes_net(engine, lanes, rounds),
            400_000, repeats,
        )
        if status != "delivered":
            raise AssertionError(
                f"saturated shufflenet lanes={lanes}: {status}"
            )
        if lanes == 1:
            base_now = now
        results[f"flit_vc_lanes{lanes}"] = {
            "engine": engine,
            "lanes": lanes,
            "rounds": rounds,
            "status": status,
            "final_tick": now,
            "ticks_executed": ticks,
            "seconds": round(seconds, 4),
            "events_per_second": round(ticks / seconds),
            "completion_ratio_vs_lanes1": round(now / base_now, 3),
        }
    seconds, (status, now, ticks) = _timed_run(
        lambda: _butterfly_1k_net(engine, 2),
        200_000, max(1, repeats - 1),
    )
    if status != "delivered":
        raise AssertionError(f"butterfly 1k multicast: {status}")
    results["flit_vc_butterfly1k"] = {
        "engine": engine,
        "lanes": 2,
        "switches": 2304,
        "status": status,
        "final_tick": now,
        "ticks_executed": ticks,
        "seconds": round(seconds, 4),
        "events_per_second": round(ticks / seconds),
    }
    return results


# -- pytest-benchmark entry points ---------------------------------------

def test_vc_lane_ladder_completion_improves():
    # The simulated completion win is the point of the lanes: at 4 lanes
    # the saturated shufflenet must finish no later than at 1 lane.
    ticks = {}
    for lanes in (1, 4):
        status, now, _ = _saturated_lanes(DEFAULT_ENGINE, lanes, 2)
        assert status == "delivered"
        ticks[lanes] = now
    assert ticks[4] <= ticks[1], ticks


def test_vc_saturated_lanes2(benchmark):
    rounds = scaled(4, minimum=1)
    status, _, ticks = benchmark(
        _saturated_lanes, DEFAULT_ENGINE, 2, rounds
    )
    assert status == "delivered"


def test_vc_butterfly_1k(benchmark):
    status, _, ticks = benchmark(_butterfly_1k, DEFAULT_ENGINE, 2)
    assert status == "delivered"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload multiplier (CI smoke uses ~0.3)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=("dense", "active"))
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result dict to this JSON file")
    args = parser.parse_args(argv)
    results = run_vc_suite(
        scale=args.scale, repeats=args.repeats, engine=args.engine
    )
    for name, rec in results.items():
        print(
            f"{name:>22}: {rec['seconds']:.3f}s "
            f"({rec['events_per_second']:,} ticks/s, "
            f"final tick {rec['final_tick']})"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

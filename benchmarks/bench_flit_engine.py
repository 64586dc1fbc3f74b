"""Dense vs active flit engine: the active engine's two speed bars.

Two scenarios bracket the active engine's envelope:

* ``sparse_fig3`` -- the Figure 3 deadlock topology under S3 (idle-flush)
  with injection rounds spaced thousands of ticks apart.  The dense
  engine grinds through every idle tick; the active engine deregisters
  quiescent input ports and fast-forwards the gaps, so it must be at
  least 3x faster.
* ``saturated_shufflenet`` -- all 24 hosts of a (2,3) bidirectional
  shufflenet injecting back-to-back worms.  Every switch is busy, but
  most of its input ports are not: the active engine steps only the live
  ones, so it must keep at least 0.85x dense's speed.

Each bar runs both engines at two rounds, best of three, and first
checks that they agree on status and final clock: a benchmark that
drifted semantically would be measuring two different simulations.
(The full byte-identical timeline diff lives in
``tests/flitlevel/test_engine_equivalence.py``.)  CI's ``paper-shape``
step runs them::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_flit_engine.py
"""

import time

from repro.core.switch_mcast import SwitchScheme, build_switch_multicast_network
from repro.net import bidirectional_shufflenet
from repro.net.flitlevel import FlitNetwork
from repro.net.topology import fig3_topology

#: Idle gap between injection rounds in the sparse scenario.  One fig3
#: round resolves in under ~1500 ticks, so most of each gap is quiescent.
#: Sized so idle ticks dominate dense wall time: a quiescent dense tick
#: still costs ~1/3 of a busy one (it polls every port of every switch).
_SPARSE_GAP = 25_000

#: Injection rounds and best-of repeats for both bars.
ROUNDS = 2
REPEATS = 3


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
    return status, net.now


def _saturated_shufflenet(engine: str, rounds: int):
    """24-node shufflenet, every host sending ``rounds`` back-to-back worms."""
    topo = bidirectional_shufflenet(2, 3)
    net = FlitNetwork(topo, engine=engine, seed=21)
    hosts = topo.hosts
    for _ in range(rounds):
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 7) % len(hosts)], payload_bytes=120)
    status = net.run(max_ticks=400_000)
    return status, net.now


def _speedup(scenario) -> float:
    """Dense's best time over active's, once both reach the same end."""
    best = {}
    outcome = {}
    for engine in ("dense", "active"):
        best[engine] = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            outcome[engine] = scenario(engine, ROUNDS)
            best[engine] = min(best[engine], time.perf_counter() - t0)
    assert outcome["active"] == outcome["dense"], outcome
    assert outcome["dense"][0] == "delivered", outcome
    return best["dense"] / best["active"]


def test_sparse_fig3_active_at_least_3x_dense():
    speedup = _speedup(_sparse_fig3)
    assert speedup >= 3.0, f"active {speedup:.2f}x dense"


def test_saturated_shufflenet_active_at_least_085x_dense():
    # <= 5% slower locally, relaxed to 15% for noisy CI runners.
    speedup = _speedup(_saturated_shufflenet)
    assert speedup >= 0.85, f"active {speedup:.2f}x dense"

"""Generated dense-vs-active differential runs.

A seeded generator draws small flit-level scenarios -- topology, multicast
mode, lanes, slack size, wire delay, tree-restricted routing, the stall
window (``quiet_limit`` 300, 1,500 or None) and either one to seven
unicasts or multicasts of assorted sizes at random start delays, or the
Figure 3 race shape: a two-branch multicast against a unicast that
crosses it at one of its destinations, up to 400 bytes each, injected
0-6 ticks apart -- and runs each on both engines.  The two runs must
read the same final clock, the same timeline digest and the same fabric
counters (the :mod:`test_flit_golden` pins) and count the same progress
events (the stall detector's clock), and neither may raise.  Undersized
slack on long wires drops flits, so the draw includes corrupted headers
and worms that never finish; long worms take the active engine's
steady streaming spans, one worm's circuit asleep while other worms'
circuits tick, and the races take its spans with frozen ports (waiting
for a grant, held by STOP) and IDLE fill, up to the tick the stall
window ends.  Each scenario runs for at most 6,000
ticks.  Each scenario's two networks are closed once compared, and must
then leave no reference cycle for the cyclic collector, the guard
``tests/sweep/test_point_teardown.py`` keeps for sweep points: flushes,
slack overflows and lost worms free themselves too.

The two corrupt-header reproducers raised on both engines before a
switch validated its route bytes.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.net.flitlevel.flits import FlitKind
from repro.net.flitlevel.network import FlitNetwork
from repro.net.topology import butterfly, fig3_topology, ring, torus

from .test_flit_golden import _pins

TOPOLOGIES = {
    "torus3x3": lambda: torus(3, 3),
    "torus4x4": lambda: torus(4, 4),
    "ring6": lambda: ring(6),
    "fly2x3": lambda: butterfly(2, 3),
    "fig3": fig3_topology,
}
HOSTS = {name: len(make().hosts) for name, make in TOPOLOGIES.items()}
SIZES = (1, 2, 5, 40, 120, 400)

#: Generator seed and scenario count (about five seconds for both engines).
SEED = 1
COUNT = 80


def _draw(rng: random.Random):
    """One scenario: ``(topology, FlitNetwork keywords, sends,
    quiet_limit)``; a send is ``(source, destinations, payload bytes,
    start delay)`` in host indices, a unicast when it names one
    destination."""
    topology = rng.choice(sorted(TOPOLOGIES))
    config = {
        "mode": rng.choice(("idle_fill", "interrupt", "idle_flush")),
        "lanes": rng.choice((1, 2)),
        "slack_capacity": rng.choice((4, 8, 32)),
        "wire_delay": rng.choice((1, 2, 3)),
        "restrict_to_tree": rng.random() < 0.5,
        "seed": rng.randrange(1, 100),
    }
    n = HOSTS[topology]
    quiet_limit = rng.choice((300, 1_500, None))
    if rng.random() < 0.4:
        # The Figure 3 race: the unicast crosses the multicast at its
        # first destination.
        src, first, second, rival = rng.sample(range(n), 4)
        sends = [
            (src, [first, second], rng.randint(40, 400), rng.randint(0, 6)),
            (rival, [first], rng.randint(40, 400), rng.randint(0, 6)),
        ]
        return topology, config, sends, quiet_limit
    sends = []
    for _ in range(rng.randint(1, 7)):
        src = rng.randrange(n)
        others = [h for h in range(n) if h != src]
        size = rng.choice(SIZES)
        delay = rng.randrange(0, 170)
        if rng.random() < 0.5:
            dests = [rng.choice(others)]
        else:
            dests = rng.sample(others, rng.randint(2, min(5, len(others))))
        sends.append((src, dests, size, delay))
    return topology, config, sends, quiet_limit


def _run(scenario, engine):
    topology, config, sends, quiet_limit = scenario
    topo = TOPOLOGIES[topology]()
    hosts = topo.hosts
    net = FlitNetwork(topo, engine=engine, **config)
    for src, dests, size, delay in sends:
        if len(dests) == 1:
            net.send_unicast(hosts[src], hosts[dests[0]], size, start_delay=delay)
        else:
            net.send_multicast(
                hosts[src], [hosts[d] for d in dests], size, start_delay=delay
            )
    status = net.run(max_ticks=6_000, quiet_limit=quiet_limit,
                     raise_on_deadlock=False)
    return net, status


def _span_kinds(circuit) -> set:
    """The classes of component in a circuit about to sleep:
    ``streaming`` when a DATA flit streams on a wire into a member,
    ``idle_fill`` when an IDLE flit does, and ``frozen`` when a port
    receives nothing (it waits or is held by STOP, or IDLE-fills) or a
    source is held by STOP."""
    kinds = set()
    wires = [port.wire for port in circuit.ports]
    if not all(wire._forward for wire in wires) or any(
        adapter._tx and adapter.wire_out._stop_at_sender
        for adapter in circuit.adapters
    ):
        kinds.add("frozen")
    wires += [adapter.wire_in for adapter in circuit.adapters]
    for wire in wires:
        if wire is not None and wire._forward:
            idle = wire._forward[0][1].kind is FlitKind.IDLE
            kinds.add("idle_fill" if idle else "streaming")
    return kinds


def test_generated_scenarios_agree(monkeypatch):
    spans = []
    beside = []
    sleep, tick_active = FlitNetwork._sleep, FlitNetwork._tick_active

    def counting_sleep(net, circuit, stall):
        spans.append(_span_kinds(circuit))
        sleep(net, circuit, stall)

    def counting_tick(net):
        # A tick executed while some circuit sleeps: its span runs beside
        # circuits that tick.
        if any(circuit.asleep for _end, _seq, circuit in net._sleepers):
            beside.append(net.now + 1)
        return tick_active(net)

    monkeypatch.setattr(FlitNetwork, "_sleep", counting_sleep)
    monkeypatch.setattr(FlitNetwork, "_tick_active", counting_tick)
    rng = random.Random(SEED)
    overflowed = streamed = frozen = idle_fill = asleep_beside = 0
    gc.collect()
    gc.disable()
    try:
        for index in range(COUNT):
            scenario = _draw(rng)
            dense = _run(scenario, "dense")
            del spans[:], beside[:]
            active = _run(scenario, "active")
            assert _pins(*dense) == _pins(*active), (index, scenario)
            assert dense[0]._progress_events == active[0]._progress_events
            streamed += any("streaming" in kinds for kinds in spans)
            frozen += any("frozen" in kinds for kinds in spans)
            idle_fill += any("idle_fill" in kinds for kinds in spans)
            asleep_beside += bool(beside)
            net = dense[0]
            overflowed += any(
                port.slack.overflows
                for switch in net.switches.values() for port in switch.inputs
            )
            net.close()
            active[0].close()
            del dense, active, net
            leaked = gc.collect()
            assert leaked == 0, (index, scenario, leaked)
    finally:
        gc.enable()
    # The draw covers both edges: slack overflows and streaming spans,
    # the spans with frozen components and with IDLE fill, and circuits
    # asleep while others tick (24, 72, 52, 14 and 58 of the 80
    # scenarios at seed 1).
    assert overflowed >= 5 and streamed >= 20, (overflowed, streamed)
    assert frozen >= 25 and idle_fill >= 7, (frozen, idle_fill)
    assert asleep_beside >= 40, asleep_beside


def _corrupt_multicast_port(engine):
    """Slack overflows on 2-tick wires cut a multicast header: a route
    byte then names a port the switch does not have."""
    topo = ring(6)
    h = topo.hosts
    net = FlitNetwork(topo, engine=engine, seed=4, mode="idle_fill",
                      slack_capacity=8, wire_delay=2)
    net.send_multicast(h[3], [h[2], h[4], h[0], h[5]], 40, start_delay=36)
    net.send_multicast(h[5], [h[0], h[1]], 2, start_delay=86)
    net.send_unicast(h[3], h[2], 40, start_delay=150)
    net.send_unicast(h[1], h[5], 400, start_delay=66)
    net.send_unicast(h[2], h[5], 1, start_delay=22)
    net.send_multicast(h[4], [h[2], h[0], h[1], h[3], h[5]], 400, start_delay=60)
    net.send_unicast(h[4], h[5], 2, start_delay=65)
    return net, net.run(max_ticks=20_000, quiet_limit=1_500,
                        raise_on_deadlock=False)


def _corrupt_duplicate_branch(engine):
    """Slack overflows on 3-tick wires cut a multicast header so that two
    of its branches name the same output."""
    topo = torus(4, 4)
    h = topo.hosts
    net = FlitNetwork(topo, engine=engine, seed=1, mode="interrupt",
                      slack_capacity=4, wire_delay=3)
    net.send_multicast(h[14], [h[2], h[13], h[7], h[10]], 400, start_delay=11)
    net.send_multicast(h[9], [h[12], h[4]], 40, start_delay=127)
    net.send_unicast(h[5], h[2], 400, start_delay=149)
    net.send_unicast(h[15], h[9], 1, start_delay=141)
    net.send_unicast(h[15], h[1], 400, start_delay=48)
    net.send_unicast(h[0], h[1], 1, start_delay=35)
    return net, net.run(max_ticks=20_000, quiet_limit=1_500,
                        raise_on_deadlock=False)


@pytest.mark.parametrize(
    "scenario", [_corrupt_multicast_port, _corrupt_duplicate_branch]
)
def test_corrupt_header_loses_the_worm(scenario):
    pins = {}
    for engine in ("dense", "active"):
        net, status = scenario(engine)
        assert status in ("delivered", "deadlock", "timeout")
        assert net.worms_lost >= 1
        pins[engine] = _pins(net, status)
    assert pins["dense"] == pins["active"]

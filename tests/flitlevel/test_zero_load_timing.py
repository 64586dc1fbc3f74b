"""Zero-load unicast latency of the flit engine, derived from the wire
and switch rules rather than from pinned timelines.

A lone unicast queued at tick 0 on an idle fabric, with a payload of
``p`` bytes, ``s`` switches on its route and wire delay ``d``, is
delivered (its tail reaches the sink adapter) at tick

    p + (s + 1) * d + 2 * s

Each term, from the rules the per-byte steps apply:

* The worm is ``s`` route bytes (one per switch) and ``p`` payload flits
  (``p - 1`` DATA and the TAIL).  A worm queued at tick 0 is first ticked
  in tick 1, and the source pushes one flit per tick with GO in effect,
  so flit ``k`` leaves the source at tick ``1 + k`` and the tail, flit
  ``s + p - 1``, at tick ``s + p``.
* A wire delivers a flit ``d`` ticks after its push, and the receiver
  takes it in that tick's input phase.  The route has ``s + 1`` wires
  (source to the first switch, ``s - 1`` between switches, the last
  switch to the sink): ``(s + 1) * d``.
* A switch strips its route byte in the tick it arrives (the idle input
  reads it in the output phase), requests and is granted the free output
  the next tick, and streams from the tick after: one flit a tick, each
  taken from the front of the slack buffer.  While the header took those
  two ticks the next flit arrived, so every flit the switch forwards, the
  tail included, waits one tick in slack: ``s`` ticks over the route.
  Slack never reaches its STOP mark (one flit waits), so nothing stalls.

Sum: ``s + p`` (the tail leaves the source) ``+ (s + 1) * d + s``.  Both
engines must agree with it at every lane count, since a lone worm takes
lane 0 everywhere.  This is the independent guard for a change to which
ticks the active engine executes; the golden pins say only that nothing
moved.
"""

from __future__ import annotations

import pytest

from repro.net import butterfly, line, torus
from repro.net.flitlevel import FlitNetwork

ENGINES = ("active", "dense")
LANES = (1, 2, 4)


def zero_load_latency(payload: int, switches: int, delay: int) -> int:
    return payload + (switches + 1) * delay + 2 * switches


def _delivered_at(topo, src, dst, payload, delay, lanes, engine):
    net = FlitNetwork(topo, wire_delay=delay, lanes=lanes, engine=engine)
    wid = net.send_unicast(src, dst, payload_bytes=payload)
    assert net.run(max_ticks=10_000) == "delivered"
    return net.records[wid].delivered_at[dst]


def _switches_on_route(topo, src, dst) -> int:
    # One hop per wire: host to switch, between switches, switch to host.
    return len(FlitNetwork(topo).routing.route(src, dst)) - 1


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("switches", [1, 2, 3, 5, 7])
def test_line_unicast_zero_load_latency(engine, lanes, switches):
    if switches == 1:
        topo = line(1, hosts_per_switch=2)
    else:
        topo = line(switches)
    src, dst = topo.hosts[0], topo.hosts[-1]
    assert _switches_on_route(topo, src, dst) == switches
    for delay in (1, 2, 3):
        for payload in (1, 16, 64, 200):
            got = _delivered_at(topo, src, dst, payload, delay, lanes, engine)
            assert got == zero_load_latency(payload, switches, delay), (
                payload, delay,
            )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("build", [
    pytest.param(lambda: torus(4, 4), id="torus4x4"),
    pytest.param(lambda: butterfly(k=2, n=4), id="fly2x4"),
])
def test_fabric_routes_zero_load_latency(engine, build):
    topo = build()
    hosts = topo.hosts
    seen = set()
    for dst in hosts[1:]:
        switches = _switches_on_route(topo, hosts[0], dst)
        if switches in seen:
            continue
        seen.add(switches)
        for delay, payload in ((1, 64), (3, 16)):
            got = _delivered_at(topo, hosts[0], dst, payload, delay, 2, engine)
            assert got == zero_load_latency(payload, switches, delay), (
                dst, switches, delay,
            )
    assert len(seen) >= 3 and min(seen) >= 2, sorted(seen)

"""Construction on first touch.

The active engine builds a switch (ports, slack buffers, lane groups and
its links' wires) only when traffic reaches it; the dense oracle builds
every switch up front through the same routine.  The 4-lane 2-ary 8-fly
is the ``paper_flitlevel`` grid's butterfly: built eagerly it has 1,024
switches and 14,592 switch input ports.
"""

import gc

import pytest

from repro.net import butterfly
from repro.net.flitlevel import FlitNetwork
from repro.net.updown import UpDownRouting
from repro.obs import Observability


@pytest.fixture(scope="module")
def fly8():
    topo = butterfly(k=2, n=8)
    return topo, UpDownRouting(topo)


def _built_ports(net):
    return sum(len(s.inputs) for s in net._built_switches.values())


def test_one_unicast_builds_only_its_route(fly8):
    topo, routing = fly8
    net = FlitNetwork(topo, routing=routing, lanes=4)
    assert not net._built_switches
    hosts = topo.hosts
    net.send_unicast(hosts[0], hosts[-1], payload_bytes=64)
    assert net.run() == "delivered"
    assert len(net._built_switches) == 8
    assert _built_ports(net) == 114


def test_dense_builds_every_switch(fly8):
    topo, routing = fly8
    net = FlitNetwork(topo, routing=routing, lanes=4, engine="dense")
    assert len(net._built_switches) == 1024
    assert _built_ports(net) == 14_592


def test_construction_adds_few_gc_objects(fly8):
    # A bound, not a pin: the count differs across Python versions.  The
    # eager build added ~190,000.
    topo, routing = fly8
    gc.collect()
    before = len(gc.get_objects())
    net = FlitNetwork(topo, routing=routing, lanes=4)
    added = len(gc.get_objects()) - before
    assert not net._built_switches
    assert added < 10_000


def test_switches_lists_every_switch_and_reading_builds():
    topo = butterfly(k=2, n=5)
    net = FlitNetwork(topo)
    assert list(net.switches) == topo.switches
    assert len(net.switches) == 80
    sid = topo.switches[7]
    assert sid in net.switches
    assert topo.hosts[0] not in net.switches
    assert not net._built_switches  # iterating keys and membership build nothing
    switch = net.switches[sid]
    assert switch.node_id == sid
    assert list(net._built_switches) == [sid]
    assert net.switches[sid] is switch
    with pytest.raises(KeyError):
        net.switches[topo.hosts[0]]


def _sparse_run(engine, obs=None):
    topo = butterfly(k=2, n=5)
    net = FlitNetwork(topo, lanes=2, engine=engine, obs=obs)
    hosts = topo.hosts
    net.send_multicast(hosts[0], [hosts[-1], hosts[-9]], payload_bytes=48)
    net.send_unicast(hosts[5], hosts[-3], payload_bytes=64, start_delay=4)
    assert net.run() == "delivered"
    return topo, net


def test_snapshot_has_one_link_gauge_per_topology_link():
    obs = Observability(tracer=None, kernel=False)
    topo, net = _sparse_run("active", obs)
    built = set(net._built_links)
    assert 0 < len(built) < len(topo.links)
    obs.snapshot_flitnet(net)
    rows = obs.metrics.snapshot()["metrics"]
    links = sorted(int(r["tags"]["link"]) for r in rows if r["name"] == "link.flits")
    assert links == [link.id for link in topo.links]
    assert set(net._built_links) == built  # a snapshot reads, never builds
    flits = {
        int(r["tags"]["link"]): r["value"]
        for r in rows if r["name"] == "link.flits"
    }
    assert all(flits[lid] == 0 for lid in range(len(topo.links)) if lid not in built)
    assert sum(flits.values()) > 0


def test_wire_counts_match_the_dense_build():
    topo, active = _sparse_run("active")
    _, dense = _sparse_run("dense")
    for link in topo.links:
        assert active.wire_counts(link.id) == dense.wire_counts(link.id)
    host_link = topo.host_link(topo.hosts[0]).id
    assert len(active.wire_counts(host_link)) == 2
    unbuilt = next(
        l.id for l in topo.links
        if l.id not in active._built_links
        and topo.node(l.a).is_switch and topo.node(l.b).is_switch
    )
    assert active.wire_counts(unbuilt) == [(0, 0)] * 4  # two lanes
    assert unbuilt not in active._built_links

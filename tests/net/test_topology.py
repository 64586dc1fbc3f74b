"""Tests for topology construction and the paper's test networks."""

import math

import pytest

from repro.net import (
    Topology,
    bidirectional_shufflenet,
    line,
    mesh,
    myrinet_testbed,
    random_irregular,
    ring,
    star,
    torus,
)
from repro.net.topology import fig3_topology


def test_add_switch_and_host():
    topo = Topology()
    s = topo.add_switch()
    h = topo.add_host(s)
    assert topo.node(s).is_switch
    assert topo.node(h).is_host
    assert topo.host_switch(h) == s
    assert len(topo.links) == 1


def test_host_cannot_attach_to_host():
    topo = Topology()
    s = topo.add_switch()
    h = topo.add_host(s)
    with pytest.raises(ValueError):
        topo.add_host(h)


def test_link_joins_switches_only():
    topo = Topology()
    s = topo.add_switch()
    h = topo.add_host(s)
    s2 = topo.add_switch()
    with pytest.raises(ValueError):
        topo.add_link(s, h)
    with pytest.raises(ValueError):
        topo.add_link(s2, s2)


def test_link_other_endpoint():
    topo = Topology()
    a, b = topo.add_switch(), topo.add_switch()
    link = topo.add_link(a, b)
    assert link.other(a) == b
    assert link.other(b) == a
    with pytest.raises(ValueError):
        link.other(99)


def test_neighbors_and_adjacency():
    topo = Topology()
    a, b, c = (topo.add_switch() for _ in range(3))
    topo.add_link(a, b)
    topo.add_link(a, c)
    peers = {peer for peer, _ in topo.neighbors(a)}
    assert peers == {b, c}
    assert len(topo.adjacent(a)) == 2


def test_crossbar_ports_follow_adjacency_and_track_structure():
    # A switch numbers its links in adjacency order, one port per lane
    # on a switch-to-switch link and one on a host link; the numbering
    # is held per lane count until a node or link is added, and a link
    # failure (liveness only) keeps it.
    topo = Topology()
    a, b = topo.add_switch(), topo.add_switch()
    ab = topo.add_link(a, b)
    host = topo.add_host(a)
    ports, width = topo.crossbar_ports(3)
    assert (ports[2 * ab.id], ports[2 * ab.id + 1]) == (0, 0)
    host_link = topo.host_link(host)
    assert ports[2 * host_link.id + (a != host_link.a)] == 3
    assert width == 4
    assert topo.crossbar_ports(3)[0] is ports
    topo.fail_link(ab.id)
    assert topo.crossbar_ports(3)[0] is ports
    assert topo.crossbar_ports(1) == (ports[:2] + [-1, 1], 2)
    c = topo.add_switch()
    bc = topo.add_link(b, c)
    ports, width = topo.crossbar_ports(3)
    assert ports[2 * bc.id] == 3 and width == 6


def test_hosts_sorted_by_id():
    topo = Topology()
    s = topo.add_switch()
    ids = [topo.add_host(s) for _ in range(5)]
    assert topo.hosts == sorted(ids)


def test_host_switch_rejects_switch():
    topo = Topology()
    s = topo.add_switch()
    with pytest.raises(ValueError):
        topo.host_switch(s)


def test_unknown_node_raises():
    topo = Topology()
    with pytest.raises(KeyError):
        topo.node(0)


def test_torus_8x8_shape():
    topo = torus(8, 8)
    assert len(topo.switches) == 64
    assert len(topo.hosts) == 64
    # 2 * 64 switch links (wraparound torus has 2N links) + 64 host links
    switch_links = [
        l
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert len(switch_links) == 128
    assert topo.is_connected()


def test_torus_degree_four():
    topo = torus(4, 4)
    for s in topo.switches:
        switch_neighbors = [
            peer for peer, _ in topo.neighbors(s) if topo.node(peer).is_switch
        ]
        assert len(switch_neighbors) == 4


def test_torus_2x2_no_duplicate_link_crash():
    topo = torus(2, 2)
    assert topo.is_connected()


def test_torus_invalid_dims():
    with pytest.raises(ValueError):
        torus(1, 8)


def test_mesh_no_wraparound():
    topo = mesh(3, 3)
    corner = topo.switches[0]
    switch_neighbors = [
        peer for peer, _ in topo.neighbors(corner) if topo.node(peer).is_switch
    ]
    assert len(switch_neighbors) == 2


def test_shufflenet_24_nodes():
    topo = bidirectional_shufflenet(p=2, k=3)
    assert len(topo.switches) == 24
    assert len(topo.hosts) == 24
    assert topo.is_connected()


def test_shufflenet_propagation_delay():
    topo = bidirectional_shufflenet(p=2, k=3, prop_delay=1000.0)
    switch_links = [
        l
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert all(l.prop_delay == 1000.0 for l in switch_links)


def test_shufflenet_invalid_params():
    with pytest.raises(ValueError):
        bidirectional_shufflenet(p=1, k=3)


def test_line_ring_star():
    assert len(line(5).switches) == 5
    assert len(ring(6).links) == 6 + 6  # ring links + host links
    topo = star(4)
    assert len(topo.switches) == 5
    assert topo.is_connected()


def test_ring_too_small():
    with pytest.raises(ValueError):
        ring(2)


def test_myrinet_testbed_shape():
    topo = myrinet_testbed()
    assert len(topo.switches) == 4
    assert len(topo.hosts) == 8
    assert topo.is_connected()
    # hosts spread evenly: two per switch
    per_switch = {}
    for h in topo.hosts:
        per_switch[topo.host_switch(h)] = per_switch.get(topo.host_switch(h), 0) + 1
    assert all(count == 2 for count in per_switch.values())


def test_random_irregular_connected_and_sized():
    topo = random_irregular(10, extra_links=3, seed=42)
    assert topo.is_connected()
    switch_links = [
        l
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert len(switch_links) == 9 + 3


def test_random_irregular_deterministic():
    a = random_irregular(8, extra_links=2, seed=7)
    b = random_irregular(8, extra_links=2, seed=7)
    assert [l.ends for l in a.links] == [l.ends for l in b.links]


def test_fig3_topology_has_crosslink():
    topo = fig3_topology()
    assert len(topo.switches) == 5
    assert len(topo.hosts) == 5
    assert topo.is_connected()


def test_disconnected_graph_detected():
    topo = Topology()
    topo.add_switch()
    topo.add_switch()
    assert not topo.is_connected()


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_prop_delay_must_be_finite_and_nonnegative(bad):
    # A NaN delay was accepted and stalled the worm level for ever; a
    # negative one failed only mid-run, at the first crossing.
    with pytest.raises(ValueError, match="prop_delay"):
        torus(2, 2, prop_delay=bad)
    topo = Topology()
    s0, s1 = topo.add_switch(), topo.add_switch()
    with pytest.raises(ValueError, match="prop_delay"):
        topo.add_link(s0, s1, bad)
    with pytest.raises(ValueError, match="prop_delay"):
        topo.add_host(s0, prop_delay=bad)
    # Nothing half-built is left behind.
    assert topo.links == [] and topo.hosts == []

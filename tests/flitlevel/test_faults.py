"""Flit-level fault hooks: cutting wires, expunging worms, reconfiguring."""

from repro.net import line, torus
from repro.net.flitlevel import FlitNetwork


def _fabric_links(topo):
    return [
        l.id
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]


def test_fail_link_destroys_in_flight_worm():
    topo = line(3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    wid = net.send_unicast(hosts[0], hosts[2], payload_bytes=500)
    for _ in range(40):
        net.tick()
    # The worm's flits are strung across the fabric; cut every fabric link
    # so whichever one carries it destroys it.
    lost = []
    for link_id in _fabric_links(topo):
        lost.extend(net.fail_link(link_id))
    assert wid in lost
    assert net.worms_lost == 1
    assert net.link_faults == len(_fabric_links(topo))
    assert wid not in net.records  # no retransmission: network-level loss
    assert not net.pending_worms()


def test_traffic_routes_around_dead_link():
    topo = torus(3, 3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    dead = _fabric_links(topo)[0]
    net.fail_link(dead)
    for i, src in enumerate(hosts):
        net.send_unicast(src, hosts[(i + 1) % len(hosts)], payload_bytes=30)
    assert net.run(max_ticks=60_000) == "delivered"


def test_repair_link_restores_service():
    topo = line(3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    dead = _fabric_links(topo)[0]
    net.fail_link(dead)  # line topology: this partitions the fabric
    net.repair_link(dead)
    wid = net.send_unicast(hosts[0], hosts[2], payload_bytes=50)
    assert net.run(max_ticks=20_000) == "delivered"
    assert hosts[2] in net.records[wid].delivered_at


def test_down_ports_refresh_on_tree_link_failure():
    topo = torus(3, 3)
    net = FlitNetwork(topo)
    dead = next(iter(net.routing.tree_links))
    net.fail_link(dead)
    assert dead not in net.routing.tree_links
    # No switch may keep a broadcast down-port on the dead link.
    inspected = 0
    link = topo.links[dead]
    for sid, switch in net.switches.items():
        if sid in (link.a, link.b):
            inspected += 1
            assert net._port_at(sid, link) not in switch.down_ports
    assert inspected >= 1
    # Broadcast still reaches every host over the new tree.
    src = topo.hosts[0]
    wid = net.send_broadcast(src, payload_bytes=40)
    assert net.run(max_ticks=60_000) == "delivered"
    expected = set(topo.hosts) - {src}
    assert set(net.records[wid].delivered_at) >= expected

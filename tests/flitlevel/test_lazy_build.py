"""Construction on first touch.

The active engine builds each part only when traffic reaches it: an
input port (with its slack buffer) when a flit is first pushed toward
it, an output port (with its wire) when a connection first selects it,
and a host adapter (with its two wires) when it is handed a worm or a
wire toward it is built.  The dense oracle builds everything up front
through the same routines.  The 4-lane 2-ary 8-fly is the
``paper_flitlevel`` grid's butterfly: built eagerly it has 1,024
switches, 14,592 switch input ports and 256 adapters.
"""

import gc

import pytest

from repro.net import butterfly
from repro.net.flitlevel import FlitNetwork
from repro.net.flitlevel import network as flitnet
from repro.net.flitlevel.crosscheck import _smoke_scenarios, crosscheck
from repro.net.flitlevel.switch import CrossbarSwitch
from repro.net.updown import UpDownRouting
from repro.obs import Observability
from repro.sweep.points import execute_point


@pytest.fixture(scope="module")
def fly8():
    topo = butterfly(k=2, n=8)
    return topo, UpDownRouting(topo)


def _built_ports(net):
    """``(input ports, output ports)`` built."""
    switches = net._built_switches.values()
    return (
        sum(p is not None for s in switches for p in s.inputs),
        sum(o is not None for s in switches for o in s.outputs),
    )


def _built_wires(net):
    return sum(w is not None for ws in net._built_links.values() for w in ws)


def test_one_unicast_builds_only_its_route(fly8):
    topo, routing = fly8
    net = FlitNetwork(topo, routing=routing, lanes=4)
    assert not net._built_switches and not net._built_adapters
    hosts = topo.hosts
    net.send_unicast(hosts[0], hosts[-1], payload_bytes=64)
    assert net.run() == "delivered"
    # The worm crosses 8 switches: one input and one output port each,
    # 9 links (7 between switches, 2 to hosts) and 2 adapters, each
    # built with both wires of its host link.
    assert len(net._built_switches) == 8
    assert _built_ports(net) == (8, 8)
    assert len(net._built_links) == 9
    assert _built_wires(net) == 7 + 2 * 2
    assert sorted(net._built_adapters) == [hosts[0], hosts[-1]]
    # The 8 switches have 114 port slots, all but those 8 left empty.
    assert sum(len(s.inputs) for s in net._built_switches.values()) == 114


def test_dense_builds_every_switch(fly8):
    topo, routing = fly8
    net = FlitNetwork(topo, routing=routing, lanes=4, engine="dense")
    assert len(net._built_switches) == 1024
    assert _built_ports(net) == (14_592, 14_592)
    assert len(net._built_adapters) == 256


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


def test_reading_a_switch_builds_it_whole():
    topo = butterfly(k=2, n=5)
    net = FlitNetwork(topo, lanes=2)
    hosts = topo.hosts
    net.send_unicast(hosts[0], hosts[-1], payload_bytes=48)
    assert net.run() == "delivered"
    partial = next(
        s for s in net._built_switches.values() if None in s.inputs
    )
    sid = partial.node_id
    assert net.switches[sid] is partial
    assert None not in partial.inputs and None not in partial.outputs
    for index, port in enumerate(partial.inputs):
        assert port.index == index and port.wire.receiver is port
        assert partial.outputs[index].index == index
    # Every wire of every link at the switch is built, and the ports the
    # worm used are the ones that carried it.
    for link in topo.adjacent(sid):
        assert None not in net._built_links[link.id]
    assert sum(o.sent_flits for o in partial.outputs) > 0


def test_vc_lanes_point_builds_only_its_endpoint_adapters(monkeypatch):
    seen = []
    close = flitnet.FlitNetwork.close

    def keep(net):
        seen.append((net, dict(net._built_adapters), {
            host for record in net.records.values()
            for host in [record.src, *record.dests]
        }))
        close(net)

    monkeypatch.setattr(flitnet.FlitNetwork, "close", keep)
    record = execute_point("vc_lanes", {
        "topology": "butterfly", "stages": 6, "lanes": 4,
        "mode": "idle_fill", "fanout": 4, "unicast_pairs": 6,
        "payload_bytes": 120, "seed": 3,
    })
    assert record["status"] == "delivered" and record["fanout"] == 4
    (net, built, endpoints), = seen
    # One multicast source, its 4 destinations and 6 unicast pairs: at
    # most 17 of the 2-ary 6-fly's 64 hosts.
    assert set(built) == endpoints and len(endpoints) <= 17
    assert len(net.adapters) == 64


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


@pytest.mark.parametrize("vc_policy", ["first_free", "round_robin"])
@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_lazy_lanes_scenario(monkeypatch, lanes, vc_policy):
    """The crosscheck's ``lazy_lanes`` scenario does what it is for on the
    active engine, and the engines agree on it."""
    scenario = _smoke_scenarios(lanes=lanes, vc_policy=vc_policy)["lazy_lanes"]
    assert crosscheck(scenario).ok
    faults = []
    beside_unbuilt = []
    fail_link = flitnet.FlitNetwork.fail_link
    repair_link = flitnet.FlitNetwork.repair_link
    pick_lane = CrossbarSwitch._pick_lane

    def fail(net, link_id):
        faults.append((link_id, link_id in net._built_links))
        return fail_link(net, link_id)

    def repair(net, link_id):
        faults.append((link_id, link_id in net._built_links))
        repair_link(net, link_id)

    def pick(switch, base, group):
        outputs = [switch.outputs[lane] for lane in group]
        if None in outputs and any(o is not None and o.busy for o in outputs):
            beside_unbuilt.append(switch.node_id)
        return pick_lane(switch, base, group)

    monkeypatch.setattr(flitnet.FlitNetwork, "fail_link", fail)
    monkeypatch.setattr(flitnet.FlitNetwork, "repair_link", repair)
    monkeypatch.setattr(CrossbarSwitch, "_pick_lane", pick)
    net, status = scenario("active")
    assert status == "delivered"
    # A switch-to-switch link was cut and repaired before any of its
    # wires existed, and the worm routed after the repair crossed it.
    (cut, built), (repaired, built_again) = faults
    assert cut == repaired and not built and not built_again
    link = net.topology.link(cut)
    assert link.a in net.switches and link.b in net.switches
    assert sum(carried for carried, _ in net.wire_counts(cut)) > 0
    if lanes > 1:
        # A header selected a lane while another lane of that link was
        # held and the rest were not built yet.
        assert beside_unbuilt
        assert sum(net.lane_counts()[0][1:]) > 0

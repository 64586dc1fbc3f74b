"""End-to-end tests for the flit-level network."""

import re

import pytest

from repro.net import line, torus
from repro.net.flitlevel import DeadlockDetected, FlitNetwork, MulticastMode
from repro.net.flitlevel.flits import worm_flits, FlitKind


def test_worm_flits_layout():
    flits = worm_flits(1, bytes([3, 4]), payload_bytes=5)
    kinds = [f.kind for f in flits]
    assert kinds[:2] == [FlitKind.ROUTE, FlitKind.ROUTE]
    assert kinds[2:6] == [FlitKind.DATA] * 4
    assert kinds[6] == FlitKind.TAIL
    assert len(flits) == 7


def test_worm_flits_needs_payload():
    with pytest.raises(ValueError):
        worm_flits(1, b"", payload_bytes=0)


def test_worm_payload_is_one_shared_flit():
    flits = worm_flits(1, bytes([3, 4]), payload_bytes=5)
    assert len({id(f) for f in flits[2:6]}) == 1
    assert len({id(f) for f in flits}) == 4  # two route bytes, data, tail


def test_retransmission_keeps_the_payload_shared():
    from repro.net.flitlevel.flits import retag_flits

    flits = worm_flits(1, bytes([3, 4]), payload_bytes=5, multicast=True)
    copy = retag_flits(flits, 9)
    assert [f.wid for f in copy] == [9] * 7
    assert [(f.kind, f.value, f.multicast, f.broadcast) for f in copy] == [
        (f.kind, f.value, f.multicast, f.broadcast) for f in flits
    ]
    assert len({id(f) for f in copy[2:6]}) == 1
    assert not {id(f) for f in copy} & {id(f) for f in flits}


def test_fig3_flush_allocates_one_payload_flit_per_worm(monkeypatch):
    """Figure 3 under scheme 3 at offsets (0, 5): the 400-byte unicast is
    flushed once and retransmitted.  Every worm, the retransmission
    included, carries one shared payload flit, so the run allocates fewer
    flits than one worm has bytes (1,280 with a flit per byte)."""
    from repro.core.switch_mcast import (
        SwitchScheme,
        build_switch_multicast_network,
    )
    from repro.net.flitlevel.flits import Flit
    from repro.net.topology import fig3_topology

    allocated = []
    init = Flit.__init__

    def counting_init(self, *args, **kwargs):
        allocated.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Flit, "__init__", counting_init)
    topology = fig3_topology()
    names = {topology.node(h).name: h for h in topology.hosts}
    net = build_switch_multicast_network(
        topology, SwitchScheme.S3_IDLE_FLUSH, seed=3
    )
    net.send_multicast(names["srcM"], [names["host_b"], names["host_c"]],
                       payload_bytes=400)
    net.send_unicast(names["host_y"], names["host_b"], payload_bytes=400,
                     start_delay=5)
    assert net.run(max_ticks=100_000, quiet_limit=3_000) == "delivered"
    assert net.flushes == 1
    (retransmitted,) = [r for r in net.records.values() if r.retransmissions]
    for record in net.records.values():
        payload = record.flits[-400:-1]
        assert len({id(f) for f in payload}) == 1
        assert payload[0].wid == record.wid
    assert retransmitted.flits[-1].kind is FlitKind.TAIL
    assert len(allocated) < 400


@pytest.mark.parametrize("engine", ["active", "dense"])
def test_idle_fill_allocates_one_flit_per_connection(monkeypatch, engine):
    """The base scheme's Figure 3 deadlock at offsets (1, 5): the blocked
    multicast IDLE-fills its free branch through the whole 3,000-tick
    quiet window.  The connection pushes one shared IDLE flit, and every
    wire and slack on that branch holds that one object."""
    from repro.core.switch_mcast import (
        SwitchScheme,
        build_switch_multicast_network,
    )
    from repro.net.flitlevel.flits import Flit
    from repro.net.topology import fig3_topology

    idles = []
    init = Flit.__init__

    def counting_init(self, kind, *args, **kwargs):
        if kind is FlitKind.IDLE:
            idles.append(1)
        init(self, kind, *args, **kwargs)

    monkeypatch.setattr(Flit, "__init__", counting_init)
    topology = fig3_topology()
    names = {topology.node(h).name: h for h in topology.hosts}
    net = build_switch_multicast_network(
        topology, SwitchScheme.BASE, seed=3, engine=engine
    )
    net.send_multicast(names["srcM"], [names["host_b"], names["host_c"]],
                       payload_bytes=400, start_delay=1)
    net.send_unicast(names["host_y"], names["host_b"], payload_bytes=400,
                     start_delay=5)
    assert net.run(quiet_limit=3_000, raise_on_deadlock=False) == "deadlock"
    assert len(idles) == 1
    in_flight = [
        flit
        for switch in net.switches.values()
        for port in switch.inputs
        for flit in [f for _, f in port.wire._forward] + list(port.slack._flits)
        if flit.kind is FlitKind.IDLE
    ]
    assert in_flight and len({id(flit) for flit in in_flight}) == 1


def test_unicast_delivery_and_latency():
    topo = line(3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    wid = net.send_unicast(hosts[0], hosts[2], payload_bytes=50)
    assert net.run() == "delivered"
    record = net.records[wid]
    # route + payload at 1 byte/tick across 4 wires: > 50 ticks
    assert record.delivered_at[hosts[2]] > 50
    assert record.injected_at is not None


def test_unicast_between_all_pairs():
    topo = torus(2, 3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    wids = []
    for i, src in enumerate(hosts):
        dst = hosts[(i + 1) % len(hosts)]
        wids.append(net.send_unicast(src, dst, payload_bytes=30))
    assert net.run(max_ticks=50_000) == "delivered"


def test_multicast_reaches_all_destinations():
    topo = torus(3, 3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    dests = [hosts[3], hosts[5], hosts[7], hosts[8]]
    wid = net.send_multicast(hosts[0], dests, payload_bytes=40)
    assert net.run(max_ticks=30_000) == "delivered"
    assert set(net.records[wid].delivered_at) == set(dests)


def test_multicast_single_destination_degenerates_to_unicast():
    topo = line(3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    wid = net.send_multicast(hosts[0], [hosts[2]], payload_bytes=30)
    assert net.run() == "delivered"
    assert set(net.records[wid].delivered_at) == {hosts[2]}


def test_multicast_empty_dests_rejected():
    topo = line(2)
    net = FlitNetwork(topo)
    with pytest.raises(ValueError):
        net.send_multicast(topo.hosts[0], [], payload_bytes=10)


# A unicast to its own source has no route byte: its first switch strips
# the DATA flits as leftovers of a flushed worm, and the run reported a
# protocol deadlock at tick 2,001.  A switch id as an endpoint failed with
# a bare KeyError from the adapter table.  Both are refused up front.
@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("endpoints,bad", [
    ("self", "both host"),
    ("switch_src", "source"),
    ("switch_dst", "destination"),
    ("unknown_dst", "destination"),
])
def test_unicast_endpoints_checked(engine, endpoints, bad):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine)
    host, switch = topo.hosts[4], topo.switches[0]
    src, dst = {
        "self": (host, host),
        "switch_src": (switch, host),
        "switch_dst": (host, switch),
        "unknown_dst": (host, 10_000),
    }[endpoints]
    named = src if bad == "source" else dst
    with pytest.raises(ValueError, match=rf"{bad}.*\b{named}\b"):
        net.send_unicast(src, dst, payload_bytes=40)
    assert not net.records and not net._actions
    assert net.run(max_ticks=5_000) == "delivered" and net.now == 1


# At the parent a switch id as a destination was queued and ended in a
# false deadlock at tick 2,001, a switch id as the source raised a bare
# KeyError, an unknown destination read "no legal route", and a repeated
# destination was recorded twice.  Each is refused up front, by name.
@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("endpoints", [
    "switch_dst", "switch_src", "unknown_dst", "repeated_dst", "self_dst",
])
def test_multicast_endpoints_checked(engine, endpoints):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine)
    host, other, switch = topo.hosts[4], topo.hosts[7], topo.switches[0]
    src, dests, expected = {
        "switch_dst": (host, [other, switch],
                       f"destination {switch} is not a host"),
        "switch_src": (switch, [host, other], f"source {switch} is not a host"),
        "unknown_dst": (host, [other, 10_000],
                        "destination 10000 is not a host"),
        "repeated_dst": (host, [other, other],
                         f"destination {other} is repeated"),
        "self_dst": (host, [other, host],
                     f"source {host} is also a destination"),
    }[endpoints]
    with pytest.raises(ValueError, match=rf"^multicast {expected}$"):
        net.send_multicast(src, dests, payload_bytes=40)
    assert not net.records and not net._actions
    assert net.run(max_ticks=5_000) == "delivered" and net.now == 1


def test_multicast_completion_set_by_slowest_branch():
    """Branches finish together at worm granularity: the last delivery
    defines the multicast completion (Section 3's slowest-path remark)."""
    topo = torus(3, 3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    near, far = hosts[1], hosts[8]
    wid = net.send_multicast(hosts[0], [near, far], payload_bytes=60)
    net.run(max_ticks=30_000)
    record = net.records[wid]
    assert record.delivered_at[near] <= record.delivered_at[far]


def test_broadcast_reaches_every_host():
    topo = torus(3, 3)
    for src in topo.hosts[:3]:
        net = FlitNetwork(topo)
        wid = net.send_broadcast(src, payload_bytes=30)
        assert net.run(max_ticks=30_000) == "delivered"
        assert set(net.records[wid].delivered_at) == set(topo.hosts)


def test_start_delay_defers_injection():
    topo = line(2)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    wid = net.send_unicast(hosts[0], hosts[1], payload_bytes=10, start_delay=500)
    net.run(max_ticks=5_000)
    assert net.records[wid].injected_at >= 500


def test_two_worms_share_a_channel_serially():
    topo = line(3)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    w1 = net.send_unicast(hosts[0], hosts[2], payload_bytes=100)
    w2 = net.send_unicast(hosts[1], hosts[2], payload_bytes=100, start_delay=5)
    assert net.run(max_ticks=10_000) == "delivered"
    t1 = net.records[w1].delivered_at[hosts[2]]
    t2 = net.records[w2].delivered_at[hosts[2]]
    # the host link serializes them: completions at least a worm apart
    assert abs(t2 - t1) >= 100


def test_backpressure_no_slack_overflow():
    """STOP/GO must prevent every slack-buffer overflow, even under heavy
    convergent load (the reliability the paper's Section 1 assumes)."""
    topo = torus(3, 3)
    net = FlitNetwork(topo, slack_capacity=16)
    hosts = topo.hosts
    for i, src in enumerate(hosts):
        if src != hosts[0]:
            net.send_unicast(src, hosts[0], payload_bytes=200, start_delay=i)
    assert net.run(max_ticks=100_000) == "delivered"
    for switch in net.switches.values():
        for port in switch.inputs:
            assert port.slack.overflows == 0


@pytest.mark.parametrize("mode", ["interupt", "base"])
def test_unknown_mode_rejected(mode):
    # "base" names a SwitchScheme, not a switch-level MulticastMode.
    with pytest.raises(ValueError, match="idle_fill, interrupt, idle_flush"):
        FlitNetwork(torus(2, 2), mode=mode)


# Rejected by the constructor, before any traffic: an empty backoff range
# used to surface as randrange's ValueError at the first scheme-3 flush,
# and a too-small slack buffer only when a switch got built.
@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("backoff", [(400, 200), (-1, 5)])
def test_bad_flush_backoff_rejected(engine, backoff):
    with pytest.raises(ValueError, match="flush_backoff"):
        FlitNetwork(torus(2, 2), flush_backoff=backoff, engine=engine)


@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("capacity", [1, 0])
def test_small_slack_capacity_rejected(engine, capacity):
    with pytest.raises(ValueError, match="slack_capacity"):
        FlitNetwork(torus(2, 2), slack_capacity=capacity, engine=engine)


# A wire_delay below 1 used to run as a 1-tick wire and a fractional one
# put flits due at fractional ticks (2.5 acted as 3); a threshold <= 0
# flagged every held port multicast-IDLE, so scheme 3 flushed every
# blocked unicast.
@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("name", ["wire_delay", "mc_idle_threshold"])
@pytest.mark.parametrize("value", [0, -3, 2.5, "2"])
def test_bad_wire_delay_and_idle_threshold_rejected(engine, name, value):
    with pytest.raises(ValueError, match=rf"{name}.*{value!r}"):
        FlitNetwork(torus(2, 2), engine=engine, **{name: value})


@pytest.mark.parametrize("engine", ["active", "dense"])
def test_boundary_construction_values_accepted(engine):
    net = FlitNetwork(torus(2, 2), slack_capacity=2, flush_backoff=(0, 0),
                      wire_delay=1, mc_idle_threshold=1, engine=engine)
    assert net.run(max_ticks=10) == "delivered"


# run() used to take any budget: a float max_ticks ended the active
# clock at 300.0 where dense read 300 (their timeline digests differ),
# and a quiet_limit <= 0 declared this healthy unicast deadlocked at
# tick 2.
@pytest.mark.parametrize("engine", ["active", "dense"])
@pytest.mark.parametrize("name,value", [
    ("max_ticks", 300.0), ("max_ticks", -1), ("max_ticks", "300"),
    ("max_ticks", None), ("quiet_limit", 0), ("quiet_limit", -5),
    ("quiet_limit", 2.5), ("quiet_limit", "600"),
])
def test_bad_run_budget_rejected(engine, name, value):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine)
    net.send_unicast(topo.hosts[0], topo.hosts[4], payload_bytes=50,
                     start_delay=500)
    budget = {"max_ticks": 1_000, "quiet_limit": None, name: value}
    with pytest.raises(ValueError, match=rf"{name}.*{re.escape(repr(value))}"):
        net.run(**budget)
    assert net.now == 0


@pytest.mark.parametrize("engine", ["active", "dense"])
def test_boundary_run_budget_accepted(engine):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine)
    net.send_unicast(topo.hosts[0], topo.hosts[4], payload_bytes=50)
    assert net.run(max_ticks=0) == "timeout" and net.now == 0
    assert net.run(quiet_limit=1, raise_on_deadlock=False) == "deadlock"
    assert net.now == 2
    assert net.run(max_ticks=1_000, quiet_limit=None) == "delivered"


@pytest.mark.parametrize("engine", ["active", "dense"])
def test_close_keeps_records_and_counters_readable(engine):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine)
    hosts = topo.hosts
    wid = net.send_multicast(hosts[0], [hosts[4], hosts[8]], payload_bytes=40)
    assert net.run() == "delivered"
    counts = [net.wire_counts(link.id) for link in topo.links]
    now, delivered = net.now, dict(net.records[wid].delivered_at)
    net.close()
    assert [net.wire_counts(link.id) for link in topo.links] == counts
    assert (net.now, net.records[wid].delivered_at) == (now, delivered)
    unbuilt = [s for s in topo.switches if s not in net._built_switches]
    if unbuilt:  # only the active engine leaves switches unbuilt
        with pytest.raises(RuntimeError, match="closed"):
            net.switches[unbuilt[0]]


def test_progress_signature_detects_quiescence():
    topo = line(2)
    net = FlitNetwork(topo)
    # no worms: run() returns immediately on first tick check
    assert net.run(max_ticks=100) == "delivered"


def test_deadlock_exception_carries_info():
    from repro.net.topology import fig3_topology

    topo = fig3_topology()
    names = {topo.node(h).name: h for h in topo.hosts}
    net = FlitNetwork(topo, mode=MulticastMode.IDLE_FILL, seed=3)
    net.send_multicast(
        names["srcM"], [names["host_b"], names["host_c"]], payload_bytes=400
    )
    net.send_unicast(
        names["host_y"], names["host_b"], payload_bytes=400, start_delay=5
    )
    with pytest.raises(DeadlockDetected) as exc:
        net.run(max_ticks=100_000, quiet_limit=3_000)
    assert exc.value.stuck


def test_wormhole_pipelining_latency():
    """Wormhole latency is path setup + length, NOT hops * length:
    the defining property of wormhole vs store-and-forward routing."""
    topo = line(5)
    net = FlitNetwork(topo)
    hosts = topo.hosts
    length = 200
    wid = net.send_unicast(hosts[0], hosts[4], payload_bytes=length)
    net.run(max_ticks=10_000)
    latency = net.records[wid].delivered_at[hosts[4]]
    hops = 6  # host + 4 switch-to-switch-ish wires + host side
    assert latency < 2 * length          # far below 6 * 200 store-and-forward
    assert latency >= length             # at least the transmission time

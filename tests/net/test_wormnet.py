"""Tests for the worm-level wormhole transfer engine."""

import math

import pytest

from repro.net import Topology, UpDownRouting, Worm, WormholeNetwork, line, torus
from repro.sim import Simulator, SimTrace


def _small_net(prop_delay=0.0, switch_latency=1.0, n=3):
    sim = Simulator()
    topo = Topology()
    switches = [topo.add_switch() for _ in range(n)]
    for a, b in zip(switches, switches[1:]):
        topo.add_link(a, b, prop_delay)
    hosts = [topo.add_host(s) for s in switches]
    net = WormholeNetwork(sim, topo, switch_latency=switch_latency)
    return sim, topo, net, hosts


def test_unblocked_latency_formula():
    """Latency = hops * (switch latency + prop) + length on an idle net."""
    sim, topo, net, hosts = _small_net(prop_delay=2.0, switch_latency=1.0)
    worm = Worm(source=hosts[0], dest=hosts[2], length=100)
    transfer = net.send(worm)
    sim.run()
    # route: h0->s0->s1->s2->h2 = 4 hops; prop delay applies to the two
    # switch-to-switch links only (host links are local adapter ports).
    assert transfer.head_time == pytest.approx(4 * 1.0 + 2 * 2.0)
    assert transfer.finish_time == pytest.approx(8.0 + 100)
    assert transfer.latency == pytest.approx(108.0)
    assert transfer.blocked_time == 0.0


def test_self_send_rejected():
    sim, topo, net, hosts = _small_net()
    with pytest.raises(ValueError):
        net.send(Worm(source=hosts[0], dest=hosts[0], length=10))


def test_head_arrived_fires_before_completed():
    sim, topo, net, hosts = _small_net()
    times = {}
    worm = Worm(source=hosts[0], dest=hosts[1], length=50)
    transfer = net.send(worm)
    transfer.head_arrived.callbacks.append(lambda ev: times.setdefault("head", sim.now))
    transfer.completed.callbacks.append(lambda ev: times.setdefault("done", sim.now))
    sim.run()
    assert times["head"] < times["done"]
    assert times["done"] - times["head"] == pytest.approx(50.0)


def test_receiver_callback_invoked():
    sim, topo, net, hosts = _small_net()
    received = []
    net.set_receiver(hosts[2], lambda worm, transfer: received.append(worm))
    net.send(Worm(source=hosts[0], dest=hosts[2], length=20))
    sim.run()
    assert len(received) == 1
    assert received[0].dest == hosts[2]


def test_head_watcher_invoked_at_head_time():
    sim, topo, net, hosts = _small_net()
    seen = []
    net.set_head_watcher(hosts[2], lambda worm, transfer: seen.append(sim.now))
    transfer = net.send(Worm(source=hosts[0], dest=hosts[2], length=20))
    sim.run()
    assert seen == [transfer.head_time]


def test_second_worm_blocks_on_shared_channel():
    """Two worms sharing a channel serialize; the second records block time."""
    sim, topo, net, hosts = _small_net()
    w1 = Worm(source=hosts[0], dest=hosts[2], length=200)
    w2 = Worm(source=hosts[1], dest=hosts[2], length=200)
    t1 = net.send(w1)
    t2_holder = []

    def late_sender():
        yield sim.timeout(5)  # strictly after w1 holds the shared channel
        t2_holder.append(net.send(w2))

    sim.process(late_sender())
    sim.run()
    t2 = t2_holder[0]
    assert t1.finish_time < t2.finish_time
    assert t2.blocked_time > 0
    assert t2.blocked_hops >= 1


def test_blocked_worm_holds_acquired_path():
    """While blocked, a worm keeps the channels it holds (backpressure)."""
    sim, topo, net, hosts = _small_net(n=4)
    # Long worm from h1 occupies s1->s2->s3 region; worm from h0 must wait,
    # and while waiting it holds its own injection channel.
    w1 = Worm(source=hosts[1], dest=hosts[3], length=500)
    w2 = Worm(source=hosts[0], dest=hosts[3], length=100)
    net.send(w1)
    net.send(w2)

    def probe():
        yield sim.timeout(20)
        # w2's head is blocked inside the network; its injection channel must
        # still be busy.
        assert net.injection_channel(hosts[0]).busy

    sim.process(probe())
    sim.run()


def test_channels_released_after_transfer():
    sim, topo, net, hosts = _small_net()
    net.send(Worm(source=hosts[0], dest=hosts[2], length=50))
    sim.run()
    assert all(not ch.busy for ch in net.channels)


def test_progressive_release_short_worm_long_links():
    """With 1000-byte-time links and a 100-byte worm, upstream channels free
    long before the tail reaches the destination (Figure 11 regime)."""
    sim, topo, net, hosts = _small_net(prop_delay=1000.0, n=4)
    transfer = net.send(Worm(source=hosts[0], dest=hosts[3], length=100))
    release_times = {}

    def watch():
        injection = net.injection_channel(hosts[0])
        while injection.busy or sim.now == 0:
            yield sim.timeout(10)
        release_times["injection"] = sim.now

    sim.process(watch())
    sim.run()
    # Head: 5 hops * 1 switch latency + 3 switch links * 1000 prop = 3005;
    # completion at 3105.  The injection channel frees when the tail passes
    # it (~101), far earlier than completion.
    assert transfer.finish_time == pytest.approx(5 * 1.0 + 3 * 1000.0 + 100)
    assert release_times["injection"] < 1500


def test_utilization_accounting():
    sim, topo, net, hosts = _small_net()
    net.send(Worm(source=hosts[0], dest=hosts[2], length=100))
    sim.run()
    channel = net.channel(topo.switches[0], topo.switches[1])
    assert channel.acquisitions == 1
    assert channel.busy_time > 0
    assert 0 < channel.utilization(sim.now) <= 1.0


def test_reset_stats_clears_counters():
    sim, topo, net, hosts = _small_net()
    net.send(Worm(source=hosts[0], dest=hosts[2], length=100))
    sim.run()
    net.reset_stats()
    assert net.delivered_worms == 0
    assert net.hop_latency.count == 0
    channel = net.channel(topo.switches[0], topo.switches[1])
    assert channel.busy_time == 0.0


def test_delivery_statistics():
    sim, topo, net, hosts = _small_net()
    for _ in range(3):
        net.send(Worm(source=hosts[0], dest=hosts[2], length=100))
    sim.run()
    assert net.delivered_worms == 3
    assert net.delivered_bytes == 300
    assert net.hop_latency.count == 3


def test_fifo_service_on_contended_channel():
    """Blocked worms are served in arrival order (the paper's fairness)."""
    sim, topo, net, hosts = _small_net()
    finish_order = []

    def sender(delay, tag, src):
        yield sim.timeout(delay)
        transfer = net.send(Worm(source=src, dest=hosts[2], length=100))
        yield transfer.completed
        finish_order.append(tag)

    sim.process(sender(0, "first", hosts[0]))
    sim.process(sender(5, "second", hosts[1]))
    sim.process(sender(10, "third", hosts[0]))
    sim.run()
    assert finish_order == ["first", "second", "third"]


def test_restricted_network_uses_tree_routes():
    from repro.net.topology import fig3_topology

    sim = Simulator()
    topo = fig3_topology()
    routing = UpDownRouting(topo, root=0)
    net = WormholeNetwork(sim, topo, routing=routing, restrict_to_tree=True)
    host_b = [h for h in topo.hosts if topo.node(h).name == "host_b"][0]
    host_c = [h for h in topo.hosts if topo.node(h).name == "host_c"][0]
    channels = net.route_channels(host_b, host_c)
    for channel in channels:
        assert not routing.is_crosslink(channel.link)


def test_mismatched_routing_rejected():
    sim = Simulator()
    topo_a = line(2)
    topo_b = line(2)
    routing_b = UpDownRouting(topo_b)
    with pytest.raises(ValueError):
        WormholeNetwork(sim, topo_a, routing=routing_b)


def test_torus_many_transfers_complete():
    sim = Simulator()
    topo = torus(4, 4)
    net = WormholeNetwork(sim, topo)
    hosts = topo.hosts
    transfers = []
    for i in range(50):
        src = hosts[i % len(hosts)]
        dst = hosts[(i * 7 + 3) % len(hosts)]
        if src == dst:
            continue
        transfers.append(net.send(Worm(source=src, dest=dst, length=100 + i)))
    sim.run()
    assert all(t.finish_time is not None for t in transfers)
    assert all(not ch.busy for ch in net.channels)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_switch_latency_must_be_finite_and_nonnegative(bad):
    # With NaN the worm never finished and sim.run() never returned.
    with pytest.raises(ValueError, match="switch_latency"):
        WormholeNetwork(Simulator(), torus(2, 2), switch_latency=bad)


def test_unsubscribed_transfers_enqueue_no_event():
    """A unicast run nobody waits on processes no Event entry: a
    transfer's events exist only once asked for."""
    trace = SimTrace()
    sim = Simulator(trace=trace)
    topo = torus(3, 3)
    net = WormholeNetwork(sim, topo)
    hosts = topo.hosts
    transfers = [
        net.send(Worm(source=hosts[i], dest=hosts[(i * 4 + 1) % 9], length=50))
        for i in range(9)
        if i != (i * 4 + 1) % 9
    ]
    sim.run()
    assert all(t.finish_time is not None for t in transfers)
    assert "Event" not in trace.by_type
    assert trace.by_type["_WormRun"] > 0


def test_events_asked_for_after_the_fact_are_processed():
    sim, topo, net, hosts = _small_net()
    transfer = net.send(Worm(source=hosts[0], dest=hosts[2], length=40))
    sim.run(until=transfer.start_time + 5)
    assert transfer.head_time is not None and transfer.finish_time is None
    assert transfer.head_arrived.processed
    assert not transfer.completed.triggered
    sim.run()
    assert transfer.completed.processed
    # A process that yields them resumes at once, without a queue entry.
    resumed = []

    def waiter():
        yield transfer.head_arrived
        yield transfer.completed
        resumed.append(sim.now)

    sim.process(waiter())
    now = sim.now
    sim.run()
    assert resumed == [now]


def test_dropped_worm_completes_but_its_head_never_arrives():
    sim, topo, net, hosts = _small_net()
    net.drop_filter = lambda worm: True
    transfer = net.send(Worm(source=hosts[0], dest=hosts[2], length=40))
    fired = []
    transfer.completed.callbacks.append(lambda ev: fired.append("done"))
    sim.run()
    assert transfer.dropped and fired == ["done"]
    assert transfer.completed.processed
    assert not transfer.head_arrived.triggered

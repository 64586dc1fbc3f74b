"""Cross-engine equivalence: byte-identical semantics.

The active-set engine must reproduce the dense polling loop exactly --
same per-worm injection and delivery ticks, same retransmission counts,
same final status -- across every multicast mode, with and without
tree-restricted routing, and under link fail/repair.  These tests run
each scenario under dense vs active and diff the canonical timelines
from :mod:`repro.net.flitlevel.crosscheck`.
"""

import pytest

from repro.core.switch_mcast import SwitchScheme, run_fig3_scenario
from repro.net import bidirectional_shufflenet, line, ring, torus
from repro.net.flitlevel import FlitNetwork, MulticastMode
from repro.net.flitlevel.crosscheck import _diff, _smoke_scenarios, crosscheck
from repro.sweep.points import execute_point

from .test_flit_golden import _fig3

#: Candidate engines checked against the dense baseline.
CANDIDATES = ["active"]


def _fabric_links(topo):
    return [
        l.id
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]


def _mixed_traffic(net, hosts):
    """Staggered unicast + multicast + broadcast load, fixed pattern."""
    for i, src in enumerate(hosts):
        net.send_unicast(
            src, hosts[(i + 3) % len(hosts)],
            payload_bytes=40 + 8 * (i % 4), start_delay=i * 17,
        )
    net.send_multicast(
        hosts[0], [hosts[2], hosts[5], hosts[7]],
        payload_bytes=120, start_delay=9,
    )
    net.send_multicast(
        hosts[4], [hosts[1], hosts[8]], payload_bytes=64, start_delay=300,
    )
    net.send_broadcast(hosts[6], payload_bytes=48, start_delay=1_200)


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("mode", list(MulticastMode))
@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_mixed_traffic_equivalent(mode, restrict, candidate, lanes):
    def scenario(engine):
        topo = torus(3, 3)
        net = FlitNetwork(
            topo, engine=engine, mode=mode, restrict_to_tree=restrict, seed=7,
            lanes=lanes,
        )
        _mixed_traffic(net, topo.hosts)
        status = net.run(max_ticks=80_000, quiet_limit=3_000,
                         raise_on_deadlock=False)
        return net, status

    report = crosscheck(scenario, engines=("dense", candidate))
    assert report.ok, report.describe()


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("scheme", list(SwitchScheme))
def test_fig3_scenario_equivalent(scheme, candidate):
    # mc_delay=0 / uc_delay=5 is the racing-injection offset that
    # deadlocks the base scheme and drives S3 through flush+retransmit.
    outcomes = {
        engine: run_fig3_scenario(scheme, mc_delay=0, uc_delay=5, engine=engine)
        for engine in ("dense", candidate)
    }
    assert outcomes["dense"] == outcomes[candidate]


@pytest.mark.parametrize("candidate", CANDIDATES)
def test_flush_retransmission_counts_equivalent(candidate):
    # Tight flush threshold + short backoff forces multiple flush cycles;
    # retransmission bookkeeping (new wid, killed set, requeue) must match.
    def scenario(engine):
        topo = torus(3, 3)
        net = FlitNetwork(
            topo, engine=engine, mode=MulticastMode.IDLE_FLUSH,
            mc_idle_threshold=16, flush_backoff=(40, 120), seed=13,
        )
        hosts = topo.hosts
        net.send_multicast(hosts[0], [hosts[3], hosts[6]], payload_bytes=600)
        for i in range(6):
            net.send_unicast(
                hosts[(i * 2) % len(hosts)], hosts[(i * 2 + 5) % len(hosts)],
                payload_bytes=200, start_delay=i * 3,
            )
        status = net.run(max_ticks=120_000, quiet_limit=3_000,
                         raise_on_deadlock=False)
        return net, status

    report = crosscheck(scenario, engines=("dense", candidate))
    assert report.ok, report.describe()
    assert report.dense["flushes"] == report.active["flushes"]


@pytest.mark.parametrize("candidate", CANDIDATES)
def test_fault_injection_equivalent(candidate):
    # Scripted fail/repair mid-flight: the expunge path (per-worm site
    # index in the active engine, full component scan in the dense one)
    # must destroy exactly the same worms at the same tick.
    def scenario(engine):
        topo = torus(3, 3)
        net = FlitNetwork(topo, engine=engine, seed=5)
        hosts = topo.hosts
        for i, src in enumerate(hosts):
            net.send_unicast(
                src, hosts[(i + 4) % len(hosts)], payload_bytes=400,
                start_delay=i * 7,
            )
        for _ in range(60):
            net.tick()
        dead = _fabric_links(topo)[0]
        net.fail_link(dead)
        for _ in range(40):
            net.tick()
        net.repair_link(dead)
        net.send_multicast(hosts[1], [hosts[5], hosts[8]], payload_bytes=80)
        status = net.run(max_ticks=80_000, quiet_limit=3_000,
                         raise_on_deadlock=False)
        return net, status

    report = crosscheck(scenario, engines=("dense", candidate))
    assert report.ok, report.describe()
    assert report.dense["worms_lost"] == report.active["worms_lost"]
    assert report.dense["link_faults"] == report.active["link_faults"]


@pytest.mark.parametrize("candidate", CANDIDATES)
def test_host_multicast_equivalent(candidate):
    def scenario(engine):
        topo = ring(6)
        net = FlitNetwork(topo, engine=engine, seed=3)
        hosts = topo.hosts
        net.create_host_group(1, hosts[:5])
        net.send_host_multicast(hosts[0], 1, payload_bytes=72)
        status = net.run(max_ticks=60_000)
        return net, status

    report = crosscheck(scenario, engines=("dense", candidate))
    assert report.ok, report.describe()


def test_quiet_limit_none_times_out_on_both_engines():
    # quiet_limit=None disables deadlock detection entirely: a genuinely
    # wedged run must return "timeout" at max_ticks on both engines.
    for engine in ("dense", "active"):
        out = run_fig3_scenario(
            SwitchScheme.BASE, mc_delay=0, uc_delay=5, engine=engine,
            max_ticks=20_000,
        )
        if out.status != "deadlock":
            pytest.skip("offset no longer deadlocks the base scheme")
    from repro.core.switch_mcast import build_switch_multicast_network
    from repro.net.topology import fig3_topology

    statuses = {}
    for engine in ("dense", "active"):
        # The Figure 3 race wedges the base scheme: with detection
        # disabled the run must grind to max_ticks and report "timeout".
        topology = fig3_topology()
        names = {topology.node(h).name: h for h in topology.hosts}
        net = build_switch_multicast_network(
            topology, SwitchScheme.BASE, seed=3, engine=engine,
        )
        net.send_multicast(
            names["srcM"], [names["host_b"], names["host_c"]],
            payload_bytes=400, start_delay=0,
        )
        net.send_unicast(
            names["host_y"], names["host_b"], payload_bytes=400, start_delay=5,
        )
        statuses[engine] = (
            net.run(max_ticks=15_000, quiet_limit=None), net.now,
        )
    assert all(st[0] == "timeout" for st in statuses.values())
    assert len(set(statuses.values())) == 1


def test_active_engine_fast_forwards_sparse_traffic():
    # Two sends separated by a long idle gap: the active engine must skip
    # the quiescent interval instead of ticking through it.
    results = {}
    for engine in ("dense", "active"):
        topo = ring(8)
        net = FlitNetwork(topo, engine=engine, seed=9)
        hosts = topo.hosts
        net.send_unicast(hosts[0], hosts[4], payload_bytes=60)
        net.send_unicast(hosts[2], hosts[6], payload_bytes=60,
                         start_delay=30_000)
        status = net.run(max_ticks=100_000)
        results[engine] = (status, net.now, net.ticks_executed)
    assert results["dense"][:2] == results["active"][:2]
    dense_ticks = results["dense"][2]
    active_ticks = results["active"][2]
    assert dense_ticks == results["dense"][1]  # dense ticks every tick
    # The ~30k-tick idle gap must be skipped, not executed.
    assert active_ticks < dense_ticks // 10


def test_fresh_network_has_nothing_active():
    # Nothing is in flight before the first enqueue, so construction wakes
    # nothing (and forces no no-op tick).
    net = FlitNetwork(torus(4, 4), lanes=4)
    assert net._n_active == 0
    assert not net._woken
    net.send_unicast(net.topology.hosts[0], net.topology.hosts[5])
    assert net._n_active == 1  # just the source adapter


#: InputPort.absorb calls for one 64-byte unicast across a 4-lane 4x4
#: torus on the active engine: only ports holding or receiving flits,
#: and only in the ticks it executes -- 28 of the run's 80, because the
#: worm's circuit sleeps through one steady streaming span of 52 ticks.
ONE_UNICAST_PORT_STEPS = 85
ONE_UNICAST_TICKS = 28


def test_active_engine_steps_only_live_ports(monkeypatch):
    """The active engine ticks an input port only while it is live: it
    moved in the previous tick, or it holds flits, a connection or a STOP
    latch, or a flit is on its wire.  Counted independently on the dense
    engine, which ticks every port every tick, over the ticks the active
    engine executes (it skips steady streaming spans)."""
    from repro.net.flitlevel.switch import CrossbarSwitch, InputPort

    def one_unicast(engine):
        topo = torus(4, 4)
        net = FlitNetwork(topo, lanes=4, engine=engine, seed=1)
        net.send_unicast(topo.hosts[0], topo.hosts[10], payload_bytes=64)
        return net

    moved = set()
    absorb, advance = InputPort.absorb, CrossbarSwitch._advance

    def counting_absorb(port, now):
        steps.append(port)
        if absorb(port, now):
            moved.add(port)
            return True
        return False

    def recording_advance(switch, port, now):
        if advance(switch, port, now):
            moved.add(port)
            return True
        return False

    executed = set()
    tick_active = FlitNetwork._tick_active

    def recording_tick(net):
        executed.add(net.now + 1)
        return tick_active(net)

    monkeypatch.setattr(InputPort, "absorb", counting_absorb)
    monkeypatch.setattr(CrossbarSwitch, "_advance", recording_advance)
    monkeypatch.setattr(FlitNetwork, "_tick_active", recording_tick)

    steps = []
    net = one_unicast("active")
    assert net.run() == "delivered"
    active_steps, active_now = len(steps), net.now
    assert len(executed) == net.ticks_executed == ONE_UNICAST_TICKS

    net = one_unicast("dense")
    ports = [p for s in net.switches.values() for p in s.inputs]
    live_sum = 0
    moved_before = set()
    while net._undelivered or net._actions:
        live = {p for p in ports if not p.quiescent()}
        if net.now + 1 in executed:
            live_sum += len(live | moved_before)
        moved.clear()
        net.tick()
        moved_before = set(moved)
    assert net.now == active_now == 80
    assert active_steps == live_sum == ONE_UNICAST_PORT_STEPS
    # The dense engine polls all 17 ports of all 16 switches every tick.
    assert len(ports) == 16 * 17


@pytest.mark.parametrize("candidate", CANDIDATES)
def test_sweep_point_kind_equivalent(candidate):
    records = {
        engine: execute_point(
            "fig3_offsets",
            {"scheme": "s3_idle_flush", "engine": engine,
             "mc_delays": 3, "uc_delays": 3, "max_ticks": 40_000},
        )
        for engine in ("dense", candidate)
    }
    dense = {k: v for k, v in records["dense"].items() if k != "engine"}
    cand = {k: v for k, v in records[candidate].items() if k != "engine"}
    assert dense == cand


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("lanes,vc_policy", [
    (1, "first_free"), (2, "first_free"), (2, "round_robin"),
    (4, "first_free"), (4, "round_robin"),
])
def test_saturated_shufflenet_equivalent(candidate, lanes, vc_policy):
    # All-hosts simultaneous load on the 24-node shufflenet: no idle gaps,
    # so the active engine's settle/wake machinery is exercised while the
    # fabric stays saturated.  Saturation is also where lane allocation
    # decisions pile up, so every (lanes, policy) pair runs here too.
    def scenario(engine):
        topo = bidirectional_shufflenet(2, 3)
        net = FlitNetwork(topo, engine=engine, seed=21,
                          lanes=lanes, vc_policy=vc_policy)
        hosts = topo.hosts
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 7) % len(hosts)],
                             payload_bytes=150)
        status = net.run(max_ticks=60_000)
        return net, status

    report = crosscheck(scenario, engines=("dense", candidate))
    assert report.ok, report.describe()


#: Ticks the active engine may execute on runs whose long blocked phase
#: holds ports waiting for a grant, ports and sources held by STOP, and a
#: multicast IDLE-filling its free branch, beside payload streams.  An
#: engine that skips only spans in which every component streams payload
#: executes 3,044, 489 and 2,188 of them.
@pytest.mark.parametrize("scenario,bound", [
    pytest.param(_fig3(SwitchScheme.BASE, 1, 5), 120, id="fig3_base_1_5"),
    pytest.param(_fig3(SwitchScheme.BASE, 1, 1), 200, id="fig3_base_1_1"),
    pytest.param(_smoke_scenarios()["long_wires"], 250, id="long_wires"),
])
def test_active_engine_skips_frozen_spans(scenario, bound):
    dense, dense_status = scenario("dense")
    active, status = scenario("active")
    assert (status, active.now) == (dense_status, dense.now)
    assert active.ticks_executed <= bound, active.ticks_executed


def test_staggered_circuits_sleep_beside_ticking_ones(monkeypatch):
    """On the staggered_circuits smoke scenario at one lane, the long
    unicast's circuit sleeps through steady spans while later worms'
    circuits tick beside it: ticks are executed while some circuit is
    asleep, and the run still matches dense.  Counted by wrapping the
    tick step, not through an engine option."""
    beside = []
    tick_active = FlitNetwork._tick_active

    def counting_tick(net):
        if any(circuit.asleep for _end, _seq, circuit in net._sleepers):
            beside.append(net.now + 1)
        return tick_active(net)

    monkeypatch.setattr(FlitNetwork, "_tick_active", counting_tick)
    report = crosscheck(_smoke_scenarios()["staggered_circuits"])
    assert report.ok, report.describe()
    assert len(beside) >= 50, len(beside)
    assert report.active_ticks < report.dense_ticks // 2


def test_crosscheck_diff_compares_leaf_types():
    # A float clock and an int clock compare equal, yet the records differ
    # (their timeline digests do): the report must not say "agree".
    assert _diff({"now": 300}, {"now": 300.0}) == [("now", 300, 300.0)]
    assert _diff([1, True], [1, 1]) == [("[1]", True, 1)]
    assert _diff({"a": [1, "x"]}, {"a": [1, "x"]}) == []

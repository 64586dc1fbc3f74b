"""Virtual channels: lane wiring, allocation policies, deadlock freedom.

The multi-lane fabric expands each switch-to-switch link into ``lanes``
full wire pairs (per-lane slack + STOP/GO credit); route bytes keep
addressing the physical link via its *base* port and the switch picks a
lane when it processes the header.  These tests pin down the wiring
invariants, both allocation policies, the lanes=1 identity, and the
paper's Figure 3 payoff: the hold-and-wait cycle that deadlocks the base
scheme on one lane dissolves when a second lane exists.
"""

import pytest

from repro.core.switch_mcast import SwitchScheme, run_fig3_scenario
from repro.net import bidirectional_shufflenet, butterfly, clos, torus
from repro.net.flitlevel import FlitNetwork
from repro.net.flitlevel.crosscheck import (
    crosscheck,
    timeline_digest,
    worm_timeline,
)

ENGINES = ("dense", "active")


# -- wiring ------------------------------------------------------------------


def test_lane_groups_expand_fabric_links_only():
    topo = torus(3, 3)
    lanes = 3
    net = FlitNetwork(topo, lanes=lanes)
    fabric = [
        l for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    host_links = [l for l in topo.links if l not in fabric]
    for link in fabric:
        assert len(net._link_wires[link.id]) == 2 * lanes
    for link in host_links:
        # Host-adapter links always carry a single lane.
        assert len(net._link_wires[link.id]) == 2
    # Every fabric endpoint registered one lane group of the right size,
    # keyed by its base port.
    for switch in net.switches.values():
        for base, group in switch.lane_groups.items():
            assert group[0] == base
            assert len(group) == lanes
            assert group == list(range(base, base + lanes))


def test_lanes_1_registers_no_groups():
    net = FlitNetwork(torus(3, 3), lanes=1)
    assert all(not s.lane_groups for s in net.switches.values())


def test_invalid_lane_config_raises():
    with pytest.raises(ValueError):
        FlitNetwork(torus(2, 2), lanes=0)
    with pytest.raises(ValueError):
        FlitNetwork(torus(2, 2), lanes=2.5)
    with pytest.raises(ValueError):
        FlitNetwork(torus(2, 2), vc_policy="random")


def test_lane_expansion_respects_route_byte_limit():
    # 85 lanes x 4 fabric links on a torus switch put the fourth lane
    # group's base port at 255 = the END-marker route byte: the base
    # port of that group would collide with the sentinels, so
    # construction must raise instead of silently mis-routing.
    with pytest.raises(ValueError, match="route-byte"):
        FlitNetwork(torus(3, 3), lanes=85)


# -- allocation policies -----------------------------------------------------


def _occupy(switch, port):
    switch.outputs[port].holder = object()


def test_first_free_picks_first_idle_lane():
    net = FlitNetwork(torus(3, 3), lanes=3, vc_policy="first_free")
    switch = next(
        s for s in net.switches.values() if s.lane_groups
    )
    base = next(iter(switch.lane_groups))
    assert switch._select_lane(base) == base
    _occupy(switch, base)
    assert switch._select_lane(base) == base + 1
    _occupy(switch, base + 1)
    assert switch._select_lane(base) == base + 2
    # All busy: fall back to the least-contended lane (ties -> lowest).
    _occupy(switch, base + 2)
    assert switch._select_lane(base) == base


def test_round_robin_rotates_across_lanes():
    net = FlitNetwork(torus(3, 3), lanes=3, vc_policy="round_robin")
    switch = next(s for s in net.switches.values() if s.lane_groups)
    base = next(iter(switch.lane_groups))
    picks = [switch._select_lane(base) for _ in range(6)]
    assert picks == [base, base + 1, base + 2] * 2


def test_select_lane_is_identity_off_group():
    net = FlitNetwork(torus(3, 3), lanes=2)
    switch = next(iter(net.switches.values()))
    # A port that is not a lane-group base (e.g. the host adapter port)
    # maps to itself.
    non_base = max(range(len(switch.outputs)))
    assert non_base not in switch.lane_groups
    assert switch._select_lane(non_base) == non_base


# -- lanes=1 identity and multi-lane determinism -----------------------------


def _drive(net, hosts):
    for i, src in enumerate(hosts):
        net.send_unicast(src, hosts[(i + 5) % len(hosts)],
                         payload_bytes=100, start_delay=i * 3)
    net.send_multicast(hosts[0], [hosts[3], hosts[6], hosts[9]],
                       payload_bytes=140)
    return net.run(max_ticks=80_000, raise_on_deadlock=False)


def test_lanes_1_is_byte_identical_to_default():
    digests = set()
    for kwargs in ({}, {"lanes": 1}, {"lanes": 1, "vc_policy": "round_robin"}):
        topo = bidirectional_shufflenet(2, 3)
        net = FlitNetwork(topo, seed=11, **kwargs)
        status = _drive(net, topo.hosts)
        digests.add(timeline_digest(worm_timeline(net, status)))
    assert len(digests) == 1


@pytest.mark.parametrize("topo_build", [
    lambda: clos(spines=4, leaves=8, hosts_per_leaf=2),
    lambda: butterfly(k=2, n=4),
])
@pytest.mark.parametrize("lanes", [2, 4])
def test_multistage_multilane_deterministic_across_engines(topo_build, lanes):
    def scenario(engine):
        topo = topo_build()
        net = FlitNetwork(topo, engine=engine, seed=17, lanes=lanes)
        status = _drive(net, topo.hosts)
        return net, status

    for candidate in ENGINES[1:]:
        report = crosscheck(scenario, engines=("dense", candidate))
        assert report.ok, report.describe()
    net, status = scenario("dense")
    assert status == "delivered"


@pytest.mark.parametrize("strategy", ["tree", "path"])
def test_multicast_strategies_deliver_on_multilane_fabric(strategy):
    topo = butterfly(k=2, n=4)
    net = FlitNetwork(topo, seed=5, lanes=2)
    hosts = topo.hosts
    net.send_multicast(hosts[0], [hosts[4], hosts[9], hosts[13]],
                       payload_bytes=90, strategy=strategy)
    assert net.run(max_ticks=60_000) == "delivered"


def test_unknown_multicast_strategy_raises():
    topo = torus(3, 3)
    net = FlitNetwork(topo)
    with pytest.raises(ValueError):
        net.send_multicast(topo.hosts[0], [topo.hosts[2]],
                           payload_bytes=8, strategy="caterpillar")


# -- deadlock freedom --------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_second_lane_breaks_fig3_deadlock(engine):
    # Figure 3's racing injections wedge the base IDLE-fill scheme in a
    # hold-and-wait cycle on a single-lane fabric; a second virtual
    # channel on the contended fabric link dissolves the cycle with no
    # scheme change.
    wedged = run_fig3_scenario(
        SwitchScheme.BASE, mc_delay=0, uc_delay=5, engine=engine, lanes=1,
    )
    assert wedged.status == "deadlock"
    freed = run_fig3_scenario(
        SwitchScheme.BASE, mc_delay=0, uc_delay=5, engine=engine, lanes=2,
    )
    assert freed.status == "delivered"


def test_more_lanes_finish_the_saturated_shufflenet_no_later():
    # The completion win is the point of the lanes: with every host of the
    # (2,3) shufflenet sending two rounds of back-to-back worms, blocked
    # worms slip onto free lanes, so four lanes finish no later than one.
    finish = {}
    for lanes in (1, 4):
        topo = bidirectional_shufflenet(2, 3)
        net = FlitNetwork(topo, engine="active", seed=21, lanes=lanes)
        hosts = topo.hosts
        for _ in range(2):
            for i, src in enumerate(hosts):
                net.send_unicast(
                    src, hosts[(i + 7) % len(hosts)], payload_bytes=120
                )
        assert net.run(max_ticks=400_000) == "delivered"
        finish[lanes] = net.now
    assert finish[4] <= finish[1], finish


# -- per-lane observability --------------------------------------------------


def test_snapshot_publishes_per_lane_gauges():
    from repro.obs import Observability

    obs = Observability(tracer=None, kernel=False)
    topo = bidirectional_shufflenet(2, 3)
    net = FlitNetwork(topo, lanes=2, seed=21, obs=obs)
    hosts = topo.hosts
    for i, src in enumerate(hosts):
        net.send_unicast(src, hosts[(i + 7) % len(hosts)], payload_bytes=150)
    net.run(max_ticks=60_000)
    obs.snapshot_flitnet(net)
    rows = [
        r for r in obs.metrics.snapshot()["metrics"]
        if r["name"] == "link.lane.flits"
    ]
    assert rows, "multi-lane snapshot must publish per-lane gauges"
    by_lane = {}
    for r in rows:
        by_lane.setdefault(r["tags"]["lane"], 0.0)
        by_lane[r["tags"]["lane"]] += r["value"]
    assert set(by_lane) == {"0", "1"}
    # Under saturation the allocator must actually spill onto lane 1.
    assert by_lane["1"] > 0
    # Per-lane totals decompose the per-link totals exactly.
    link_total = sum(
        r["value"] for r in obs.metrics.snapshot()["metrics"]
        if r["name"] == "link.flits" and len(net._link_wires[int(r["tags"]["link"])]) == 4
    )
    assert sum(by_lane.values()) == link_total


def test_snapshot_single_lane_has_no_lane_gauges():
    from repro.obs import Observability

    obs = Observability(tracer=None, kernel=False)
    topo = torus(2, 2)
    net = FlitNetwork(topo, lanes=1, seed=3, obs=obs)
    net.send_unicast(topo.hosts[0], topo.hosts[2], payload_bytes=40)
    net.run(max_ticks=20_000)
    obs.snapshot_flitnet(net)
    assert not any(
        r["name"].startswith("link.lane")
        for r in obs.metrics.snapshot()["metrics"]
    )


# -- sweep integration -------------------------------------------------------


def test_vc_lanes_point_kind_engine_agreement():
    from repro.sweep.points import execute_point

    records = {
        engine: execute_point("vc_lanes", {
            "topology": "clos", "lanes": 2, "engine": engine, "seed": 7,
        })
        for engine in ENGINES
    }
    digests = {r["digest"] for r in records.values()}
    assert len(digests) == 1
    rec = records["dense"]
    assert rec["status"] == "delivered"
    assert len(rec["lane_flits"]) == 2
    assert sum(rec["lane_flits"]) > 0


def test_vc_lanes_point_rejects_unknown_mode():
    # A misspelt scheme must not fall back to the base IDLE-fill scheme
    # under its own label: points arrive from outside through the serve
    # gateway.
    from repro.sweep.points import execute_point

    with pytest.raises(ValueError, match="unknown mode 'interupt'"):
        execute_point("vc_lanes", {
            "topology": "torus", "rows": 2, "cols": 2, "lanes": 1,
            "mode": "interupt",
        })

"""Tests for up/down routing: legality, determinism, deadlock freedom,
route identity across the ways routes are requested, and search cost."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RecoveryManager
from repro.net import (
    UpDownRouting,
    Worm,
    WormholeNetwork,
    benes,
    bidirectional_shufflenet,
    butterfly,
    check_deadlock_free,
    clos,
    line,
    mesh,
    random_irregular,
    ring,
    torus,
)
from repro.net.topology import Topology, fig3_topology
from repro.sim import Simulator


def _routing(topo, root=None):
    return UpDownRouting(topo, root=root)


def test_levels_from_root():
    topo = line(3)
    routing = _routing(topo, root=topo.switches[0])
    s0, s1, s2 = topo.switches
    assert routing.level[s0] == 0
    assert routing.level[s1] == 1
    assert routing.level[s2] == 2


def test_hosts_are_leaves():
    topo = line(3)
    routing = _routing(topo)
    for host in topo.hosts:
        assert routing.level[host] == routing.level[topo.host_switch(host)] + 1


def test_is_up_by_level_and_id():
    topo = ring(4)
    routing = _routing(topo, root=topo.switches[0])
    s = topo.switches
    # level tie between s[1] and s[3] (both distance 1): lower id is 'up'.
    assert routing.level[s[1]] == routing.level[s[3]] == 1
    assert routing.is_up(s[3], s[1])
    assert not routing.is_up(s[1], s[3])
    # towards the root is up
    assert routing.is_up(s[1], s[0])


def test_route_same_node_empty():
    topo = line(2)
    routing = _routing(topo)
    host = topo.hosts[0]
    assert routing.route(host, host) == []


def test_route_endpoints_and_connectivity():
    topo = torus(4, 4)
    routing = _routing(topo)
    hosts = topo.hosts
    hops = routing.route(hosts[0], hosts[5])
    assert hops[0][0] == hosts[0]
    assert hops[-1][1] == hosts[5]
    for (_, b, _), (a2, _, _) in zip(hops, hops[1:]):
        assert b == a2  # consecutive hops share a node


def test_route_nodes_contiguous():
    topo = torus(4, 4)
    routing = _routing(topo)
    hosts = topo.hosts
    nodes = routing.route_nodes(hosts[0], hosts[9])
    assert nodes[0] == hosts[0]
    assert nodes[-1] == hosts[9]
    for a, b in zip(nodes, nodes[1:]):
        assert any(peer == b for peer, _ in topo.neighbors(a))


def test_routes_obey_up_down_rule():
    topo = torus(4, 4)
    routing = _routing(topo)
    hosts = topo.hosts
    for src in hosts[:6]:
        for dst in hosts[:6]:
            if src == dst:
                continue
            assert routing.is_legal(routing.route_nodes(src, dst))


def test_route_deterministic():
    topo = torus(4, 4)
    a = _routing(topo)
    b = _routing(topo)
    hosts = topo.hosts
    for src, dst in [(hosts[0], hosts[7]), (hosts[3], hosts[12])]:
        assert a.route_nodes(src, dst) == b.route_nodes(src, dst)


def test_route_cached_copy_isolated():
    topo = line(3)
    routing = _routing(topo)
    hosts = topo.hosts
    first = routing.route(hosts[0], hosts[2])
    first.append("garbage")
    second = routing.route(hosts[0], hosts[2])
    assert second[-1] != "garbage"


def test_restrict_to_tree_avoids_crosslinks():
    topo = fig3_topology()
    routing = _routing(topo, root=0)  # A is the root
    crosslinks = [l for l in topo.links if routing.is_crosslink(l)]
    assert crosslinks, "fig3 must have a crosslink"
    hosts = topo.hosts
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            hops = routing.route(src, dst, restrict_to_tree=True)
            assert all(not routing.is_crosslink(link) for _, _, link in hops)


def test_unrestricted_uses_crosslink_when_shorter():
    topo = fig3_topology()
    routing = _routing(topo, root=0)
    # host_b (on E) to host_c (on D): direct via crosslink E-D if legal,
    # at minimum the unrestricted route is no longer than the restricted one.
    host_b = [h for h in topo.hosts if topo.node(h).name == "host_b"][0]
    host_c = [h for h in topo.hosts if topo.node(h).name == "host_c"][0]
    free = routing.route(host_b, host_c)
    tree = routing.route(host_b, host_c, restrict_to_tree=True)
    assert len(free) <= len(tree)


def test_spanning_tree_size():
    topo = torus(4, 4)
    routing = _routing(topo)
    # spanning tree over all nodes (switches + hosts): n-1 links
    assert len(routing.tree_links) == len(topo.nodes) - 1


def test_down_links_cover_tree_children():
    topo = line(3)
    routing = _routing(topo, root=topo.switches[0])
    root_down = routing.down_links(topo.switches[0])
    # the root's down links: towards s1 and towards its host
    assert len(root_down) == 2


def test_root_must_be_switch():
    topo = line(2)
    with pytest.raises(ValueError):
        UpDownRouting(topo, root=topo.hosts[0])


def test_disconnected_topology_rejected():
    topo = Topology()
    topo.add_switch()
    topo.add_switch()
    with pytest.raises(ValueError):
        UpDownRouting(topo)


def test_deadlock_free_torus():
    topo = torus(4, 4)
    routing = _routing(topo)
    assert check_deadlock_free(routing)


def test_deadlock_free_shufflenet():
    topo = bidirectional_shufflenet(2, 2)
    routing = _routing(topo)
    assert check_deadlock_free(routing)


def test_deadlock_free_with_all_roots():
    topo = mesh(3, 3)
    for root in topo.switches:
        routing = _routing(topo, root=root)
        assert check_deadlock_free(routing)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_random_topologies_deadlock_free(n, extra, seed):
    """Up/down routing yields an acyclic channel dependency graph on any
    connected topology -- the paper's core deadlock-freedom claim."""
    topo = random_irregular(n, extra_links=extra, seed=seed)
    routing = _routing(topo)
    assert check_deadlock_free(routing)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_routes_legal_and_reach(n, extra, seed):
    topo = random_irregular(n, extra_links=extra, seed=seed)
    routing = _routing(topo)
    hosts = topo.hosts
    for src in hosts[:4]:
        for dst in hosts[:4]:
            if src == dst:
                continue
            nodes = routing.route_nodes(src, dst)
            assert nodes[0] == src and nodes[-1] == dst
            assert routing.is_legal(nodes)


def test_hop_count_symmetric_length_on_line():
    topo = line(4)
    routing = _routing(topo)
    hosts = topo.hosts
    assert routing.hop_count(hosts[0], hosts[3]) == routing.hop_count(
        hosts[3], hosts[0]
    )


def test_up_down_longer_than_shortest_possible():
    """Up/down may inflate path length; it must never beat the true shortest
    path (sanity check of the search)."""
    import networkx as nx

    topo = torus(4, 4)
    routing = _routing(topo)
    graph = nx.Graph()
    for link in topo.links:
        graph.add_edge(link.a, link.b)
    hosts = topo.hosts
    for src in hosts[:5]:
        lengths = nx.single_source_shortest_path_length(graph, src)
        for dst in hosts[:5]:
            if src == dst:
                continue
            assert routing.hop_count(src, dst) >= lengths[dst]


def _access_link(topo, host):
    return topo.adjacent(host)[0]


def test_deadlock_free_default_skips_unreachable_host():
    """The default pairs are the live hosts': a dead host link leaves the
    live routing deadlock-free instead of raising "no legal route"."""
    topo = torus(4, 4)
    routing = _routing(topo)
    topo.fail_link(_access_link(topo, topo.hosts[3]).id)
    assert check_deadlock_free(routing)


def test_deadlock_free_explicit_unroutable_pair_raises():
    topo = torus(3, 3)
    routing = _routing(topo)
    dead = topo.hosts[4]
    topo.fail_link(_access_link(topo, dead).id)
    with pytest.raises(ValueError, match="no legal up/down route"):
        check_deadlock_free(routing, [(topo.hosts[0], dead)])


# -- route identity -----------------------------------------------------------

_UP, _DOWN = 0, 1


def _reference_route(routing, src, dst, restrict_to_tree):
    """The per-pair search, kept as the reference: BFS over (node, phase)
    states from ``src``, neighbors in id order, stopping at the first state
    that reaches ``dst``.

    Returns ``(hops, rank)`` -- ``rank`` counts the states discovered up to
    ``dst``'s, the order a multi-destination BFS finds its targets in -- or
    None when no legal route exists.
    """
    topo = routing.topology
    start = (src, _UP)
    prev = {}
    seen = {start}
    frontier = deque([start])
    while frontier:
        node, phase = frontier.popleft()
        if node not in routing.level:
            continue  # severed from the root's component
        for peer, link in sorted(topo.live_neighbors(node), key=lambda p: p[0]):
            up_hop = routing.is_up(node, peer)
            if restrict_to_tree and routing.is_crosslink(link):
                continue
            if phase == _DOWN and up_hop:
                continue
            state = (peer, _UP if up_hop else _DOWN)
            if state in seen:
                continue
            seen.add(state)
            prev[state] = ((node, phase), (node, peer, link))
            if peer == dst:
                hops = []
                while state != start:
                    state, hop = prev[state]
                    hops.append(hop)
                return tuple(reversed(hops)), len(seen)
            frontier.append(state)
    return None


def _assert_routes_match_reference(topo, restrict_to_tree, seed, warm=None):
    """``route_shared``, ``routes_from`` and ``multi_route`` agree with the
    reference on every ordered node pair; so does ``warm``, a routing whose
    caches were filled before the topology last changed."""
    nodes = [n.id for n in topo.nodes]
    ref_routing = UpDownRouting(topo)
    reference = {
        (src, dst): _reference_route(ref_routing, src, dst, restrict_to_tree)
        for src in nodes
        for dst in nodes
        if src != dst
    }
    rng = random.Random(seed)

    routing = UpDownRouting(topo)
    for (src, dst), expected in reference.items():
        if expected is None:
            with pytest.raises(ValueError):
                routing.route_shared(src, dst, restrict_to_tree)
        else:
            assert routing.route_shared(src, dst, restrict_to_tree) == expected[0]

    for routing in [UpDownRouting(topo)] + ([warm] if warm is not None else []):
        sources = list(nodes)
        rng.shuffle(sources)
        for src in sources:
            dsts = [d for d in nodes if d != src]
            rng.shuffle(dsts)
            # Part of the source's routes are cached before the rest miss.
            routing.routes_from(src, dsts[: len(dsts) // 3], restrict_to_tree)
            got = routing.routes_from(src, dsts, restrict_to_tree)
            expected = {
                d: reference[(src, d)][0]
                for d in dsts
                if reference[(src, d)] is not None
            }
            assert got == expected
            assert list(got) == [d for d in dsts if d in expected]

    routing = UpDownRouting(topo)
    for src in nodes:
        reachable = [d for d in nodes if d != src and reference[(src, d)]]
        unreachable = [d for d in nodes if d != src and not reference[(src, d)]]
        rng.shuffle(reachable)
        routes = routing.multi_route(src, reachable, restrict_to_tree)
        assert {d: tuple(hops) for d, hops in routes.items()} == {
            d: reference[(src, d)][0] for d in reachable
        }
        assert list(routes) == sorted(
            reachable, key=lambda d: reference[(src, d)][1]
        )
        if unreachable:
            with pytest.raises(ValueError):
                routing.multi_route(src, reachable + unreachable[:1], restrict_to_tree)


def _fail_tree_link_and_host_link(topo):
    """Fail a switch-to-switch link of the up/down tree and the last host's
    access link (so some routes change and some pairs have none)."""
    tree = UpDownRouting(topo).tree_links
    fabric = next(
        l
        for l in topo.links
        if l.id in tree and topo.node(l.a).is_switch and topo.node(l.b).is_switch
    )
    topo.fail_link(fabric.id)
    topo.fail_link(_access_link(topo, topo.hosts[-1]).id)


_TOPOLOGIES = {
    "torus": lambda: torus(3, 3),
    "bidirectional_shufflenet": lambda: bidirectional_shufflenet(2, 2),
    "clos": lambda: clos(2, 3, 2),
    "benes": lambda: benes(4),
    "butterfly": lambda: butterfly(2, 3),
}


@pytest.mark.parametrize("restrict_to_tree", [False, True])
@pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
def test_routes_match_per_pair_reference(name, restrict_to_tree):
    topo = _TOPOLOGIES[name]()
    _assert_routes_match_reference(topo, restrict_to_tree, seed=1)
    warm = UpDownRouting(topo)
    nodes = [n.id for n in topo.nodes]
    for src in nodes:
        warm.routes_from(src, nodes, restrict_to_tree)
    _fail_tree_link_and_host_link(topo)
    _assert_routes_match_reference(topo, restrict_to_tree, seed=2, warm=warm)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
    victim=st.integers(min_value=0, max_value=10_000),
)
def test_property_routes_match_per_pair_reference(n, extra, seed, victim):
    for restrict_to_tree in (False, True):
        topo = random_irregular(n, extra_links=extra, seed=seed)
        _assert_routes_match_reference(topo, restrict_to_tree, seed)
        links = topo.links
        topo.fail_link(links[victim % len(links)].id)
        _assert_routes_match_reference(topo, restrict_to_tree, seed + 1)


def test_routes_from_includes_source_as_empty_route():
    topo = torus(3, 3)
    routing = _routing(topo)
    src, dst = topo.hosts[0], topo.hosts[1]
    assert routing.routes_from(src, [src, dst]) == {
        src: (),
        dst: routing.route_shared(src, dst),
    }


# -- search cost --------------------------------------------------------------


@pytest.fixture
def bfs_sources(monkeypatch):
    """Source of every route BFS the routing runs, in call order."""
    sources = []
    search = UpDownRouting._bfs

    def counted(self, src, targets, restrict_to_tree):
        sources.append(src)
        return search(self, src, targets, restrict_to_tree)

    monkeypatch.setattr(UpDownRouting, "_bfs", counted)
    return sources


def test_deadlock_check_runs_one_bfs_per_source(bfs_sources):
    """8x8 torus: 64 searches, not one per ordered host pair (4,032)."""
    topo = torus(8, 8)
    routing = _routing(topo)
    assert check_deadlock_free(routing)
    assert sorted(bfs_sources) == topo.hosts


def test_traffic_after_recovery_runs_one_bfs_per_sending_host(bfs_sources):
    sim = Simulator()
    topo = torus(4, 4)
    net = WormholeNetwork(sim, topo)
    recovery = RecoveryManager(sim, net)
    hosts = topo.hosts
    senders = hosts[:6]

    def traffic():
        transfers = [
            net.send(Worm(source=src, dest=dst, length=60))
            for _ in range(2)
            for src in senders
            for dst in hosts[4:12]
            if dst != src
        ]
        sim.run()
        assert not any(t.dropped for t in transfers)

    traffic()
    victim = next(
        l for l in topo.links if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    )
    topo.fail_link(victim.id)
    sim.run()
    assert recovery.reconfigurations == 1
    bfs_sources.clear()
    traffic()
    assert sorted(bfs_sources) == senders


def test_unreachable_host_leaves_sends_to_live_hosts_intact():
    """A source's first miss is to a dead endpoint: that worm orphans, and
    the source's sends to every live host still deliver."""
    sim = Simulator()
    topo = torus(3, 3)
    net = WormholeNetwork(sim, topo)
    src, dead = topo.hosts[0], topo.hosts[4]
    topo.fail_link(_access_link(topo, dead).id)
    orphan = net.send(Worm(source=src, dest=dead, length=60))
    live = [
        net.send(Worm(source=src, dest=dst, length=60))
        for dst in topo.live_hosts()
        if dst != src
    ]
    sim.run()
    assert orphan.dropped and net.orphaned_worms == 1
    assert len(live) == 7 and not any(t.dropped for t in live)


def test_partitioned_live_pair_still_raises():
    sim = Simulator()
    topo = Topology()
    s0, s1 = topo.add_switch(), topo.add_switch()
    bridge = topo.add_link(s0, s1)
    near, other = topo.add_host(s0), topo.add_host(s0)
    far = topo.add_host(s1)
    net = WormholeNetwork(sim, topo)
    topo.fail_link(bridge.id)
    with pytest.raises(ValueError):
        net.send(Worm(source=near, dest=far, length=60))
    with pytest.raises(ValueError):
        net.send(Worm(source=far, dest=near, length=60))
    transfer = net.send(Worm(source=near, dest=other, length=60))
    sim.run()
    assert not transfer.dropped

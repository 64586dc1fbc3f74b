"""Tests for single-BFS multicast route computation (multi_route)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import UpDownRouting, random_irregular, torus
from repro.net.topology import fig3_topology


def test_multi_route_reaches_each_destination():
    topo = torus(4, 4)
    routing = UpDownRouting(topo)
    hosts = topo.hosts
    dests = [hosts[5], hosts[9], hosts[14]]
    routes = routing.multi_route(hosts[0], dests)
    assert set(routes) == set(dests)
    for dst, hops in routes.items():
        assert hops[0][0] == hosts[0]
        assert hops[-1][1] == dst


def test_multi_route_matches_single_route_lengths():
    """multi_route paths are the per-pair routes, hop for hop."""
    topo = torus(4, 4)
    routing = UpDownRouting(topo)
    hosts = topo.hosts
    dests = hosts[1:8]
    routes = routing.multi_route(hosts[0], dests)
    for dst in dests:
        assert routes[dst] == routing.route(hosts[0], dst)


def test_multi_route_rejects_source_in_destinations():
    topo = torus(3, 3)
    routing = UpDownRouting(topo)
    hosts = topo.hosts
    with pytest.raises(ValueError):
        routing.multi_route(hosts[0], [hosts[0], hosts[1]])


def test_multi_route_restricted_to_tree():
    topo = fig3_topology()
    routing = UpDownRouting(topo, root=0)
    hosts = topo.hosts
    routes = routing.multi_route(hosts[0], hosts[1:3], restrict_to_tree=True)
    for hops in routes.values():
        assert all(not routing.is_crosslink(link) for _, _, link in hops)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=500),
    k=st.integers(min_value=1, max_value=4),
)
def test_property_multi_route_legal_and_treeable(n, extra, seed, k):
    """multi_route outputs legal up/down paths whose union is encodable as
    a source-route tree (no destination lies on another's path)."""
    from repro.core.route_encoding import route_tree_from_paths

    topo = random_irregular(n, extra_links=extra, seed=seed)
    routing = UpDownRouting(topo)
    hosts = topo.hosts
    src = hosts[0]
    dests = hosts[1 : 1 + min(k, len(hosts) - 1)]
    routes = routing.multi_route(src, dests)
    for dst, hops in routes.items():
        nodes = [hops[0][0]] + [b for _, b, _ in hops]
        assert routing.is_legal(nodes)
        assert nodes[-1] == dst
    # The per-switch port paths merge into a valid route tree.
    port_paths = []
    for dst in dests:
        hops = routes[dst]
        ports = []
        for a, _b, link in hops[1:]:
            ports.append(topo.adjacent(a).index(link))
        port_paths.append(ports)
    tree = route_tree_from_paths(port_paths)
    assert tree.leaf_count() == len(set(map(tuple, port_paths)))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=200),
    k=st.integers(min_value=2, max_value=6),
)
def test_property_multi_route_consistent_with_torus_routes(seed, k):
    """On the torus, multi_route legs are never longer than 2x the direct
    route (they come from the same layered BFS)."""
    topo = torus(4, 4)
    routing = UpDownRouting(topo)
    hosts = topo.hosts
    import random

    rng = random.Random(seed)
    src = rng.choice(hosts)
    dests = rng.sample([h for h in hosts if h != src], k)
    routes = routing.multi_route(src, dests)
    for dst in dests:
        assert len(routes[dst]) == routing.hop_count(src, dst)

"""Multistage interconnect builders: Clos, Benes, butterfly.

Structural invariants (stage/row naming, connectivity, expected counts),
deadlock-free up/down routing, the 1000+-switch scale points the VC
experiments run on, and the degenerate size / scale-limit guards (the
builders must *raise*, not silently wrap route-byte port numbers).
"""

import pytest

from repro.net import (
    UpDownRouting,
    benes,
    bidirectional_shufflenet,
    butterfly,
    check_deadlock_free,
    clos,
    torus,
)
from repro.net.topology import MAX_SWITCHES, ROUTE_PORT_LIMIT


def _stage_of(topo, sid):
    return int(topo.node(sid).name[1:].split(",")[0])


# -- structure ---------------------------------------------------------------


def test_clos_structure():
    topo = clos(spines=4, leaves=8, hosts_per_leaf=2)
    assert topo.name == "clos-4x8"
    assert len(topo.switches) == 12
    assert len(topo.hosts) == 16
    # Full bipartite fabric: every leaf reaches every spine.
    fabric = [
        l for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert len(fabric) == 4 * 8
    assert topo.is_connected()


def test_butterfly_structure():
    k, n = 2, 3
    topo = butterfly(k=k, n=n)
    rows = k ** (n - 1)
    assert topo.name == "butterfly-2ary3"
    assert len(topo.switches) == n * rows
    # Hosts on terminal stages only.
    assert len(topo.hosts) == 2 * rows
    fabric = [
        l for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert len(fabric) == (n - 1) * rows * k
    assert topo.is_connected()
    # Destination-tag wiring: stage-s links only touch stages s and s+1.
    for link in fabric:
        sa, sb = _stage_of(topo, link.a), _stage_of(topo, link.b)
        assert abs(sa - sb) == 1


def test_benes_structure():
    topo = benes(terminals=8)
    # m=3 -> 5 stages of 4 rows.
    assert topo.name == "benes-8"
    assert len(topo.switches) == 20
    assert len(topo.hosts) == 8
    assert topo.is_connected()
    # Every boundary carries one straight + one crossed link per row.
    fabric = [
        l for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    ]
    assert len(fabric) == 4 * 4 * 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: clos(spines=4, leaves=8, hosts_per_leaf=2),
        lambda: butterfly(k=2, n=4),
        lambda: benes(terminals=16),
    ],
)
def test_multistage_updown_deadlock_free(build):
    topo = build()
    routing = UpDownRouting(topo)
    assert check_deadlock_free(routing)


# -- 1000+-switch scale ------------------------------------------------------


def test_butterfly_scales_past_1000_switches():
    topo = butterfly(k=4, n=6)
    assert len(topo.switches) == 6 * 4**5  # 6144
    assert topo.is_connected()


def test_benes_scales_past_1000_switches():
    topo = benes(terminals=256)
    assert len(topo.switches) == 15 * 128  # 1920
    assert topo.is_connected()


def test_shufflenet_scales_past_1000_switches():
    topo = bidirectional_shufflenet(2, 8)
    assert len(topo.switches) == 8 * 256  # 2048
    assert topo.is_connected()


# -- degenerate sizes and scale limits ---------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: clos(spines=0, leaves=8),
        lambda: clos(spines=4, leaves=1),
        lambda: clos(spines=4, leaves=8, hosts_per_leaf=0),
        lambda: butterfly(k=1, n=3),
        lambda: butterfly(k=2, n=1),
        lambda: butterfly(k=2, n=3, hosts_per_switch=0),
        lambda: benes(terminals=6),  # not a power of two
        lambda: benes(terminals=2),
        lambda: benes(terminals=8, hosts_per_switch=0),
        lambda: bidirectional_shufflenet(1, 3),
        lambda: torus(1, 5),
    ],
)
def test_degenerate_sizes_raise(build):
    with pytest.raises(ValueError):
        build()


def test_port_limit_guard_raises_before_route_bytes_overflow():
    # A 300-leaf Clos would give spines degree 300 > 254: port numbers
    # would collide with the route-byte sentinels (0xFE/0xFF).
    with pytest.raises(ValueError, match="port limit"):
        clos(spines=4, leaves=ROUTE_PORT_LIMIT + 1)
    with pytest.raises(ValueError, match="port limit"):
        bidirectional_shufflenet(p=128, k=2)
    with pytest.raises(ValueError, match="port limit"):
        butterfly(k=130, n=2)


def test_switch_count_guard_raises():
    with pytest.raises(ValueError, match="MAX_SWITCHES"):
        torus(2000, 2000)
    with pytest.raises(ValueError, match="MAX_SWITCHES"):
        bidirectional_shufflenet(2, 20)
    assert MAX_SWITCHES >= 1_000_000

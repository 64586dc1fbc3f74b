"""Sweep points free themselves by reference counting.

Each worm-level runner closes the simulator, network, adapters and fault
plane it built once its record is built, and each flit-level point
(``fig3_offsets``, ``vc_lanes``) closes its ``FlitNetwork`` once the
outcome, the observability snapshot and the timeline digest are read.
So a finished point leaves no reference cycle behind and no cyclic
collection is needed to free it.  Each test runs one point kind with the
cyclic collector disabled, checks that the point ran no collection of its
own, then asks the collector how many unreachable objects the point
left.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.sweep.points import execute_point

_TORUS = {
    "topology": "torus", "rows": 4, "cols": 4,
    "group_count": 3, "group_size": 4,
    "warmup_deliveries": 40, "measure_deliveries": 150,
    "seed": 3,
}

POINTS = {
    "load_point/torus-hamiltonian": (
        "load_point", dict(_TORUS, scheme="hamiltonian-ct", load=0.08),
    ),
    "load_point/torus-tree": (
        "load_point", dict(_TORUS, scheme="tree-sf", load=0.08),
    ),
    "load_point/shufflenet": (
        "load_point",
        {
            "topology": "bidirectional_shufflenet", "p": 2, "k": 3,
            "prop_delay": 1000.0, "group_count": 4, "group_size": 6,
            "scheme": "tree", "load": 0.05, "multicast_fraction": 0.2,
            "warmup_deliveries": 40, "measure_deliveries": 150, "seed": 4,
        },
    ),
    "fault_campaign/cut-and-repair": (
        "fault_campaign",
        {
            "rows": 4, "cols": 4, "group_count": 3, "group_size": 4,
            "link_failures": 2, "downtime": 20_000.0,
            "warmup_time": 10_000.0, "measure_time": 60_000.0, "seed": 5,
        },
    ),
    "repair_campaign/drops-and-recv-fault": (
        "repair_campaign",
        {"drops": 3, "recv_faults": 1, "messages": 10, "seed": 6},
    ),
    "fig3_offsets/2x2": (
        "fig3_offsets", {"scheme": "base", "mc_delays": 2, "uc_delays": 2},
    ),
    # Offset (0, 5): the base scheme deadlocks with worms stuck in the
    # fabric, and scheme 3 flushes the unicast and retransmits it.
    "fig3_offsets/1x6-deadlock": (
        "fig3_offsets", {"scheme": "base", "mc_delays": 1, "uc_delays": 6},
    ),
    "fig3_offsets/1x6-flush": (
        "fig3_offsets",
        {"scheme": "s3_idle_flush", "mc_delays": 1, "uc_delays": 6},
    ),
    # Cut off at tick 300: the unicast flushed at tick 59 still waits for
    # its retransmission, scheduled for tick 416.
    "fig3_offsets/1x6-timeout": (
        "fig3_offsets",
        {"scheme": "s3_idle_flush", "mc_delays": 1, "uc_delays": 6,
         "max_ticks": 300},
    ),
    # Cut off at tick 844: cell (2, 2) is its race (1, 1) a tick later,
    # but cell (2, 3) would end on the budget once shifted from its race
    # (1, 2), so it runs directly.
    "fig3_offsets/3x4-budget": (
        "fig3_offsets",
        {"scheme": "base", "mc_delays": 3, "uc_delays": 4, "max_ticks": 844},
    ),
    "vc_lanes/butterfly-L2": (
        "vc_lanes",
        {"topology": "butterfly", "ary": 2, "stages": 4, "lanes": 2,
         "mode": "idle_flush", "seed": 2},
    ),
    "myrinet_throughput/all_send": (
        "myrinet_throughput",
        {
            "packet_size": 2048, "all_send": True,
            "warmup_us": 2_000.0, "measure_us": 20_000.0,
        },
    ),
}


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _unreachable_after(kind, params):
    """Collections one point ran itself, the unreachable objects it left,
    and their commonest types."""
    gc.collect()
    gc.disable()
    try:
        before = _collections()
        execute_point(kind, params)
        ran = _collections() - before
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return ran, found, kinds.most_common(8)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_point_frees_itself(name):
    kind, params = POINTS[name]
    execute_point(kind, params)  # imports and shared topology caches
    ran, found, kinds = _unreachable_after(kind, params)
    assert ran == 0, f"{name} ran {ran} cyclic collections itself"
    assert found == 0, f"{name} left {found} unreachable objects: {kinds}"

"""Byte-identity of partitioned runs across K, engines, and faults.

The contract under test is the whole point of :mod:`repro.par`: the
partition count is an *implementation detail*.  For every covered
scenario the merged timeline digest at K in {1, 2, 4} must equal the
sequential reference digest, and the merged observability snapshot must
be identical across K as well.
"""

import json

import pytest

from repro.net.flitlevel.crosscheck import (
    crosscheck_partitioned,
    timeline_digest,
    worm_timeline,
)
from repro.par import run_partitioned, run_sequential

#: Scenario -> engines worth the runtime.  fig3 covers deadlock status
#: reconstruction, mixed_torus covers multicast + staggered traffic,
#: saturated_shufflenet covers the stage-cut partitioner and bulk
#: streaming, bcast_torus_8 covers hardware-broadcast replication (the
#: traffic class of the headline 32x32 benchmark), and the two
#: boundary-fault scenarios cover mid-worm faults on cut links and on a
#: boundary switch.
_COVERED = [
    ("fig3_base", ("dense", "active")),
    ("fig3_s1", ("active",)),
    ("fig3_s2", ("active",)),
    ("mixed_torus", ("dense", "active")),
    ("saturated_shufflenet", ("active",)),
    ("bcast_torus_8", ("dense", "active")),
    ("torus_boundary_fault", ("dense", "active")),
    ("torus_boundary_node_fault", ("active",)),
]


@pytest.mark.parametrize(
    "name,engines", _COVERED, ids=[name for name, _ in _COVERED]
)
def test_digest_identical_across_partition_counts(name, engines):
    for engine in engines:
        net, status = run_sequential(name, engine)
        reference = timeline_digest(worm_timeline(net, status))
        for k in (1, 2, 4):
            result = run_partitioned(name, k, engine=engine)
            assert timeline_digest(result.timeline) == reference, (
                f"{name}/{engine}: K={k} timeline diverged from sequential"
            )


def test_crosscheck_partitioned_report():
    report = crosscheck_partitioned("mixed_torus", 2)
    assert report.ok, report.describe()
    assert report.engines == ("active/seq", "active/K=2")
    # Shards each tick the full window span, so executed ticks scale with
    # K while the timeline does not.
    assert report.candidate_ticks == 2 * report.baseline_ticks


def test_merged_obs_snapshot_is_k_invariant():
    snapshots = {}
    for k in (1, 2, 4):
        result = run_partitioned("mixed_torus", k, engine="active", obs=True)
        assert result.obs_snapshot is not None
        snapshots[k] = json.dumps(
            result.obs_snapshot, sort_keys=True, default=str
        )
    assert snapshots[1] == snapshots[2] == snapshots[4]


def test_merged_obs_counters_match_timeline():
    result = run_partitioned("mixed_torus", 2, engine="active", obs=True)
    metrics = {
        (entry["name"], tuple(sorted(entry["tags"].items()))): entry
        for entry in result.obs_snapshot["metrics"]
    }
    deliveries = metrics[("flit.deliveries", ())]
    assert deliveries["value"] == result.timeline["worm_deliveries"]
    injected = metrics[("flit.worm_injected", ())]
    assert injected["value"] == result.timeline["worms_injected"]
    latency = metrics[("flit.delivery_latency", ())]
    assert latency["count"] == result.timeline["worm_deliveries"]


def test_boundary_fault_loses_same_worms_at_every_k():
    per_k = {}
    for k in (1, 2, 4):
        result = run_partitioned("torus_boundary_fault", k, engine="active")
        per_k[k] = (
            result.timeline["worms_lost"],
            result.timeline["killed"],
            result.timeline["link_faults"],
        )
    assert per_k[1] == per_k[2] == per_k[4]
    assert per_k[1][0] >= 1  # the mid-worm cut-link fault must bite


def test_process_backend_matches_inline():
    for name in ("mixed_torus", "torus_boundary_node_fault"):
        inline = run_partitioned(name, 2, engine="active", backend="inline")
        proc = run_partitioned(name, 2, engine="active", backend="process")
        assert timeline_digest(proc.timeline) == timeline_digest(
            inline.timeline
        )

"""Worker replicas must derive randomness from the scenario seed through
``repro.sim.rng`` substreams -- never from process-local seeding.

Every shard builds a *full replica* of the network and its traffic; the
conservative protocol then relies on those replicas being bit-equal.  A
worker that seeded its own RNG (or let worm ids drift) would produce a
subtly different traffic schedule that only diverges under faults or
retransmission -- the worst kind of bug.  These tests pin the invariant
directly instead of waiting for a timeline mismatch to expose it.
"""

import repro.net.flitlevel.network as netmod
from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
from repro.par import get_scenario, run_partitioned, run_sequential
from repro.par.shard import ShardHarness, rebind_worm_ids
from repro.sim.rng import RandomStreams


def _schedule(net):
    """The build-time traffic schedule, bit-for-bit: every record's
    identity and payload plus the pending injection actions."""
    records = {
        wid: (record.src, tuple(sorted(record.dests)), record.payload_bytes)
        for wid, record in net.records.items()
    }
    actions = sorted((tick, kind) for tick, kind, _ in net._actions)
    return records, actions


def test_replicas_build_identical_schedules():
    scenario = get_scenario("mixed_torus")
    base = next(netmod._flit_worm_ids) + 1

    rebind_worm_ids(base)
    reference_net = scenario.build_net("active")
    reference = _schedule(reference_net)
    reference_rng = reference_net._rng._rng.getstate()

    for index in range(2):
        harness = ShardHarness(scenario, 2, index, "active", base)
        assert _schedule(harness.net) == reference
        # The network RNG substream is in the identical state too: no
        # replica consumed extra draws while building.
        assert harness.net._rng._rng.getstate() == reference_rng


def test_replica_rng_is_seed_derived_not_process_local():
    scenario = get_scenario("mixed_torus")
    base = next(netmod._flit_worm_ids) + 1
    harness = ShardHarness(scenario, 2, 0, "active", base)
    expected = RandomStreams(
        seed=scenario.net_kwargs["seed"]
    ).stream("flitnet")
    assert (
        harness.net._rng._rng.getstate() == expected._rng.getstate()
    ), "shard RNG must come from the scenario seed's flitnet substream"


def test_sharded_traffic_schedule_bit_equal_to_sequential():
    # End to end, through the process backend: the sharded run of a
    # scenario whose worms retransmit (INTERRUPT fragments in fig3_s2)
    # must reproduce the sequential timeline exactly, which it can only
    # do if every worker's RNG and traffic schedule were bit-equal.
    for name in ("fig3_s2", "mixed_torus"):
        net, status = run_sequential(name, "active")
        reference = timeline_digest(worm_timeline(net, status))
        result = run_partitioned(name, 2, engine="active", backend="process")
        assert timeline_digest(result.timeline) == reference

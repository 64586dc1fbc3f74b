"""Tests for the Section 3 switch-fabric multicast schemes (Figure 3)."""

import pytest

from repro.core import (
    SwitchScheme,
    deadlock_rate,
    run_fig3_scenario,
    sweep_fig3_offsets,
)
from repro.net import torus
from repro.net.flitlevel import FlitNetwork, MulticastMode

#: An injection offset pair known (from the sweep) to deadlock the base
#: scheme; kept explicit so individual tests stay fast.
DEADLOCK_OFFSET = dict(mc_delay=0, uc_delay=5)


def test_base_scheme_deadlocks_on_fig3():
    """Figure 3: up/down routing alone does not prevent the multicast
    flow-control deadlock once a crosslink is in play."""
    outcome = run_fig3_scenario(SwitchScheme.BASE, **DEADLOCK_OFFSET)
    assert outcome.status == "deadlock"
    assert not outcome.multicast_delivered


def test_base_scheme_deadlock_window_exists():
    outcomes = sweep_fig3_offsets(
        SwitchScheme.BASE, mc_delays=range(0, 4), uc_delays=range(4, 8)
    )
    assert deadlock_rate(outcomes) > 0


def test_s1_tree_restriction_prevents_deadlock():
    """Scheme 1: all worms on the up/down spanning tree -> no crosslink,
    no cycle; both worms deliver at every offset."""
    outcomes = sweep_fig3_offsets(
        SwitchScheme.S1_TREE_RESTRICTED, mc_delays=range(0, 4), uc_delays=range(4, 8)
    )
    assert deadlock_rate(outcomes) == 0
    assert all(o.multicast_delivered and o.unicast_delivered for o in outcomes)


def test_s2_interrupt_resolves_deadlock():
    """Scheme 2: the multicast interrupts its non-blocked branch, freeing
    the path for the unicast, and resumes afterwards."""
    outcome = run_fig3_scenario(SwitchScheme.S2_INTERRUPT, **DEADLOCK_OFFSET)
    assert outcome.status == "delivered"
    assert outcome.multicast_delivered
    assert outcome.unicast_delivered


def test_s2_interrupt_all_offsets():
    outcomes = sweep_fig3_offsets(
        SwitchScheme.S2_INTERRUPT, mc_delays=range(0, 4), uc_delays=range(4, 8)
    )
    assert deadlock_rate(outcomes) == 0


def test_s3_flush_resolves_deadlock_with_retransmission():
    """Scheme 3: the unicast is flushed off the multicast-IDLE port and
    retransmitted; both worms eventually deliver."""
    outcome = run_fig3_scenario(SwitchScheme.S3_IDLE_FLUSH, **DEADLOCK_OFFSET)
    assert outcome.status == "delivered"
    assert outcome.flushes >= 1
    assert outcome.multicast_delivered
    assert outcome.unicast_delivered


def test_s3_no_flush_without_contention():
    """Scheme 3 must not flush anything when there is no multicast-IDLE
    blocking (no false positives on an idle network)."""
    topo = torus(3, 3)
    net = FlitNetwork(topo, mode=MulticastMode.IDLE_FLUSH)
    hosts = topo.hosts
    net.send_unicast(hosts[0], hosts[5], payload_bytes=100)
    net.send_unicast(hosts[1], hosts[6], payload_bytes=100)
    assert net.run(max_ticks=20_000) == "delivered"
    assert net.flushes == 0


def test_s2_fragments_reassembled_exactly():
    """After an interrupt/resume cycle the destination still receives the
    complete worm exactly once (fragment reassembly, Section 3 (d))."""
    outcome = run_fig3_scenario(
        SwitchScheme.S2_INTERRUPT, worm_bytes=600, **DEADLOCK_OFFSET
    )
    assert outcome.status == "delivered"


def test_schemes_equivalent_when_no_contention():
    """With a single multicast and an idle network, all schemes deliver
    with identical coverage."""
    for scheme in SwitchScheme:
        outcome = run_fig3_scenario(scheme, mc_delay=0, uc_delay=5_000)
        assert outcome.status == "delivered", scheme
        assert outcome.multicast_delivered


#: The bench's Fig-3 grid: 36 cells, 9 distinct races.
GRID = dict(mc_delays=range(6), uc_delays=range(6))

#: Sweeps that must equal their cells run directly: the bench's grid at
#: lanes 1 and 2 and on the dense engine, the served workload's 2x2 grid
#: of 64-byte worms (one race), and two tick budgets: at 300 many races
#: time out, at 845 some end on the budget once shifted.
SWEEPS = {
    **{
        f"{scheme.value}/lanes{lanes}": (scheme, dict(GRID, lanes=lanes))
        for scheme in SwitchScheme
        for lanes in (1, 2)
    },
    "s3_idle_flush/dense": (
        SwitchScheme.S3_IDLE_FLUSH, dict(GRID, engine="dense"),
    ),
    **{
        f"{scheme.value}/served": (
            scheme, dict(mc_delays=range(2), uc_delays=range(2), worm_bytes=64),
        )
        for scheme in SwitchScheme
    },
    **{
        f"{scheme.value}/max_ticks{budget}": (
            scheme, dict(GRID, max_ticks=budget),
        )
        for scheme in SwitchScheme
        for budget in (300, 845)
    },
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_equals_direct_runs(name):
    """Each cell derived from its race's one run (delays shifted, a delay
    below 1 read as 1) equals the cell run directly; a shifted cell whose
    race timed out, or would end on or past the budget once shifted, is
    run directly."""
    scheme, kwargs = SWEEPS[name]
    kwargs = dict(kwargs)
    mc_delays, uc_delays = kwargs.pop("mc_delays"), kwargs.pop("uc_delays")
    direct = [
        run_fig3_scenario(scheme, mc_delay, uc_delay, **kwargs)
        for mc_delay in mc_delays
        for uc_delay in uc_delays
    ]
    assert sweep_fig3_offsets(scheme, mc_delays, uc_delays, **kwargs) == direct


def test_sweep_runs_each_distinct_race_once(monkeypatch):
    builds = 0
    init = FlitNetwork.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlitNetwork, "__init__", counting_init)
    outcomes = sweep_fig3_offsets(SwitchScheme.BASE, **GRID)
    assert len(outcomes) == 36
    assert builds == 9


def test_fabric_multicast_vs_repeated_unicast_link_usage():
    """The point of fabric multicast: shared path prefixes carry the worm
    once, while repeated unicast carries it once per destination.  A chain
    topology gives the two destinations a long shared prefix."""
    from repro.net import line

    topo = line(4)
    hosts = topo.hosts
    dests = [hosts[2], hosts[3]]

    def total_carried(inject):
        net = FlitNetwork(topo)
        inject(net)
        assert net.run(max_ticks=30_000) == "delivered"
        return sum(
            output.sent_flits
            for switch in net.switches.values()
            for output in switch.outputs
        )

    fabric = total_carried(
        lambda net: net.send_multicast(hosts[0], dests, payload_bytes=200)
    )
    repeated = total_carried(
        lambda net: [
            net.send_unicast(hosts[0], d, payload_bytes=200) for d in dests
        ]
    )
    assert fabric < repeated

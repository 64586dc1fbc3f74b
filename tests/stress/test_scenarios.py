"""Scenario-layer tests: deterministic execution, clean baselines,
parameter validation, and the invariant oracles."""

import pytest

from repro.faults import FaultEvent, FaultSchedule
from repro.stress import build_scenario, canonical_json
from repro.stress.scenarios import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_baseline_is_clean(name):
    scenario = build_scenario(name)
    probe = scenario.probe()
    assert not probe.baseline.violations
    assert probe.anchors, "scenario must derive at least one anchor"
    assert probe.candidates, "scenario must derive at least one candidate"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_execution_is_deterministic_across_instances(name):
    first = build_scenario(name)
    schedule = FaultSchedule(
        [FaultEvent(first.probe().anchors[0], first.params["kinds"][0],
                    first.probe().candidates[0].target)]
    )
    a = first.execute(schedule)
    second = build_scenario(name)
    b = second.execute(schedule)
    assert a.frontier_digest == b.frontier_digest
    assert a.final_digest == b.final_digest
    assert canonical_json([v.to_dict() for v in a.violations]) == \
        canonical_json([v.to_dict() for v in b.violations])
    assert a.trace == b.trace


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        build_scenario("flit_multicast", {"bogus_knob": 1})


def test_unsupported_kind_rejected():
    with pytest.raises(ValueError, match="does not support fault kind"):
        build_scenario("flit_multicast", {"kinds": ["node_fail"]})


def test_plan_repeating_a_destination_rejected():
    # On the 4-host ring index -2 names host index 2 again.  A repeated
    # destination must not reach the sender, which would record the
    # multicast's refusal as an unroutable message.
    for dests in ([2, 2], [2, -2]):
        scenario = build_scenario(
            "flit_multicast", {"plan": [[0, dests, 10]], "kinds": ["link_fail"]}
        )
        with pytest.raises(ValueError, match=r"plan entry 0: .* repeat a host"):
            scenario.execute(FaultSchedule([]))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        build_scenario("no_such_scenario")


def test_worm_detection_window_fault_breaks_delivery():
    # The seeded vulnerability: killing a forwarding member inside the
    # detection window (before the recovery manager reconfigures) strands
    # every downstream member of the hamiltonian circuit.
    scenario = build_scenario("worm_recovery")
    outcome = scenario.execute(
        FaultSchedule([FaultEvent(11.0, "node_fail", 10)])
    )
    keys = {v.key() for v in outcome.violations}
    assert ("delivery", "message-0") in keys


def test_worm_sender_on_dead_host_is_skipped_not_charged():
    scenario = build_scenario("worm_recovery")
    plan = scenario.params["plan"]
    # Kill the second sender's host well before its send time; the
    # delivery oracle must record a skip, not a violation.
    sender_index, start = plan[1]
    host = scenario._build_topology().hosts[sender_index]
    outcome = scenario.execute(
        FaultSchedule([FaultEvent(start - 500.0, "node_fail", host)])
    )
    assert outcome.final_state["messages"][1]["skipped"]
    subjects = {v.subject for v in outcome.violations
                if v.invariant == "delivery"}
    assert "message-1" not in subjects


def test_flit_scheme3_mid_worm_link_kill_loses_tail():
    # Scheme 3's known exposure: a link dying under an in-flight worm
    # kills it instantly; hosts past the break never see the message.
    scenario = build_scenario("flit_multicast")
    outcome = scenario.execute(
        FaultSchedule([FaultEvent(10.0, "link_fail", 0)])
    )
    keys = {v.key() for v in outcome.violations}
    assert ("delivery", "message-0") in keys
    message = outcome.final_state["messages"][0]
    # Partial delivery: some hosts got the worm before the break, the
    # rest never will.
    assert message["sent"] and not message["unroutable"]
    assert 0 < len(message["delivered"]) < 2 or message["lost"]


def test_flit_repair_without_prior_fault_is_harmless():
    scenario = build_scenario("flit_multicast")
    outcome = scenario.execute(
        FaultSchedule([FaultEvent(10.0, "link_repair", 0)])
    )
    assert not outcome.violations
    assert outcome.final_digest == scenario.probe().baseline.final_digest


def test_frontier_digest_excludes_quiescent_tail():
    # The frontier digest is captured at the last event's instant, the
    # final digest after quiescence; a disruptive fault makes them differ
    # from the baseline's.
    scenario = build_scenario("worm_recovery")
    outcome = scenario.execute(
        FaultSchedule([FaultEvent(11.0, "node_fail", 10)])
    )
    baseline = scenario.probe().baseline
    assert outcome.frontier_digest != baseline.frontier_digest
    assert outcome.final_digest != baseline.final_digest

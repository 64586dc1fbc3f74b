"""Golden generation timeline of the Poisson worm sources.

Every message the per-host sources originate is logged as ``[time, host,
"mc", gid, length]`` or ``[time, host, "uc", dest, length]`` and compared
exactly.  The scenario runs Section 7's traffic on a small torus with
groups, and crashes a group member mid-run with a
:class:`~repro.faults.recovery.RecoveryManager` attached, then reboots it:

* while the host is down its source keeps drawing arrivals and lengths
  (and nothing else), so its streams stay aligned for when it comes back;
* the recovery plane splices the host out of its groups, so every
  source's ``groups_of`` re-read sees the shrunken membership and the
  rebooted host sends unicasts only.

Any change to the draw sequence, an entry's instant, or which groups a
source sees shows up here.

Re-pin after a change that is meant to change the traffic::

    PYTHONPATH=src python tests/traffic/test_generator_golden.py
"""

from __future__ import annotations

import hashlib
import json

from repro.faults import FaultEvent, FaultInjector, FaultSchedule, RecoveryManager
from repro.net import torus
from repro.traffic import TrafficConfig, TrafficGenerator
from repro.traffic.workloads import GroupPlan, build_engine, scheme_by_name

#: The group member that crashes at CRASH_AT and reboots at REBOOT_AT.
CRASHED_HOST = 22
CRASH_AT = 40_000.0
REBOOT_AT = 90_000.0
HORIZON = 160_000.0


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(crash: bool = True):
    topology = torus(4, 4)
    sim, net, engine = build_engine(
        topology,
        scheme_by_name("hamiltonian-sf"),
        GroupPlan(count=3, size=5),
        seed=5,
    )
    log = []
    multicast, unicast = engine.multicast, engine.unicast

    def logged_multicast(origin, gid, length, payload=None):
        log.append([sim.now, origin, "mc", gid, length])
        return multicast(origin, gid, length, payload)

    def logged_unicast(src, dst, length):
        log.append([sim.now, src, "uc", dst, length])
        return unicast(src, dst, length)

    engine.multicast = logged_multicast
    engine.unicast = logged_unicast
    memberships = [g.gid for g in engine.groups.groups_of(CRASHED_HOST)]
    RecoveryManager(sim, net, engine=engine)
    events = []
    if crash:
        events = [
            FaultEvent(CRASH_AT, "node_fail", CRASHED_HOST),
            FaultEvent(REBOOT_AT, "node_repair", CRASHED_HOST),
        ]
    FaultInjector(sim, net, FaultSchedule(events)).start()
    traffic = TrafficGenerator(
        sim,
        engine,
        TrafficConfig(offered_load=0.1, multicast_fraction=0.3),
    )
    traffic.start()
    sim.run(until=HORIZON)
    return {
        "log": log,
        "memberships": memberships,
        "generated": [traffic.generated_worms, traffic.generated_multicasts],
        "groups_after": {
            gid: engine.groups.group(gid).members for gid in engine.groups.gids
        },
    }


#: Message counts and the group membership left after the crash.
GOLDEN = {
    "generated": [645, 119],
    "messages": 645,
    "groups_after": {
        1: [19, 23, 24, 27], 2: [16, 20, 24, 30], 3: [17, 18, 25, 30],
    },
}

#: sha256 of the whole generation log.
GOLDEN_DIGESTS = {
    "crash_and_reboot": "4035011c51106d69297d8991e3aa14cce3b90c2999b8121ff1a834fba13fa808",
    "fault_free": "8d56ace38955bd8c571781ea1908f907bb3254c14e599a0b88f8642dc6d6c7bc",
}

#: The crashed host's own generation log, spelled out.
GOLDEN_CRASHED_HOST_LOG = [
    [2729.9084103237246, 22, "uc", 24, 88],
    [8546.097513179568, 22, "uc", 29, 477],
    [10633.865864167301, 22, "uc", 26, 530],
    [12475.104447831442, 22, "uc", 23, 40],
    [14104.880196210857, 22, "mc", 2, 207],
    [14751.382727202046, 22, "mc", 3, 139],
    [16410.613090101746, 22, "uc", 18, 552],
    [20327.466943910695, 22, "uc", 29, 543],
    [23417.539491264735, 22, "mc", 3, 585],
    [30292.481153061843, 22, "uc", 27, 1141],
    [90890.34362618359, 22, "uc", 23, 346],
    [94875.50732479604, 22, "uc", 28, 37],
    [99608.44379447684, 22, "uc", 23, 59],
    [99945.2040685189, 22, "uc", 25, 376],
    [114323.49650842314, 22, "uc", 26, 1390],
    [115394.37551674379, 22, "uc", 30, 225],
    [115428.55102639025, 22, "uc", 27, 188],
    [119293.94138884412, 22, "uc", 16, 220],
    [120968.65018565135, 22, "uc", 20, 39],
    [121918.36427774485, 22, "uc", 27, 534],
    [125350.68270697797, 22, "uc", 24, 87],
    [130116.28726171085, 22, "uc", 18, 581],
    [130229.65659840006, 22, "uc", 16, 29],
    [130984.98476858751, 22, "uc", 30, 1665],
    [138217.6161368565, 22, "uc", 30, 424],
    [139553.08459105252, 22, "uc", 16, 233],
    [141928.40485069327, 22, "uc", 17, 47],
    [142690.43566315668, 22, "uc", 27, 125],
    [145190.74276193426, 22, "uc", 17, 154],
    [146767.1291278223, 22, "uc", 27, 167],
    [147753.49787117905, 22, "uc", 27, 499],
    [148184.07038239526, 22, "uc", 26, 327],
    [150171.92359705776, 22, "uc", 20, 46],
    [151449.16502067313, 22, "uc", 29, 172],
    [158855.33087728926, 22, "uc", 26, 578],
]


def test_crashed_host_is_a_group_member():
    result = _run()
    assert result["memberships"], "the scenario must crash a group member"
    for members in result["groups_after"].values():
        assert CRASHED_HOST not in members


def test_generation_counts():
    result = _run()
    assert result["generated"] == GOLDEN["generated"]
    assert len(result["log"]) == GOLDEN["messages"]
    assert result["groups_after"] == GOLDEN["groups_after"]


def test_crashed_host_timeline():
    log = _run()["log"]
    own = [entry for entry in log if entry[1] == CRASHED_HOST]
    assert own == GOLDEN_CRASHED_HOST_LOG
    assert not any(CRASH_AT <= entry[0] < REBOOT_AT for entry in own)
    assert all(entry[2] == "uc" for entry in own if entry[0] >= REBOOT_AT)


def test_generation_log_pins():
    assert _digest(_run()["log"]) == GOLDEN_DIGESTS["crash_and_reboot"]
    assert _digest(_run(crash=False)["log"]) == GOLDEN_DIGESTS["fault_free"]


def test_generation_is_reproducible():
    assert _run()["log"] == _run()["log"]


if __name__ == "__main__":
    result = _run()
    print("GOLDEN =", {
        "generated": result["generated"],
        "messages": len(result["log"]),
        "groups_after": result["groups_after"],
    })
    print("GOLDEN_DIGESTS =", {
        "crash_and_reboot": _digest(result["log"]),
        "fault_free": _digest(_run(crash=False)["log"]),
    })
    print("GOLDEN_CRASHED_HOST_LOG =", [
        entry for entry in result["log"] if entry[1] == CRASHED_HOST
    ])

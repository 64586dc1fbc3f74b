#!/usr/bin/env python3
"""Fault injection and recovery on the wormhole LAN.

Three demonstrations of the `repro.faults` subsystem:

1. **Reconfiguration** -- a link on the 8x8 torus dies mid-run; the
   recovery plane rebuilds the up/down spanning tree after a detection
   delay, the event and reconvergence time are recorded, and the
   reconfigured routing is re-checked deadlock-free.
2. **Availability campaign** -- the Figure-10 multicast workload under one
   and two mid-measurement link cuts, reporting delivery ratio, orphaned
   worms and reconvergence times.
3. **Loss recovery** -- a [FJM+95] transport-repair chain streaming while
   the injector force-drops worms; every repairable loss is recovered and
   the repair overhead is priced.

Run:  python examples/fault_injection_demo.py
"""

from repro.analysis import format_availability_table, format_repair_table
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
)
from repro.faults.campaign import run_fault_campaign, run_repair_campaign
from repro.net import WormholeNetwork, torus
from repro.net.updown import check_deadlock_free
from repro.sim import Simulator


def demo_reconfiguration() -> None:
    print("=== 1. Failure-driven reconfiguration (8x8 torus) ===")
    sim = Simulator()
    topo = torus(8, 8)
    net = WormholeNetwork(sim, topo)
    recovery = RecoveryManager(sim, net)
    victim = next(
        l.id
        for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    )
    injector = FaultInjector(
        sim, net, FaultSchedule([FaultEvent(10_000.0, "link_fail", victim)])
    )
    injector.start()
    sim.run(until=50_000.0)
    (record,) = recovery.records
    print(f"  fault log      : {injector.log[0]}")
    print(f"  detected at    : {record.detected_at:.0f} byte-times")
    print(f"  reconverged in : {record.reconvergence_time:.0f} byte-times")
    print(f"  deadlock-free  : {check_deadlock_free(net.routing)}")
    print()


def demo_availability() -> None:
    print("=== 2. Availability under link failures (4x4 torus workload) ===")
    records = [
        run_fault_campaign(
            rows=4,
            cols=4,
            load=0.06,
            group_count=4,
            group_size=4,
            link_failures=n,
            downtime=40_000.0,
            warmup_time=20_000.0,
            measure_time=100_000.0,
            seed=3,
        )
        for n in (0, 1, 2)
    ]
    print(format_availability_table(records))
    print()


def demo_loss_recovery() -> None:
    print("=== 3. Transport-level loss recovery ([FJM+95] chain) ===")
    records = [
        run_repair_campaign(messages=12, drops=d, recv_faults=1, seed=2)
        for d in (0, 3, 6)
    ]
    print(format_repair_table(records))
    print()


if __name__ == "__main__":
    demo_reconfiguration()
    demo_availability()
    demo_loss_recovery()

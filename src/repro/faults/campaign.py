"""Fault campaigns: reusable fault-injection experiment recipes.

Two self-contained runners, mirroring the workload recipes in
:mod:`repro.traffic.workloads`:

* :func:`run_fault_campaign` -- the Figure 10 workload (multicast engine on
  a torus) with link failures injected mid-measurement and the Autonet-style
  recovery plane reconfiguring around them; reports availability metrics
  (delivery ratio, orphaned worms, reconvergence times) plus a
  post-reconvergence deadlock-freedom check.
* :func:`run_repair_campaign` -- a [FJM+95] transport
  :class:`~repro.core.transport_repair.RepairSession` streaming over a torus
  while the injector forces worm drops and adapter-buffer faults; asserts
  the transport recovers every repairable loss and reports the repair
  traffic overhead.

Both build a **fresh** topology per run -- fault campaigns mutate their
topology, so the memoized :func:`repro.traffic.workloads.shared_topology`
must never be used here.  Both take/return plain JSON-serializable values,
so :mod:`repro.sweep` can fan them out across worker processes, and both
are byte-reproducible: the same arguments produce an identical record,
including the injector's event log.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.transport_repair import RepairConfig, RepairSession
from repro.faults.injector import FaultInjector
from repro.faults.metrics import AvailabilityMetrics
from repro.faults.recovery import RecoveryConfig, RecoveryManager
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.topology import torus
from repro.net.updown import UpDownRouting, check_deadlock_free
from repro.net.wormnet import WormholeNetwork
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _switch_link_ids(topology) -> List[int]:
    """Ids of switch-to-switch links (the fabric cables worth cutting)."""
    return sorted(
        link.id
        for link in topology.links
        if topology.node(link.a).is_switch and topology.node(link.b).is_switch
    )


def link_failure_schedule(
    topology,
    count: int,
    first_at: float,
    window: float,
    downtime: float = 0.0,
    seed: int = 1,
) -> FaultSchedule:
    """Evenly spaced failures of ``count`` random switch-switch links.

    Targets are sampled from the ``faults.schedule`` substream of
    ``RandomStreams(seed)`` -- the dedicated fault stream, so arming a
    schedule never perturbs traffic generators seeded from the same master
    seed.  Failures land at ``first_at + (i+1) * window / (count+1)``;
    ``downtime > 0`` schedules the matching repair.
    """
    if count == 0:
        return FaultSchedule()
    candidates = _switch_link_ids(topology)
    if count > len(candidates):
        raise ValueError(
            f"asked for {count} link failures, topology has {len(candidates)}"
        )
    stream = RandomStreams(seed).stream("faults.schedule")
    targets = stream.sample(candidates, count)
    events = []
    for index, link_id in enumerate(targets):
        fail_at = first_at + (index + 1) * window / (count + 1)
        events.append(FaultEvent(fail_at, "link_fail", link_id))
        if downtime > 0:
            events.append(FaultEvent(fail_at + downtime, "link_repair", link_id))
    return FaultSchedule(events)


def run_fault_campaign(
    rows: int = 8,
    cols: int = 8,
    scheme: str = "hamiltonian-sf",
    load: float = 0.06,
    multicast_fraction: float = 0.1,
    mean_length: float = 400.0,
    group_count: int = 10,
    group_size: int = 10,
    link_failures: int = 1,
    downtime: float = 100_000.0,
    warmup_time: float = 100_000.0,
    measure_time: float = 400_000.0,
    detection_delay: float = 100.0,
    seed: int = 1,
    schedule: Optional[FaultSchedule] = None,
    check_deadlocks: bool = True,
    obs=None,
) -> Dict[str, Any]:
    """One availability measurement: multicast workload + link failures.

    Runs the Figure 10-style workload on a ``rows x cols`` torus, injects
    ``link_failures`` link cuts spread over the measurement window (each
    repaired after ``downtime`` byte-times; 0 leaves them down), lets the
    recovery plane reconfigure, and reports
    :class:`~repro.faults.metrics.AvailabilityMetrics` plus the injector's
    canonical event log.  Passing ``schedule`` overrides the generated one
    (the scripted-regression form).  With ``obs`` attached the record
    carries an ``"obs"`` snapshot (fault counters, channel gauges).
    """
    from repro.traffic.generators import TrafficConfig, TrafficGenerator
    from repro.traffic.workloads import GroupPlan, build_engine, scheme_by_name

    topology = torus(rows, cols)
    routing = UpDownRouting(topology)
    sim, net, engine = build_engine(
        topology,
        scheme_by_name(scheme),
        GroupPlan(count=group_count, size=group_size),
        seed=seed,
        routing=routing,
        obs=obs,
    )
    traffic = TrafficGenerator(
        sim,
        engine,
        TrafficConfig(
            offered_load=load,
            mean_length=mean_length,
            multicast_fraction=multicast_fraction,
        ),
    )
    if schedule is None:
        schedule = link_failure_schedule(
            topology,
            link_failures,
            first_at=warmup_time,
            window=measure_time,
            downtime=downtime,
            seed=seed,
        )
    recovery = RecoveryManager(
        sim, net, engine=engine, config=RecoveryConfig(detection_delay=detection_delay)
    )
    injector = FaultInjector(sim, net, schedule)
    injector.start()
    traffic.start()

    sim.run(until=warmup_time)
    engine.reset_stats()
    net.reset_stats()
    if obs is not None:
        obs.reset(sim.now)
    sim.run(until=warmup_time + measure_time)

    metrics = AvailabilityMetrics.collect(
        net, injector=injector, recovery=recovery, engine=engine
    )
    deadlock_free = None
    if check_deadlocks:
        try:
            deadlock_free = check_deadlock_free(routing)
        except ValueError:
            deadlock_free = False  # some live pair is unroutable (partition)
    obs_snapshot = None
    if obs is not None:
        obs.snapshot_wormnet(net, sim.now)
        obs_snapshot = obs.snapshot(sim.now)
    return {
        "params": {
            "rows": rows,
            "cols": cols,
            "scheme": scheme,
            "load": load,
            "multicast_fraction": multicast_fraction,
            "link_failures": link_failures,
            "downtime": downtime,
            "seed": seed,
        },
        "metrics": metrics.to_dict(),
        "mean_multicast_latency": engine.delivery_latency.mean,
        "messages_completed": engine.messages_completed,
        "deadlock_free": deadlock_free,
        "event_log": list(injector.log),
        "sim_time": sim.now,
        "obs": obs_snapshot,
    }


def run_repair_campaign(
    rows: int = 4,
    cols: int = 4,
    members_count: int = 6,
    messages: int = 20,
    spacing: float = 2_000.0,
    length: int = 400,
    drops: int = 5,
    recv_faults: int = 0,
    seed: int = 1,
    request_timeout: float = 3_000.0,
    heartbeat_period: float = 10_000.0,
    max_sim_time: float = 5e6,
    obs=None,
) -> Dict[str, Any]:
    """One loss-recovery measurement: transport repair under injected drops.

    Streams ``messages`` sequence-numbered multicasts down a repair chain
    while the injector arms ``drops`` forced worm drops (any source, so
    data, requests and repairs are all at risk) and ``recv_faults``
    adapter-buffer faults at the chain tail.  The run ends when the
    transport has recovered everything (or ``max_sim_time``); the record
    says whether recovery was total and what it cost.
    """
    sim = Simulator(obs=obs)
    topology = torus(rows, cols)
    net = WormholeNetwork(sim, topology, obs=obs)
    members = topology.hosts[:members_count]
    session = RepairSession(
        sim,
        net,
        members,
        RepairConfig(
            request_timeout=request_timeout,
            heartbeat_period=heartbeat_period,
        ),
        seed=seed,
        sid=1,  # pin the RNG substream name: byte-reproducible across runs
    )
    send_window = messages * spacing
    events = [
        FaultEvent((k + 1) * send_window / (drops + 1), "worm_drop", -1)
        for k in range(drops)
    ]
    tail = session.members[-1]
    events.extend(
        FaultEvent((k + 1) * send_window / (recv_faults + 1), "recv_fault", tail)
        for k in range(recv_faults)
    )
    injector = FaultInjector(sim, net, FaultSchedule(events))
    injector.start()

    def traffic():
        for _ in range(messages):
            session.send(length=length)
            yield sim.timeout(spacing)

    sim.process(traffic(), name="repair-campaign-traffic")
    # all_complete() is vacuously true before the first send: run the whole
    # send window first, then chase completion.
    sim.run(until=send_window)
    while not session.all_complete() and sim.now < max_sim_time:
        sim.run(until=sim.now + 50_000.0)

    metrics = AvailabilityMetrics.collect(net, injector=injector, session=session)
    obs_snapshot = None
    if obs is not None:
        obs.snapshot_wormnet(net, sim.now)
        obs_snapshot = obs.snapshot(sim.now)
    latencies = [
        session.latency(seq)
        for seq in range(session.highest_sent + 1)
        if session.complete(seq)
    ]
    return {
        "params": {
            "rows": rows,
            "cols": cols,
            "members_count": members_count,
            "messages": messages,
            "drops": drops,
            "recv_faults": recv_faults,
            "seed": seed,
        },
        "metrics": metrics.to_dict(),
        "recovered_all": session.all_complete(),
        "messages": messages,
        "losses_injected": net.dropped_worms + net.orphaned_worms,
        "max_latency": max(latencies) if latencies else None,
        "mean_latency": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "event_log": list(injector.log),
        "sim_time": sim.now,
        "obs": obs_snapshot,
    }

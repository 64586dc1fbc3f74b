"""Conservative synchronous-window coordinator for partitioned scenarios.

``run_partitioned(scenario, k)`` drives K :class:`~repro.par.shard.ShardHarness`
replicas in lockstep barrier windows of width ``W = min(cut-wire delay)``
and reconstructs the sequential run's outcome exactly:

* **Windows.**  Every shard advances to the same edge tick; the edge then
  exchanges boundary batches (see :mod:`repro.par.shard` for the proof
  that nothing pushed inside a window can be consumed before the next
  one).  Windows never cross a fault tick, and in the final segment they
  are additionally capped at the current deadlock candidate so shards
  stop on exactly the tick the sequential run would stop on.

* **Status.**  ``FlitNetwork.run`` terminates on conditions that are
  global (all records complete, or no progress event for ``quiet_limit``
  ticks while nothing is scheduled).  The coordinator reconstructs them
  from per-shard data: delivery events shipped at edges, each shard's
  ``_last_progress_tick``, and the static scheduled-action horizon
  (scenarios whose runs can *create* actions or records mid-run --
  scheme 3 flushes, host-adapter multicast -- are rejected up front).

* **Faults** are barrier events: at the fault tick the edge exchange
  runs first (moving every undelivered cut flit onto its receiver's
  replica), then every shard applies the same ``fail_link`` /
  ``fail_node``; the coordinator unions the per-replica loss sets and
  broadcasts the difference so all replicas expunge identical worm sets.

The sequential *reference* for byte-comparison is :func:`run_sequential`:
the same scenario on one engine, with the same driver-level fault
barriers between ``run_window`` segments and the normal ``run()`` for the
final segment.

Both an in-process backend (``backend="inline"``, used for determinism
proofs and on single-core machines) and a worker-process backend
(``backend="process"``, one OS process per shard talking over pipes) are
provided; they execute the identical barrier schedule, so their merged
timelines are byte-equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.net.flitlevel.network as _netmod
from repro.net.flitlevel.switch import IDLE_FLUSH
from repro.net.topology import TopologyPartition, partition_topology
from repro.par.scenarios import ParScenario, SCENARIOS, get_scenario
from repro.par.shard import ShardHarness, fail_node_flit, rebind_worm_ids

__all__ = ["ParResult", "run_partitioned", "run_sequential"]


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------
@dataclass
class _ProbeInfo:
    """Static facts the coordinator needs, extracted from one throwaway
    sequential build of the scenario (traffic applied, nothing run)."""

    k: int
    partition: TopologyPartition
    window: Optional[int]            # min cut-wire delay; None when no cuts
    wid_start: int                   # worm-id counter start for every replica
    n_wids: int                      # ids consumed by one build
    action_times: Tuple[int, ...]    # sorted static scheduled-action ticks
    dests: Dict[int, Tuple[int, ...]]  # wid -> destination hosts
    host_owner: Dict[int, int]       # host id -> shard index
    link_ends: Dict[int, Tuple[int, int]]  # link id -> (a, b)
    fwd_dest: Dict[Tuple[int, int], int] = field(default_factory=dict)
    rev_dest: Dict[Tuple[int, int], int] = field(default_factory=dict)


def _probe(scenario: ParScenario, k: int, engine: str) -> _ProbeInfo:
    base = next(_netmod._flit_worm_ids)
    wid_start = base + 1
    rebind_worm_ids(wid_start)
    # Built on the run's engine, so an unknown engine fails here, before
    # any shard or worker process starts.
    probe = scenario.build_net(engine)
    if probe.mode == IDLE_FLUSH:
        raise ValueError(
            "scheme 3 (idle_flush) cannot run under repro.par: a flush "
            "draws the shared RNG and mints new worm ids at an arbitrary "
            "tick -- a zero-lookahead global effect"
        )
    if probe.host_groups or probe.messages:
        raise ValueError(
            "host-adapter multicast cannot run under repro.par: "
            "delivery-time relay hops create records with zero lookahead"
        )
    topo = probe.topology
    for tick, kind, target in scenario.faults:
        if not 0 <= tick < scenario.max_ticks:
            raise ValueError(f"fault tick {tick} outside (0, max_ticks)")
        if kind == "fail_link":
            topo.links[target]  # raises on bad id
        elif kind == "fail_node":
            topo.node(target)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    partition = partition_topology(topo, k, scenario.partition_scheme)
    cut_delays = [
        probe._link_wires[lid][0].delay for lid in partition.cut_links
    ]
    info = _ProbeInfo(
        k=k,
        partition=partition,
        window=min(cut_delays) if cut_delays else None,
        wid_start=wid_start,
        n_wids=len(probe.records),
        action_times=tuple(sorted(t for t, _, _ in probe._actions)),
        dests={
            wid: tuple(record.dests) for wid, record in probe.records.items()
        },
        host_owner={
            host: partition.shard_of[topo.host_switch(host)]
            for host in topo.hosts
        },
        link_ends={link.id: (link.a, link.b) for link in topo.links},
    )
    for lid in partition.cut_links:
        a, b = info.link_ends[lid]
        # Direction key (lid, 0) is the a->b wire: its flits land on b's
        # shard, its reverse STOP/GO symbols on a's.
        info.fwd_dest[(lid, 0)] = partition.shard_of[b]
        info.fwd_dest[(lid, 1)] = partition.shard_of[a]
        info.rev_dest[(lid, 0)] = partition.shard_of[a]
        info.rev_dest[(lid, 1)] = partition.shard_of[b]
    return info


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class _InlineBackend:
    """All shards in this process, stepped round-robin.  Per-shard wall
    times are still measured so the critical path (what a truly parallel
    run would cost per window) can be reported on single-core hosts."""

    def __init__(self, scenario, k, engine, wid_start, obs):
        self.shards = [
            ShardHarness(scenario, k, i, engine, wid_start, obs=obs)
            for i in range(k)
        ]

    def window(self, until: int):
        out = []
        for harness in self.shards:
            t0 = perf_counter()
            events, lp = harness.run_window(until)
            fwd, rev, inj, dlv = harness.capture_edge()
            out.append((events, lp, fwd, rev, inj, dlv, perf_counter() - t0))
        return out

    def inject(self, batches):
        secs = []
        for harness, (fwd, rev, injected) in zip(self.shards, batches):
            t0 = perf_counter()
            harness.inject(fwd, rev, injected)
            secs.append(perf_counter() - t0)
        return secs

    def fault(self, kind, target):
        return [
            harness.apply_fault(kind, target, emit_obs=(i == 0))
            for i, harness in enumerate(self.shards)
        ]

    def lose(self, extras):
        for i, (harness, wids) in enumerate(zip(self.shards, extras)):
            harness.lose_extras(wids, emit_obs=(i == 0))

    def finalize(self, status, now):
        return [
            harness.finalize(status, now) + (harness.net.ticks_executed,)
            for harness in self.shards
        ]

    def close(self):
        pass


def _worker_main(conn, scenario_name, k, index, engine, wid_start, obs):
    """Worker-process loop: one ShardHarness, commands over a pipe.

    The scenario is looked up by *name* so nothing live crosses the fork;
    traffic RNG comes from the scenario seed through the network's own
    ``repro.sim.rng`` substream derivation -- never from process-local
    seeding -- so every worker builds a bit-identical replica.
    """
    harness = ShardHarness(
        get_scenario(scenario_name), k, index, engine, wid_start, obs=obs
    )
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        op = msg[0]
        if op == "window":
            t0 = perf_counter()
            events, lp = harness.run_window(msg[1])
            fwd, rev, inj, dlv = harness.capture_edge()
            conn.send((events, lp, fwd, rev, inj, dlv, perf_counter() - t0))
        elif op == "inject":
            t0 = perf_counter()
            harness.inject(msg[1], msg[2], msg[3])
            conn.send(perf_counter() - t0)
        elif op == "fault":
            conn.send(harness.apply_fault(msg[1], msg[2], emit_obs=msg[3]))
        elif op == "lose":
            harness.lose_extras(msg[1], emit_obs=msg[2])
            conn.send(None)
        elif op == "finalize":
            conn.send(
                harness.finalize(msg[1], msg[2])
                + (harness.net.ticks_executed,)
            )
        elif op == "exit":
            conn.close()
            return


class _ProcessBackend:
    """One OS process per shard; the coordinator fans each barrier
    command out to every worker before collecting replies, so shard
    windows genuinely overlap on multi-core hosts."""

    def __init__(self, scenario, k, engine, wid_start, obs):
        import multiprocessing

        if SCENARIOS.get(scenario.name) is not scenario:
            raise ValueError(
                "backend='process' needs a registered scenario (workers "
                f"look it up by name); {scenario.name!r} is not in SCENARIOS"
            )
        ctx = multiprocessing.get_context()
        self.procs = []
        self.conns = []
        for i in range(k):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, scenario.name, k, i, engine, wid_start, obs),
                daemon=True,
            )
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(parent)

    def _broadcast(self, messages):
        for conn, msg in zip(self.conns, messages):
            conn.send(msg)
        return [conn.recv() for conn in self.conns]

    def window(self, until: int):
        return self._broadcast([("window", until)] * len(self.conns))

    def inject(self, batches):
        return self._broadcast(
            [("inject", fwd, rev, injected) for fwd, rev, injected in batches]
        )

    def fault(self, kind, target):
        return self._broadcast(
            [("fault", kind, target, i == 0) for i in range(len(self.conns))]
        )

    def lose(self, extras):
        self._broadcast(
            [("lose", wids, i == 0) for i, wids in enumerate(extras)]
        )

    def finalize(self, status, now):
        return self._broadcast([("finalize", status, now)] * len(self.conns))

    def close(self):
        for conn in self.conns:
            try:
                conn.send(("exit",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


# ---------------------------------------------------------------------------
# result + merge
# ---------------------------------------------------------------------------
@dataclass
class ParResult:
    """Outcome of one partitioned run, merged back to sequential shape."""

    scenario: str
    status: str
    now: int
    timeline: Dict[str, Any]
    k: int
    engine: str
    backend: str
    scheme: str
    cut_links: int
    window: Optional[int]
    windows_run: int
    events: int                      # progress events summed over shards
    ticks_executed: int              # summed over shards
    flits_exchanged: int
    wall_seconds: float              # coordinator loop, real elapsed
    critical_path_seconds: float     # sum over windows of max shard time
    build_seconds: float
    shard_events: List[int]
    obs_snapshot: Optional[Dict[str, Any]] = None


def _merge_timelines(timelines: List[Dict[str, Any]], info: _ProbeInfo):
    base = timelines[0]
    if len(timelines) == 1:
        return base
    for tl in timelines[1:]:
        # Replicated state must agree bit-for-bit across shards; anything
        # else is a coordinator bug, not a tolerable divergence.
        for key in ("status", "now", "flushes", "worms_lost", "link_faults",
                    "killed"):
            if tl[key] != base[key]:
                raise AssertionError(
                    f"shard disagreement on {key}: {tl[key]!r} vs "
                    f"{base[key]!r}"
                )
        if set(tl["worms"]) != set(base["worms"]):
            raise AssertionError("shard disagreement on worm ordinals")
    worms: Dict[int, Dict[str, Any]] = {}
    for ordinal, worm in base["worms"].items():
        merged = dict(worm)
        delivered = dict(worm["delivered_at"])
        for tl in timelines[1:]:
            other = tl["worms"][ordinal]
            delivered.update(other["delivered_at"])
            if merged["injected_at"] is None:
                merged["injected_at"] = other["injected_at"]
        merged["delivered_at"] = dict(sorted(delivered.items()))
        worms[ordinal] = merged
    received = {}
    received_flits = {}
    for host, owner in info.host_owner.items():
        received[host] = timelines[owner]["received"][host]
        received_flits[host] = timelines[owner]["received_flits"][host]
    return {
        "status": base["status"],
        "now": base["now"],
        "flushes": base["flushes"],
        "worms_lost": base["worms_lost"],
        "link_faults": base["link_faults"],
        "worms_injected": sum(tl["worms_injected"] for tl in timelines),
        "worm_deliveries": sum(tl["worm_deliveries"] for tl in timelines),
        "killed": base["killed"],
        "worms": worms,
        "messages": base["messages"],
        "received": received,
        "received_flits": received_flits,
    }


def _merge_obs(
    snaps: List[Optional[Dict[str, Any]]],
    delivery_log: List[Tuple[int, int, int, Optional[int]]],
    link_stats: Dict[int, Tuple[int, int]],
    link_ends: Dict[int, Tuple[int, int]],
    now: int,
) -> Optional[Dict[str, Any]]:
    if not any(snap is not None for snap in snaps):
        return None
    from repro.obs.metrics import MetricsRegistry, merge_snapshots

    merged = merge_snapshots(snaps)
    # The Welford tally merge is float-grouping-dependent, so the merged
    # delivery-latency moments would differ across K.  Recompute the tally
    # from the shipped delivery events in canonical order -- (tick, host)
    # is exactly the order the sequential adapters record deliveries in --
    # and substitute it, making the merged snapshot K-invariant.
    registry = MetricsRegistry()
    tally = registry.tally("flit.delivery_latency")
    for _tick, _host, _wid, latency in delivery_log:
        if latency is not None:
            tally.add(latency)
    canonical = {
        entry["name"]: entry
        for entry in registry.snapshot()["metrics"]
    }
    replacement = canonical.get("flit.delivery_latency")
    metrics = []
    for entry in merged["metrics"]:
        if entry["name"] == "flit.delivery_latency" and not entry["tags"]:
            if replacement is not None:
                metrics.append(replacement)
        else:
            metrics.append(entry)
    merged["metrics"] = metrics
    # Per-link gauges from the per-direction wire stats each sender shard
    # owns -- the same sums ``Observability.snapshot_flitnet`` publishes.
    registry = MetricsRegistry()
    gauge = registry.gauge
    for lid in sorted(link_stats):
        a, b = link_ends[lid]
        carried, idles = link_stats[lid]
        gauge("link.flits", link=lid, a=a, b=b).set(carried)
        gauge("link.idles", link=lid, a=a, b=b).set(idles)
    gauge("flit.now").set(now)
    merged = merge_snapshots([merged, registry.snapshot()])
    # Kernel/trace counts are not meaningful across shards; ticks_executed
    # is deliberately omitted (shards tick their windows independently).
    merged["kernel"] = None
    merged["trace"] = None
    return merged


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------
def run_partitioned(
    scenario,
    partitions: int,
    engine: str = "active",
    backend: str = "inline",
    obs: bool = False,
) -> ParResult:
    """Run ``scenario`` sharded ``partitions`` ways; byte-identical to
    :func:`run_sequential` on the same scenario and engine."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    k = int(partitions)
    info = _probe(scenario, k, engine)
    try:
        build_t0 = perf_counter()
        if backend == "inline":
            be = _InlineBackend(scenario, k, engine, info.wid_start, obs)
        elif backend == "process":
            be = _ProcessBackend(scenario, k, engine, info.wid_start, obs)
        else:
            raise ValueError(f"unknown backend {backend!r}")
    finally:
        # Replica builds rebound the module-global worm-id counters;
        # leave them past everything this run minted.
        rebind_worm_ids(info.wid_start + info.n_wids)
    build_seconds = perf_counter() - build_t0
    try:
        return _drive(scenario, info, be, engine, backend, build_seconds)
    finally:
        be.close()


def _drive(scenario, info, be, engine, backend, build_seconds) -> ParResult:
    k = info.k
    max_ticks = scenario.max_ticks
    quiet = scenario.quiet_limit
    action_max = info.action_times[-1] if info.action_times else None
    incomplete = {wid: set(dests) for wid, dests in info.dests.items()}
    lps = [0] * k
    seg_start = 0
    last_completion = 0
    status: Optional[str] = None
    now_final: Optional[int] = None
    delivery_log: List[Tuple[int, int, int, Optional[int]]] = []
    total_events = 0
    shard_events = [0] * k
    windows_run = 0
    flits_exchanged = 0
    critical_path = 0.0
    wall_t0 = perf_counter()

    def stall_candidate(t: int) -> Optional[int]:
        # run()'s stall clock: the latest progress event, except that
        # pending scheduled actions pin it to the current tick (so the
        # clock can only start once the last action has fired).
        if quiet is None:
            return None
        floor = max(seg_start, max(lps))
        if action_max is not None:
            floor = max(floor, min(t, action_max - 1))
        return floor + quiet

    def run_window_batch(t_next: int) -> None:
        nonlocal total_events, windows_run, critical_path, flits_exchanged
        nonlocal last_completion
        results = be.window(t_next)
        windows_run += 1
        critical_path += max(result[6] for result in results)
        forward_for: List[dict] = [dict() for _ in range(k)]
        reverse_for: List[dict] = [dict() for _ in range(k)]
        injections: List[Tuple[int, int]] = []
        deliveries: List[Tuple[int, int, int, Optional[int]]] = []
        for si, (events, lp, fwd, rev, inj, dlv, _secs) in enumerate(results):
            total_events += events
            shard_events[si] += events
            lps[si] = lp
            for key, batch in fwd.items():
                forward_for[info.fwd_dest[key]][key] = batch
                flits_exchanged += len(batch)
            for key, batch in rev.items():
                reverse_for[info.rev_dest[key]][key] = batch
            injections.extend(inj)
            deliveries.extend(dlv)
        if k > 1:
            injections.sort()
            secs = be.inject(
                [
                    (forward_for[i], reverse_for[i], injections)
                    for i in range(k)
                ]
            )
            critical_path += max(secs)
        deliveries.sort()
        for tick, host, wid, latency in deliveries:
            remaining = incomplete.get(wid)
            if remaining is not None and host in remaining:
                remaining.discard(host)
                if not remaining:
                    del incomplete[wid]
                    if not incomplete:
                        last_completion = tick
        delivery_log.extend(deliveries)

    def check_status(t_edge: int) -> None:
        nonlocal status, now_final
        if not incomplete and (action_max is None or action_max <= t_edge):
            status = "delivered"
            now_final = max(last_completion, action_max or 0, seg_start + 1)
            return
        if incomplete and quiet is not None:
            candidate = stall_candidate(t_edge)
            if candidate is not None and candidate <= min(t_edge, max_ticks):
                status = "deadlock"
                now_final = candidate

    t = 0
    faults = sorted(scenario.faults)
    fault_index = 0
    while status is None:
        if fault_index < len(faults):
            seg_end, final = faults[fault_index][0], False
        else:
            seg_end, final = max_ticks, True
        while t < seg_end and status is None:
            t_next = min(t + info.window, seg_end) if info.window else seg_end
            if final and quiet is not None and incomplete:
                candidate = stall_candidate(t)
                if candidate is not None and candidate < t_next:
                    t_next = candidate
            run_window_batch(t_next)
            t = t_next
            if final:
                check_status(t)
        if status is not None or final:
            break
        # Fault barrier: the edge exchange above already moved every
        # undelivered cut flit onto its receiver's replica, so the
        # replicated fail loses exactly what the sequential run loses.
        _tick, kind, target = faults[fault_index]
        local_lost = be.fault(kind, target)
        union = set()
        for lost in local_lost:
            union.update(lost)
        union_sorted = sorted(union)
        be.lose(
            [
                [w for w in union_sorted if w not in set(lost)]
                for lost in local_lost
            ]
        )
        for wid in union_sorted:
            incomplete.pop(wid, None)
        seg_start = t
        fault_index += 1
    if status is None:
        status = "timeout"
        now_final = max_ticks

    finals = be.finalize(status, now_final)
    wall_seconds = perf_counter() - wall_t0
    timelines = [f[0] for f in finals]
    link_stats: Dict[int, Tuple[int, int]] = {}
    for _tl, stats, _snap, _ticks in finals:
        for lid, (carried, idles) in stats.items():
            have = link_stats.get(lid, (0, 0))
            link_stats[lid] = (have[0] + carried, have[1] + idles)
    timeline = _merge_timelines(timelines, info)
    obs_snapshot = _merge_obs(
        [f[2] for f in finals], delivery_log, link_stats, info.link_ends,
        now_final,
    )
    return ParResult(
        scenario=scenario.name,
        status=status,
        now=now_final,
        timeline=timeline,
        k=k,
        engine=engine,
        backend=backend,
        scheme=info.partition.scheme,
        cut_links=len(info.partition.cut_links),
        window=info.window,
        windows_run=windows_run,
        events=total_events,
        ticks_executed=sum(f[3] for f in finals),
        flits_exchanged=flits_exchanged,
        wall_seconds=wall_seconds,
        critical_path_seconds=critical_path,
        build_seconds=build_seconds,
        shard_events=shard_events,
        obs_snapshot=obs_snapshot,
    )


# ---------------------------------------------------------------------------
# sequential reference
# ---------------------------------------------------------------------------
def run_sequential(
    scenario,
    engine: str = "dense",
    obs=None,
    wid_start: Optional[int] = None,
):
    """The scenario on one engine with the same driver-level fault
    barriers the coordinator uses.  Returns ``(net, status)``; the
    timeline of this run is the byte-identity baseline for every K."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if wid_start is not None:
        rebind_worm_ids(wid_start)
    net = scenario.build_net(engine, obs=obs)
    # Traffic injection at build time records progress events; stash the
    # count so callers can report run-only events (the partitioned
    # runner's numerator).
    net._build_events = net._progress_events
    if net.mode == IDLE_FLUSH:
        raise ValueError("scheme 3 (idle_flush) is outside repro.par scope")
    for tick, kind, target in sorted(scenario.faults):
        net.run_window(tick)
        if kind == "fail_link":
            net.fail_link(target)
        elif kind == "fail_node":
            fail_node_flit(net, target)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    status = net.run(
        scenario.max_ticks, scenario.quiet_limit, raise_on_deadlock=False
    )
    return net, status

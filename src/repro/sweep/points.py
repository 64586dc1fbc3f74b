"""Point executors: the functions a sweep fans out across workers.

Executors are registered by name and take/return plain JSON-serializable
dicts, which keeps sweep points picklable for ``multiprocessing`` and
hashable for the on-disk result cache.  Two kinds cover the paper's
figures:

* ``load_point`` -- one (scheme, load) steady-state measurement on the
  worm-level network (Figures 10 and 11; any topology the workload layer
  can build).
* ``myrinet_throughput`` -- one (packet size, sender pattern) point on the
  Myrinet testbed model (Figures 12 and 13).
* ``vc_lanes`` -- one (topology family, lanes, scheme) flit-level run of
  the virtual-channel fabric, recording completion and per-lane
  occupancy (the lanes-vs-scheme grid).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
from typing import Any, Callable, Dict

PointFn = Callable[[Dict[str, Any]], Dict[str, Any]]


def sanitize_record(obj: Any) -> Any:
    """Canonicalize a record to its strict-JSON form.

    NaN becomes None (NaN breaks strict JSON and equality — ``nan != nan``
    would make byte-identical runs look different), tuples become lists,
    and dict keys become strings, so a record compares equal whether it
    came straight from an executor or round-tripped through the on-disk
    cache.  The ``records_to_*`` helpers in :mod:`repro.sweep.runner`
    restore native types on rehydration.
    """
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {str(key): sanitize_record(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_record(value) for value in obj]
    return obj


POINT_KINDS: Dict[str, PointFn] = {}


def _point_obs(params: Dict[str, Any]):
    """Metrics-only observability bundle when the point asks for one.

    Sweep points run in worker processes, so the trace ring and kernel
    counters stay off (``params["obs"]`` only buys the mergeable metric
    snapshot embedded in the record); all hooks remain passive, so records
    are byte-identical with and without it.
    """
    if not params.get("obs"):
        return None
    from repro.obs import Observability

    return Observability(tracer=None, kernel=False)


def point_kind(name: str) -> Callable[[PointFn], PointFn]:
    """Register an executor under ``name``."""

    def register(fn: PointFn) -> PointFn:
        if name in POINT_KINDS:
            raise ValueError(f"point kind {name!r} already registered")
        POINT_KINDS[name] = fn
        return fn

    return register


def _collect_after(fn: PointFn) -> PointFn:
    """Free a worm-level point's simulation as soon as the point returns.

    A finished simulation is one large reference cycle (kernel, network,
    adapters, worms in flight), so only the cyclic collector frees it.
    The worm-level hot path allocates few container objects, so that
    collector runs rarely, and without this a sweep process would hold a
    dozen dead simulations at once (the small Fig-11 points pile up).
    """

    @functools.wraps(fn)
    def run(params: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return fn(params)
        finally:
            gc.collect()

    return run


def execute_point(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one point; the module-level entry used by pool workers."""
    try:
        fn = POINT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown point kind {kind!r}; known: {sorted(POINT_KINDS)}"
        ) from None
    return fn(params)


@point_kind("nap")
def _nap(params: Dict[str, Any]) -> Dict[str, Any]:
    """Sleep-then-echo point: plumbing exerciser, not a simulation.

    Used by the serving layer's tests and benchmarks to occupy a worker for
    a controlled wall-clock duration (``duration`` seconds) — e.g. to
    provoke per-job timeouts or fill a queue — while staying fully
    deterministic in its *output* (the record depends only on the params).
    """
    import time as _time

    duration = float(params.get("duration", 0.0))
    if duration > 0.0:
        _time.sleep(duration)
    return sanitize_record(
        {
            "napped": duration,
            "tag": params.get("tag"),
            "seed": int(params.get("seed", 1)),
        }
    )


@point_kind("load_point")
@_collect_after
def _load_point(params: Dict[str, Any]) -> Dict[str, Any]:
    """One steady-state (scheme, load) measurement.

    Required params: ``topology`` (plus its shape parameters), ``scheme``
    (a name from :data:`repro.traffic.workloads.SCHEMES_BY_NAME`), ``load``.
    Optional: ``multicast_fraction``, ``mean_length``, ``group_count``,
    ``group_size``, ``warmup_deliveries``, ``measure_deliveries``,
    ``max_sim_time``, ``seed``, ``obs`` (embed a metrics snapshot).
    """
    from repro.traffic.workloads import (
        GroupPlan,
        run_load_point,
        scheme_by_name,
    )

    setup = {
        "topology": params["topology"],
        "groups": GroupPlan(
            count=int(params.get("group_count", 10)),
            size=int(params.get("group_size", 10)),
        ),
        "mean_length": float(params.get("mean_length", 400.0)),
        "multicast_fraction": float(params.get("multicast_fraction", 0.1)),
    }
    for key in ("rows", "cols", "p", "k", "prop_delay"):
        if key in params:
            setup[key] = params[key]

    result = run_load_point(
        scheme_by_name(params["scheme"]),
        float(params["load"]),
        setup=setup,
        multicast_fraction=float(params.get("multicast_fraction", 0.1)),
        seed=int(params.get("seed", 1)),
        warmup_deliveries=int(params.get("warmup_deliveries", 300)),
        measure_deliveries=int(params.get("measure_deliveries", 2000)),
        max_sim_time=float(params.get("max_sim_time", 5e7)),
        obs=_point_obs(params),
    )
    return sanitize_record(dataclasses.asdict(result))


@point_kind("fault_campaign")
@_collect_after
def _fault_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
    """One availability-under-faults measurement (multicast workload on a
    torus with injected link failures and Autonet-style recovery).

    Required params: ``link_failures``.  Optional: ``rows``, ``cols``,
    ``scheme``, ``load``, ``multicast_fraction``, ``mean_length``,
    ``group_count``, ``group_size``, ``downtime``, ``warmup_time``,
    ``measure_time``, ``detection_delay``, ``seed``.
    """
    from repro.faults.campaign import run_fault_campaign

    record = run_fault_campaign(
        rows=int(params.get("rows", 8)),
        cols=int(params.get("cols", 8)),
        scheme=params.get("scheme", "hamiltonian-sf"),
        load=float(params.get("load", 0.06)),
        multicast_fraction=float(params.get("multicast_fraction", 0.1)),
        mean_length=float(params.get("mean_length", 400.0)),
        group_count=int(params.get("group_count", 10)),
        group_size=int(params.get("group_size", 10)),
        link_failures=int(params["link_failures"]),
        downtime=float(params.get("downtime", 100_000.0)),
        warmup_time=float(params.get("warmup_time", 100_000.0)),
        measure_time=float(params.get("measure_time", 400_000.0)),
        detection_delay=float(params.get("detection_delay", 100.0)),
        seed=int(params.get("seed", 1)),
        obs=_point_obs(params),
    )
    return sanitize_record(record)


@point_kind("repair_campaign")
@_collect_after
def _repair_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
    """One transport-repair recovery measurement (repair chain under
    injected worm drops and adapter-buffer faults).

    Required params: ``drops``.  Optional: ``rows``, ``cols``,
    ``members_count``, ``messages``, ``spacing``, ``length``,
    ``recv_faults``, ``request_timeout``, ``heartbeat_period``,
    ``max_sim_time``, ``seed``.
    """
    from repro.faults.campaign import run_repair_campaign

    record = run_repair_campaign(
        rows=int(params.get("rows", 4)),
        cols=int(params.get("cols", 4)),
        members_count=int(params.get("members_count", 6)),
        messages=int(params.get("messages", 20)),
        spacing=float(params.get("spacing", 2_000.0)),
        length=int(params.get("length", 400)),
        drops=int(params["drops"]),
        recv_faults=int(params.get("recv_faults", 0)),
        seed=int(params.get("seed", 1)),
        request_timeout=float(params.get("request_timeout", 3_000.0)),
        heartbeat_period=float(params.get("heartbeat_period", 10_000.0)),
        max_sim_time=float(params.get("max_sim_time", 5e6)),
        obs=_point_obs(params),
    )
    return sanitize_record(record)


@point_kind("myrinet_throughput")
def _myrinet_throughput(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Myrinet testbed point (Figures 12/13).

    Required params: ``packet_size``.  Optional: ``all_send``, ``n_hosts``,
    ``warmup_us``, ``measure_us``.
    """
    from repro.myrinet import run_throughput_experiment

    result = run_throughput_experiment(
        int(params["packet_size"]),
        all_send=bool(params.get("all_send", False)),
        n_hosts=int(params.get("n_hosts", 8)),
        warmup_us=float(params.get("warmup_us", 50_000.0)),
        measure_us=float(params.get("measure_us", 500_000.0)),
        obs=_point_obs(params),
    )
    return sanitize_record(dataclasses.asdict(result))


@point_kind("fig3_offsets")
def _fig3_offsets(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Figure 3 injection-offset grid on the flit-level engine.

    Required params: ``scheme`` (a :class:`SwitchScheme` value string).
    Optional: ``mc_delays``/``uc_delays`` (exclusive range bounds, default
    6), ``worm_bytes``, ``max_ticks``, ``seed``, and ``engine``
    (``"active"``/``"dense"`` -- byte-identical results, different speed).
    """
    from repro.core.switch_mcast import (
        SwitchScheme,
        deadlock_rate,
        sweep_fig3_offsets,
    )

    outcomes = sweep_fig3_offsets(
        SwitchScheme(params["scheme"]),
        mc_delays=range(int(params.get("mc_delays", 6))),
        uc_delays=range(int(params.get("uc_delays", 6))),
        worm_bytes=int(params.get("worm_bytes", 400)),
        max_ticks=int(params.get("max_ticks", 100_000)),
        seed=int(params.get("seed", 3)),
        engine=str(params.get("engine", "active")),
    )
    return sanitize_record(
        {
            "scheme": str(SwitchScheme(params["scheme"]).value),
            "engine": str(params.get("engine", "active")),
            "points": len(outcomes),
            "deadlock_rate": deadlock_rate(outcomes),
            "delivered": sum(1 for o in outcomes if o.status == "delivered"),
            "deadlocked": sum(1 for o in outcomes if o.status == "deadlock"),
            "flushes": sum(o.flushes for o in outcomes),
            "total_ticks": sum(o.ticks for o in outcomes),
            "statuses": [o.status for o in outcomes],
        }
    )


def _vc_topology(params: Dict[str, Any]):
    """Build the topology a ``vc_lanes`` point asked for.

    Families cover the paper's direct networks (``torus``,
    ``bshufflenet``) and the multistage interconnects (``clos``,
    ``benes``, ``butterfly``); each takes its own shape parameters with
    small defaults so a grid can name just the family.
    """
    from repro.net import topology as T

    name = params["topology"]
    if name == "torus":
        return T.torus(int(params.get("rows", 4)), int(params.get("cols", 4)))
    if name == "bshufflenet":
        return T.bidirectional_shufflenet(
            int(params.get("p", 2)), int(params.get("k", 3))
        )
    if name == "clos":
        return T.clos(
            spines=int(params.get("spines", 4)),
            leaves=int(params.get("leaves", 8)),
            hosts_per_leaf=int(params.get("hosts_per_leaf", 2)),
        )
    if name == "benes":
        return T.benes(terminals=int(params.get("terminals", 16)))
    if name == "butterfly":
        return T.butterfly(
            k=int(params.get("ary", 2)), n=int(params.get("stages", 4))
        )
    raise ValueError(
        f"unknown vc_lanes topology {name!r}; known: torus, bshufflenet, "
        "clos, benes, butterfly"
    )


@point_kind("vc_lanes")
def _vc_lanes(params: Dict[str, Any]) -> Dict[str, Any]:
    """One flit-level run of the virtual-channel fabric.

    A multicast from the first host to ``fanout`` spread-out destinations
    plus ``unicast_pairs`` staggered cross-traffic unicasts, on one
    (topology family, lanes, multicast scheme) grid point.  Required
    params: ``topology`` (see :func:`_vc_topology`), ``lanes``.
    Optional: the family's shape parameters, ``mode`` (``idle_fill`` /
    ``interrupt`` / ``idle_flush``), ``vc_policy``, ``strategy``
    (``tree``/``path``), ``engine``, ``fanout``, ``unicast_pairs``,
    ``payload_bytes``, ``max_ticks``, ``seed``, ``obs``.

    The record carries the canonical timeline digest (so byte-identity
    across engines/configs is checkable straight from sweep artifacts)
    and per-lane flit/idle totals summed over all multi-lane links --
    the occupancy split the lanes-vs-scheme figure plots.
    """
    from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
    from repro.net.flitlevel.network import FlitNetwork

    topo = _vc_topology(params)
    lanes = int(params.get("lanes", 1))
    net = FlitNetwork(
        topo,
        mode=str(params.get("mode", "idle_fill")),
        lanes=lanes,
        vc_policy=str(params.get("vc_policy", "first_free")),
        seed=int(params.get("seed", 1)),
        engine=str(params.get("engine", "active")),
        obs=_point_obs(params),
    )
    hosts = topo.hosts
    fanout = min(int(params.get("fanout", 4)), len(hosts) - 1)
    payload = int(params.get("payload_bytes", 120))
    src = hosts[0]
    stride = max(1, len(hosts) // (fanout + 1))
    dests: list = []
    for i in range(1, len(hosts)):
        cand = hosts[(i * stride) % len(hosts)]
        if cand != src and cand not in dests:
            dests.append(cand)
        if len(dests) == fanout:
            break
    net.send_multicast(
        src, dests, payload_bytes=payload,
        strategy=str(params.get("strategy", "tree")),
    )
    n = len(hosts)
    for i in range(int(params.get("unicast_pairs", 4))):
        u_src = hosts[(2 * i + 1) % n]
        u_dst = hosts[(2 * i + 1 + n // 2) % n]
        if u_src == u_dst:
            continue
        net.send_unicast(
            u_src, u_dst, payload_bytes=payload // 2, start_delay=13 * i
        )
    status = net.run(
        max_ticks=int(params.get("max_ticks", 200_000)),
        raise_on_deadlock=False,
    )
    lane_flits = [0] * lanes
    lane_idles = [0] * lanes
    switch_set = set(topo.switches)
    for lid, wires in net._link_wires.items():
        link = topo.links[lid]
        if link.a not in switch_set or link.b not in switch_set:
            continue  # host-adapter links stay single-lane
        for lane in range(lanes):
            for wire in wires[2 * lane : 2 * lane + 2]:
                lane_flits[lane] += wire.carried
                lane_idles[lane] += wire.idles
    return sanitize_record(
        {
            "topology": params["topology"],
            "switches": len(topo.switches),
            "hosts": len(hosts),
            "lanes": lanes,
            "vc_policy": str(params.get("vc_policy", "first_free")),
            "mode": str(params.get("mode", "idle_fill")),
            "strategy": str(params.get("strategy", "tree")),
            "engine": str(params.get("engine", "active")),
            "fanout": len(dests),
            "status": status,
            "ticks": net.now,
            "flushes": net.flushes,
            "worms_injected": net.worms_injected,
            "worm_deliveries": net.worm_deliveries,
            "digest": timeline_digest(worm_timeline(net, status)),
            "lane_flits": lane_flits,
            "lane_idles": lane_idles,
        }
    )


@point_kind("partitioned_run")
def _partitioned_run(params: Dict[str, Any]) -> Dict[str, Any]:
    """One K-way-partitioned run of a registered :mod:`repro.par` scenario.

    Required params: ``scenario``.  Optional: ``partitions`` (default 2),
    ``engine`` (default ``"active"``), ``backend`` (``"inline"`` /
    ``"process"``), ``verify`` (default True: also run the sequential
    reference and record whether the merged timeline matched it byte for
    byte), ``timing`` (default False: include wall-clock fields, which
    makes the record non-deterministic and therefore cache-unfriendly).
    The sweep layer's injected top-level ``seed`` is ignored -- a
    scenario's seed is part of its registered definition.
    """
    from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
    from repro.par import run_partitioned, run_sequential

    name = params["scenario"]
    k = int(params.get("partitions", 2))
    engine = str(params.get("engine", "active"))
    result = run_partitioned(
        name, k, engine=engine, backend=str(params.get("backend", "inline"))
    )
    record = {
        "scenario": name,
        "partitions": k,
        "engine": engine,
        "backend": result.backend,
        "scheme": result.scheme,
        "cut_links": result.cut_links,
        "window": result.window,
        "windows_run": result.windows_run,
        "status": result.status,
        "now": result.now,
        "events": result.events,
        "flits_exchanged": result.flits_exchanged,
        "worm_deliveries": result.timeline["worm_deliveries"],
        "worms_lost": result.timeline["worms_lost"],
        "digest": timeline_digest(result.timeline),
    }
    if params.get("verify", True):
        net, status = run_sequential(name, engine)
        record["sequential_digest"] = timeline_digest(
            worm_timeline(net, status)
        )
        record["match"] = record["digest"] == record["sequential_digest"]
    if params.get("timing"):
        record["wall_seconds"] = result.wall_seconds
        record["critical_path_seconds"] = result.critical_path_seconds
    return sanitize_record(record)


@point_kind("stress_search")
def _stress_search(params: Dict[str, Any]) -> Dict[str, Any]:
    """One shard of a systematic stress search (see :mod:`repro.stress`).

    ``params`` is a :class:`~repro.stress.search.StressConfig` as a dict
    (``scenario``, ``depth``, ``budget``, ``shard_index``/``shard_count``,
    ...).  Registering this as a point kind makes every serve worker a
    model-checking shard: :func:`repro.stress.distributed.run_search_distributed`
    fans the shards across the pool and merges the records with the same
    function the in-process path uses, so the merged report is
    byte-identical either way.  The sweep layer's injected top-level
    ``seed`` is ignored -- a search is already fully determined by its
    config.
    """
    from repro.stress.search import StressConfig, run_search

    config = StressConfig.from_dict(params)
    return sanitize_record(run_search(config))

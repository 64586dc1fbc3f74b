"""The paper's simulation experiments as reusable workload recipes.

* Figure 10 -- 8x8 torus, ten random groups of ten members, 10% multicast
  fraction, mean worm 400 bytes; Hamiltonian store-and-forward vs
  Hamiltonian cut-through vs rooted tree, average multicast latency over
  offered load.
* Figure 11 -- 24-node bidirectional shufflenet (propagation delay 1000
  byte-times), four groups of six members; tree vs Hamiltonian for
  multicast fractions 0.05 / 0.10 / 0.15 / 0.20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.adapters import AdapterConfig, MulticastEngine, Scheme
from repro.net.topology import (
    Topology,
    benes,
    bidirectional_shufflenet,
    butterfly,
    clos,
    torus,
)
from repro.net.updown import UpDownRouting
from repro.net.wormnet import WormholeNetwork
from repro.sim.engine import Simulator
from repro.sim.monitor import batch_means_ci
from repro.sim.rng import RandomStreams
from repro.traffic.generators import TrafficConfig, TrafficGenerator


@dataclass
class SchemeSetup:
    """A named protocol variant under test.

    ``tree_shape`` selects the rooted-tree construction: the paper forms the
    tree over the *weighted* host-connectivity graph, so the experiment
    defaults use ``greedy_weighted`` (children attach to the cheapest
    eligible lower-ID parent); ``heap`` is the plain ID-sorted layout.
    """

    name: str
    scheme: Scheme
    cut_through: bool = False
    tree_shape: str = "greedy_weighted"
    tree_branching: int = 2

    def adapter_config(self) -> AdapterConfig:
        return AdapterConfig(cut_through=self.cut_through)


#: The three curves of Figure 10.  The 'rooted tree' scheme is the
#: non-serialized broadcast-on-tree variant of Section 6 (no root relay):
#: the figure compares plain multicast latency, for which the paper notes
#: this variant "provides lower latency than the former"; the root-start
#: (total-ordering) variant is measured separately in the ordering ablation.
FIG10_SCHEMES = [
    SchemeSetup("hamiltonian-sf", Scheme.HAMILTONIAN, cut_through=False),
    SchemeSetup("hamiltonian-ct", Scheme.HAMILTONIAN, cut_through=True),
    SchemeSetup("tree-sf", Scheme.TREE_BROADCAST, cut_through=False),
]

#: The two curve families of Figure 11.
FIG11_SCHEMES = [
    SchemeSetup("tree", Scheme.TREE_BROADCAST, cut_through=False),
    SchemeSetup("hamiltonian", Scheme.HAMILTONIAN, cut_through=False),
]

#: Every named scheme variant (sweep points reference schemes by name so
#: that point parameters stay picklable / JSON-serializable).
SCHEMES_BY_NAME = {s.name: s for s in (*FIG10_SCHEMES, *FIG11_SCHEMES)}


def scheme_by_name(name: str) -> SchemeSetup:
    """Resolve a scheme variant by its registered name."""
    try:
        return SCHEMES_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES_BY_NAME)}"
        ) from None


@dataclass
class GroupPlan:
    """How many groups to create and how large."""

    count: int
    size: int
    gid_base: int = 1


@dataclass
class ExperimentResult:
    """One (scheme, load) measurement point."""

    scheme: str
    offered_load: float
    multicast_fraction: float
    mean_multicast_latency: float
    ci_half_width: float
    mean_completion_latency: float
    mean_unicast_latency: float
    deliveries: int
    messages_completed: int
    throughput_bytes_per_bytetime: float
    mean_channel_utilization: float
    sim_time: float
    extras: Dict[str, float] = field(default_factory=dict)
    #: Observability snapshot (strict JSON; see :mod:`repro.obs`) when the
    #: point ran with an attached bundle, else None.
    obs: Optional[Dict] = None


def fig10_setup() -> dict:
    """Topology/grouping parameters of the Figure 10 experiment."""
    return {
        "topology": "torus",
        "rows": 8,
        "cols": 8,
        "groups": GroupPlan(count=10, size=10),
        "multicast_fraction": 0.1,
        "mean_length": 400.0,
        "loads": [0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12],
        "schemes": FIG10_SCHEMES,
    }


def fig11_setup() -> dict:
    """Topology/grouping parameters of the Figure 11 experiment."""
    return {
        "topology": "bidirectional_shufflenet",
        "p": 2,
        "k": 3,
        "prop_delay": 1000.0,
        "groups": GroupPlan(count=4, size=6),
        "multicast_fractions": [0.05, 0.10, 0.15, 0.20],
        "mean_length": 400.0,
        "loads": [0.03, 0.04, 0.05, 0.06, 0.07],
        "schemes": FIG11_SCHEMES,
    }


def build_topology(setup: dict) -> Topology:
    """The topology a setup names: the paper's direct networks (``torus``
    with ``rows``/``cols``, ``bidirectional_shufflenet`` with ``p``/``k``/
    ``prop_delay``) or a multistage interconnect (``clos`` with
    ``spines``/``leaves``/``hosts_per_leaf``, ``benes`` with
    ``terminals``, ``butterfly`` with ``ary``/``stages``)."""
    name = setup["topology"]
    if name == "torus":
        return torus(setup["rows"], setup["cols"])
    if name == "bidirectional_shufflenet":
        return bidirectional_shufflenet(
            setup["p"], setup["k"], prop_delay=setup["prop_delay"]
        )
    if name == "clos":
        return clos(
            spines=setup["spines"], leaves=setup["leaves"],
            hosts_per_leaf=setup["hosts_per_leaf"],
        )
    if name == "benes":
        return benes(terminals=setup["terminals"])
    if name == "butterfly":
        return butterfly(k=setup["ary"], n=setup["stages"])
    raise ValueError(f"unknown topology {name!r}")


#: Keys of ``setup`` that determine the topology (and hence the routing).
_TOPOLOGY_KEYS = (
    "topology", "rows", "cols", "p", "k", "prop_delay",
    "spines", "leaves", "hosts_per_leaf", "terminals", "ary", "stages",
)

_shared_cache: Dict[tuple, tuple] = {}


def shared_topology(setup: dict) -> tuple:
    """Memoized ``(Topology, UpDownRouting)`` for a setup, per process.

    Both objects are effectively immutable once built (the routing's
    internal route cache only ever adds deterministic entries), so the
    points of a sweep can share them instead of re-running the spanning
    tree + all-pairs BFS per point: the worm-level load points and the
    flit-level ``vc_lanes`` points, none of which fails a link.  Results
    are byte-identical to a fresh build because routes are deterministic.
    """
    key = tuple((k, setup.get(k)) for k in _TOPOLOGY_KEYS)
    cached = _shared_cache.get(key)
    if cached is None:
        topology = build_topology(setup)
        cached = (topology, UpDownRouting(topology))
        _shared_cache[key] = cached
    return cached


def build_engine(
    topology: Topology,
    scheme_setup: SchemeSetup,
    groups: GroupPlan,
    seed: int = 1,
    routing: Optional[UpDownRouting] = None,
    obs=None,
) -> tuple:
    """Wire up simulator, network, engine and groups for one run.

    Group membership depends only on ``seed``, so different schemes at the
    same seed multicast over identical groups (common random numbers).
    ``obs`` optionally attaches one :class:`~repro.obs.Observability`
    bundle to the simulator kernel, the network and the engine.
    """
    sim = Simulator(obs=obs)
    routing = routing or UpDownRouting(topology)
    net = WormholeNetwork(sim, topology, routing=routing, obs=obs)
    rng = RandomStreams(seed=seed)
    engine = MulticastEngine(
        sim, net, scheme_setup.adapter_config(), rng=rng, obs=obs
    )
    membership_stream = rng.stream("groups.membership")
    hosts = topology.hosts
    structure_kwargs = {}
    if scheme_setup.scheme in (Scheme.TREE, Scheme.TREE_BROADCAST):
        structure_kwargs["branching"] = scheme_setup.tree_branching
        structure_kwargs["shape"] = scheme_setup.tree_shape
        if scheme_setup.tree_shape == "greedy_weighted":
            structure_kwargs["routing"] = routing
    for index in range(groups.count):
        gid = groups.gid_base + index
        members = membership_stream.sample(hosts, groups.size)
        engine.create_group(gid, members, scheme_setup.scheme, **structure_kwargs)
    return sim, net, engine


def close_engine(sim: Simulator, net: WormholeNetwork, engine: MulticastEngine) -> None:
    """Tear down what :func:`build_engine` built once a run's record is
    built, so reference counting frees the run (see
    :meth:`Simulator.close`).  The simulator goes first: the processes it
    closes may still reach the network and the adapters."""
    sim.close()
    net.close()
    engine.close()


def run_load_point(
    scheme_setup: SchemeSetup,
    offered_load: float,
    setup: Optional[dict] = None,
    multicast_fraction: Optional[float] = None,
    seed: int = 1,
    warmup_deliveries: int = 300,
    measure_deliveries: int = 2000,
    max_sim_time: float = 5e7,
    collect_samples: bool = False,
    obs=None,
) -> ExperimentResult:
    """Simulate one (scheme, load) point to steady state and measure.

    The run warms up until ``warmup_deliveries`` multicast deliveries have
    occurred, resets all statistics, then measures until
    ``measure_deliveries`` more have accumulated (or ``max_sim_time`` is
    reached -- the saturation guard: beyond saturation latency diverges and
    the run is reported with whatever accumulated).

    With ``obs`` attached, the bundle's metric windows are reset together
    with the model statistics at the end of warm-up, channel gauges are
    published at the end of the run, and the result carries
    ``result.obs = obs.snapshot(sim.now)``.
    """
    setup = setup or fig10_setup()
    fraction = (
        multicast_fraction
        if multicast_fraction is not None
        else setup["multicast_fraction"]
    )
    topology, routing = shared_topology(setup)
    sim, net, engine = build_engine(
        topology, scheme_setup, setup["groups"], seed, routing=routing, obs=obs
    )
    try:
        traffic = TrafficGenerator(
            sim,
            engine,
            TrafficConfig(
                offered_load=offered_load,
                mean_length=setup["mean_length"],
                multicast_fraction=fraction,
            ),
        )
        traffic.start()

        samples: List[float] = []
        if collect_samples:
            previous_observer = engine.delivery_observer

            def observer(host, worm, message, when):
                samples.append(when - message.created)
                if previous_observer is not None:
                    previous_observer(host, worm, message, when)

            engine.delivery_observer = observer

        chunk = 100_000.0
        while engine.delivery_latency.count < warmup_deliveries:
            sim.run(until=sim.now + chunk)
            if sim.now >= max_sim_time:
                break
        engine.reset_stats()
        net.reset_stats()
        if obs is not None:
            obs.reset(sim.now)
        samples.clear()
        while engine.delivery_latency.count < measure_deliveries:
            sim.run(until=sim.now + chunk)
            if sim.now >= max_sim_time:
                break

        ci = (
            batch_means_ci(samples, batches=20)
            if samples
            else {"half_width": float("nan")}
        )
        obs_snapshot = None
        if obs is not None:
            obs.snapshot_wormnet(net, sim.now)
            obs_snapshot = obs.snapshot(sim.now)
        return ExperimentResult(
            scheme=scheme_setup.name,
            offered_load=offered_load,
            multicast_fraction=fraction,
            mean_multicast_latency=engine.delivery_latency.mean,
            ci_half_width=ci["half_width"],
            mean_completion_latency=engine.completion_latency.mean,
            mean_unicast_latency=engine.unicast_latency.mean,
            deliveries=engine.delivery_latency.count,
            messages_completed=engine.messages_completed,
            throughput_bytes_per_bytetime=(
                net.delivered_bytes / sim.now if sim.now > 0 else 0.0
            ),
            mean_channel_utilization=net.mean_utilization(),
            sim_time=sim.now,
            obs=obs_snapshot,
        )
    finally:
        close_engine(sim, net, engine)


def sweep(
    schemes: Sequence[SchemeSetup],
    loads: Sequence[float],
    setup: dict,
    **kwargs,
) -> List[ExperimentResult]:
    """Run every (scheme, load) combination of an experiment."""
    results = []
    for scheme_setup in schemes:
        for load in loads:
            results.append(run_load_point(scheme_setup, load, setup=setup, **kwargs))
    return results

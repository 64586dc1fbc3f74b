"""One shard of a window-partitioned flit-level simulation.

A :class:`ShardHarness` wraps a *replica* of the scenario network
(`FlitNetwork(shard=...)`) that builds and advances only its local
partition; every replica holds every host adapter and worm record.  The
coordinator (:mod:`repro.par.runner`) drives every shard in lockstep
barrier windows; at each window edge the harness

* **captures** everything its components pushed onto outbound cut wires
  (forward flits) and inbound cut wires (reverse STOP/GO symbols) since
  the previous edge, clearing the wires so nothing ships twice, and
* **injects** the batches addressed to it into its replica wires with the
  exact bookkeeping a local ``Wire.push`` / ``signal_stop`` would have
  done (site tracking, empty->non-empty wake).

Why this is exact: with window width ``W = min(cut wire delay)``, a flit
pushed at tick ``t`` in window ``(t0, t1]`` has due tick ``t + delay >=
t1 + 1`` -- nothing pushed inside a window can be consumed before the
next window starts, so moving it between replicas at the edge is
invisible to the simulation.  The same holds for reverse symbols (same
per-wire delay).  Batches stay due-sorted across windows because each
wire's delay is constant, so dues are monotonic in the push tick.

Fault barriers: the coordinator injects the edge's batches *first*, then
calls :meth:`apply_fault` on every shard.  Post-capture the sender's
replica of a cut wire is empty and the receiver's replica holds every
undelivered flit, so the replicated ``fail_link`` loses exactly the worms
the sequential run loses.  Only one designated shard keeps its
:class:`~repro.obs.Observability` bundle enabled during barrier
operations so fault/loss counters are not multiplied by K.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import repro.net.flitlevel.network as _netmod
from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.topology import TopologyPartition, partition_topology

__all__ = ["ShardHarness", "fail_node_flit", "rebind_worm_ids"]

#: Forward batches: cut-direction key -> [(due_tick, encoded_flit), ...].
#: Reverse batches: cut-direction key -> [(due_tick, stop_bool), ...].
#: A direction key is ``(link_id, slot)`` where ``slot`` indexes the
#: link's wire list (lane ``l``'s a->b wire at slot ``2l``, its b->a wire
#: at ``2l + 1`` -- see ``FlitNetwork._link_wires``); a single-lane fabric
#: therefore keeps the original ``(link_id, 0)`` / ``(link_id, 1)`` keys.
#: A given wire is *outbound* for the shard owning the sending endpoint
#: and *inbound* for the other.
CutKey = Tuple[int, int]

# -- cut-wire flit codec ---------------------------------------------------------
# Forward batches carry each flit as one int, so a batch pickles compactly
# between processes.  Layout:
# wid << 13 | kind << 10 | broadcast << 9 | multicast << 8 | value.
_WID_SHIFT = 13
_KIND_CODE = {
    FlitKind.IDLE: 1,
    FlitKind.ROUTE: 2,
    FlitKind.DATA: 3,
    FlitKind.FRAG_TAIL: 4,
    FlitKind.TAIL: 5,
}
_KIND_OBJ = [
    None, FlitKind.IDLE, FlitKind.ROUTE, FlitKind.DATA,
    FlitKind.FRAG_TAIL, FlitKind.TAIL,
]


def encode_flit(flit: Flit) -> int:
    """Pack a :class:`Flit` into its cut-wire int code."""
    return (
        (flit.wid << _WID_SHIFT)
        | (_KIND_CODE[flit.kind] << 10)
        | (bool(flit.broadcast) << 9)
        | (bool(flit.multicast) << 8)
        | flit.value
    )


def decode_flit(code: int) -> Flit:
    """Unpack a cut-wire int code back into an (equal-valued) :class:`Flit`."""
    return Flit(
        _KIND_OBJ[(code >> 10) & 7],
        code >> _WID_SHIFT,
        value=code & 0xFF,
        multicast=bool(code & 0x100),
        broadcast=bool(code & 0x200),
    )


def rebind_worm_ids(base: int) -> None:
    """Restart the module-global worm/message id counters at ``base``.

    Every replica (and the sequential reference) must mint identical ids
    for identical traffic: encoded flits reference worm ids across shard
    boundaries, so the counters are aligned before each network build.
    """
    _netmod._flit_worm_ids = itertools.count(base)
    _netmod._flit_message_ids = itertools.count(base)


def fail_node_flit(net, nid: int) -> List[int]:
    """Node-fault semantics for a flit-level network: cut every live
    adjacent link (in link-id order -- in-flight flits are lost, worms
    expunged), then mark the node itself dead for routing.  Used
    identically by the sequential reference and every shard replica, so
    loss sets and obs event streams match by construction."""
    topo = net.topology
    lost: set = set()
    for link in sorted(topo.adjacent(nid), key=lambda l: l.id):
        if topo.link_alive(link.id):
            lost.update(net.fail_link(link.id))
    topo.fail_node(nid)
    net._refresh_down_ports()
    net._wake_all()
    return sorted(lost)


class ShardHarness:
    """A shard replica plus its window-edge exchange machinery.

    Parameters
    ----------
    scenario:
        The :class:`~repro.par.scenarios.ParScenario` to replicate.
    k, index:
        Shard count and this shard's index in the deterministic
        partition of the scenario topology.
    engine:
        Flit engine for the replica (``"active"`` or ``"dense"``).
    wid_base:
        Start value for the worm-id counters; identical across replicas.
    obs:
        When true the replica carries a metrics-only Observability
        bundle (no tracer/kernel) whose snapshot the coordinator merges.
    """

    def __init__(
        self,
        scenario,
        k: int,
        index: int,
        engine: str,
        wid_base: int,
        obs: bool = False,
    ) -> None:
        self.scenario = scenario
        self.k = k
        self.index = index
        self.engine = engine
        self.partition: TopologyPartition = partition_topology(
            scenario.topology(), k, scenario.partition_scheme
        )
        rebind_worm_ids(wid_base)
        local = frozenset(self.partition.shards[index]) if k > 1 else None
        bundle = None
        if obs:
            from repro.obs import Observability

            bundle = Observability(tracer=False, kernel=False)
        self.net = scenario.build_net(engine, shard=local, obs=bundle)
        self.obs = bundle

        # -- cut-wire classification ------------------------------------
        topo = self.net.topology
        shard_of = self.partition.shard_of
        self.out_wires: Dict[CutKey, object] = {}
        self.in_wires: Dict[CutKey, object] = {}
        for lid in self.partition.cut_links:
            link = topo.links[lid]
            for slot, wire in enumerate(self.net._link_wires[lid]):
                a_to_b = slot % 2 == 0
                if shard_of[link.a] == index:
                    side = self.out_wires if a_to_b else self.in_wires
                    side[(lid, slot)] = wire
                if shard_of[link.b] == index:
                    side = self.in_wires if a_to_b else self.out_wires
                    side[(lid, slot)] = wire

        # -- injection / delivery capture -------------------------------
        # All call sites look these methods up on the network instance at
        # call time, so instance-attribute shadowing intercepts them on
        # every engine.
        self._new_injections: List[Tuple[int, int]] = []
        self._new_deliveries: List[Tuple[int, int, int, Optional[int]]] = []
        net = self.net
        orig_note = net._note_injection
        records = net.records

        def _note_injection(record) -> None:
            orig_note(record)
            self._new_injections.append((record.wid, record.injected_at))

        orig_delivery = net.record_delivery

        def _record_delivery(wid: int, host: int, now: int) -> None:
            record = records.get(wid)
            fresh = record is not None and host not in record.delivered_at
            orig_delivery(wid, host, now)
            if fresh:
                latency = (
                    now - record.injected_at
                    if record.injected_at is not None
                    else None
                )
                self._new_deliveries.append((now, host, wid, latency))

        net._note_injection = _note_injection
        net.record_delivery = _record_delivery

    # -- windows ---------------------------------------------------------------
    def run_window(self, until: int) -> Tuple[int, int]:
        """Advance to exactly ``until``; returns (progress events inside
        the window, latest tick a progress event fired on).

        The progress baseline is resynced first: barrier-time record
        churn (``lose_worm`` at a fault) must not read as an event on the
        window's first tick -- the sequential ``run()`` likewise snapshots
        its counters after the driver's fault is applied."""
        net = self.net
        net._last_progress_events = net._progress_events
        events = net.run_window(until)
        return events, net._last_progress_tick

    # -- window-edge capture -----------------------------------------------------
    def capture_edge(self):
        """Drain everything pushed since the previous edge.

        Returns ``(forward, reverse, injections, deliveries)`` where
        forward/reverse map cut-direction keys to due-ordered batches and
        injections/deliveries are this window's newly observed
        ``(wid, injected_at)`` / ``(tick, host, wid, latency)`` events.
        """
        forward: Dict[CutKey, list] = {}
        reverse: Dict[CutKey, list] = {}
        for key in sorted(self.out_wires):
            wire = self.out_wires[key]
            if wire._forward:
                forward[key] = [
                    (due, encode_flit(flit)) for due, flit in wire._forward
                ]
                wire._forward.clear()
        for key in sorted(self.in_wires):
            wire = self.in_wires[key]
            if wire._reverse:
                reverse[key] = [
                    (due, bool(stop)) for due, stop in wire._reverse
                ]
                wire._reverse.clear()
        injections = self._new_injections
        deliveries = self._new_deliveries
        self._new_injections = []
        self._new_deliveries = []
        return forward, reverse, injections, deliveries

    # -- window-edge injection ---------------------------------------------------
    def inject(self, forward, reverse, injected) -> None:
        """Apply the batches addressed to this shard, mirroring the
        bookkeeping of a local push: dead wires swallow forward flits,
        first-flit-of-a-worm registers the wire in the site index, and
        the active engine's empty->non-empty wake fires.  ``injected``
        carries ``(wid, injected_at)`` stamps from remote source
        adapters (needed for delivery-latency obs on this side)."""
        net = self.net
        for key in sorted(forward):
            wire = self.in_wires[key]
            if not wire.alive:
                continue  # a dead wire swallows flits, as push does
            if not wire._forward and wire.notify is not None:
                wire.notify(wire.receiver)
            append = wire._forward.append
            for due, code in forward[key]:
                flit = decode_flit(code)
                if flit.wid != wire._tracked_wid:
                    wire._tracked_wid = flit.wid
                    net._register_site(flit.wid, wire)
                append((due, flit))
        for key in sorted(reverse):
            # signal_stop has no aliveness gate; neither does this.
            wire = self.out_wires[key]
            append = wire._reverse.append
            for due, stop in reverse[key]:
                append((due, stop))
        records = net.records
        for wid, tick in injected:
            record = records.get(wid)
            if record is not None and record.injected_at is None:
                record.injected_at = tick

    # -- fault barriers ----------------------------------------------------------
    def apply_fault(self, kind: str, target: int, emit_obs: bool) -> List[int]:
        """Replicated fault at a barrier; returns worm ids lost from
        *this replica's* wires (the coordinator unions them).  Obs is
        disabled unless this shard is the designated emitter, so fault
        and loss counters are not K-multiplied."""
        net = self.net
        saved = net.obs
        if not emit_obs:
            net.obs = None
        try:
            if kind == "fail_link":
                return net.fail_link(target)
            if kind == "fail_node":
                return fail_node_flit(net, target)
            raise ValueError(f"unknown fault kind {kind!r}")
        finally:
            net.obs = saved

    def lose_extras(self, wids, emit_obs: bool) -> None:
        """Expunge worms lost on *other* shards' replica wires, so every
        replica's record/killed sets stay identical."""
        net = self.net
        saved = net.obs
        if not emit_obs:
            net.obs = None
        try:
            for wid in wids:
                net.lose_worm(wid)
        finally:
            net.obs = saved

    # -- finalization ------------------------------------------------------------
    def wire_stats(self) -> Dict[int, Tuple[int, int]]:
        """(carried, idles) sums per link for the wire *directions* this
        shard pushes on -- each direction of each link is counted on
        exactly one shard, so the coordinator's per-link sums equal the
        sequential ``snapshot_flitnet`` gauges."""
        net = self.net
        topo = net.topology
        shard_of = self.partition.shard_of
        index = self.index
        stats: Dict[int, Tuple[int, int]] = {}
        for link in topo.links:
            ab, ba = net.wire_counts(link.id)
            a_host = topo.node(link.a).is_host
            if a_host or topo.node(link.b).is_host:
                host = link.a if a_host else link.b
                if shard_of[topo.host_switch(host)] != index:
                    continue
                owned = (ab, ba)
            else:
                owned = tuple(
                    counts
                    for end, counts in ((link.a, ab), (link.b, ba))
                    if shard_of[end] == index
                )
                if not owned:
                    continue
            stats[link.id] = (
                sum(carried for carried, _ in owned),
                sum(idles for _, idles in owned),
            )
        return stats

    def finalize(self, status: str, now: int):
        """Land the replica on the coordinator's final clock and reduce
        it: returns (canonical timeline, owned wire stats, normalized obs
        snapshot or None)."""
        from repro.net.flitlevel.crosscheck import worm_timeline

        self.net.now = now
        timeline = worm_timeline(self.net, status)
        snap = None
        if self.obs is not None:
            snap = self.obs.snapshot()
            snap["kernel"] = None
            snap["trace"] = None
        return timeline, self.wire_stats(), snap

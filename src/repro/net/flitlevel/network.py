"""The flit-level network: wiring, injection APIs and the tick loop."""

from __future__ import annotations

import heapq
import itertools
import operator
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.route_encoding import encode_multicast_route, route_tree_from_paths
from repro.net.flitlevel.adapter import FlitAdapter, WormRecord
from repro.net.flitlevel.flits import worm_flits
from repro.net.flitlevel.switch import (
    BROADCAST_BYTE,
    IDLE_FILL,
    IDLE_FLUSH,
    INTERRUPT,
    CrossbarSwitch,
    InputPort,
)
from repro.net.flitlevel.wire import Wire
from repro.net.topology import Topology
from repro.net.updown import UpDownRouting
from repro.sim.rng import RandomStreams

_flit_worm_ids = itertools.count(1)
_flit_message_ids = itertools.count(1)

#: Sort key restoring dense (creation) iteration order after wake merges.
_net_seq_key = operator.attrgetter("_net_seq")

#: The flit engines: ``"active"`` and its reference oracle ``"dense"``.
ENGINES = ("active", "dense")


class HostMulticastMessage:
    """A host-adapter multicast (Hamiltonian circuit, Section 5) tracked at
    flit granularity: one application message relayed store-and-forward
    from member to member."""

    __slots__ = ("mid", "gid", "origin", "created", "expected", "deliveries")

    def __init__(self, mid: int, gid: int, origin: int, created: int,
                 expected) -> None:
        self.mid = mid
        self.gid = gid
        self.origin = origin
        self.created = created
        self.expected = frozenset(expected)
        self.deliveries: Dict[int, int] = {}

    @property
    def complete(self) -> bool:
        return set(self.deliveries) >= self.expected

    def completion_latency(self) -> int:
        if not self.complete:
            raise RuntimeError(f"message {self.mid} not complete")
        return max(self.deliveries.values()) - self.created


class MulticastMode(str, Enum):
    """Section 3's switch-level multicast schemes."""

    IDLE_FILL = IDLE_FILL    # base: blocked branch -> IDLE fills elsewhere
    INTERRUPT = INTERRUPT    # scheme 2: interrupt / resume with fragments
    IDLE_FLUSH = IDLE_FLUSH  # scheme 3: flush unicasts hitting mc-IDLE ports


class DeadlockDetected(RuntimeError):
    """No worm made progress for the quiet window while work remained."""

    def __init__(self, tick: int, stuck: List[int]) -> None:
        super().__init__(
            f"no progress since tick {tick}; undelivered worms: {stuck}"
        )
        self.tick = tick
        self.stuck = stuck


class FlitNetwork:
    """Byte-granular wormhole network over a topology.

    Parameters
    ----------
    topology / routing:
        The switch graph and its up/down routing.
    mode:
        Switch-level multicast scheme (see :class:`MulticastMode`).
    restrict_to_tree:
        Route *all* worms on the up/down spanning tree (scheme 1 -- this
        is what makes the base IDLE-fill scheme deadlock-free).
    slack_capacity:
        Per-input slack buffer size in flits.
    wire_delay:
        Link propagation delay in ticks.
    lanes:
        Virtual channels per switch-to-switch link.  Each lane is a full
        wire pair with its own slack buffer and STOP/GO credit; route
        bytes keep addressing the physical link (the lane group's *base*
        port) and the switch allocates a lane deterministically when the
        header byte is processed (see
        :meth:`~repro.net.flitlevel.switch.CrossbarSwitch._select_lane`).
        Host-adapter links always carry one lane.  ``lanes=1`` is the
        identity mapping and byte-identical to the pre-VC fabric.
    vc_policy:
        Lane-allocation policy: ``"first_free"`` (fixed priority, the
        default) or ``"round_robin"``.
    mc_idle_threshold:
        Consecutive IDLE flits before a port is flagged multicast-IDLE
        (scheme 3).
    flush_backoff:
        (lo, hi) uniform random retransmission delay after a flush, ticks.
    engine:
        ``"active"`` (default) ticks only the switch input ports and host
        adapters registered in the network's active set and fast-forwards
        the clock across quiescent spans; ``"dense"`` is the reference
        loop that polls every switch port and adapter each byte-time.
        Both produce byte-identical worm timelines (see
        :mod:`repro.net.flitlevel.crosscheck`).
    obs:
        Optional :class:`~repro.obs.Observability` bundle; worm-lifecycle
        hooks cost one pointer test each when ``None`` and are purely
        passive when set (results stay byte-identical either way).
    shard:
        Optional iterable of switch ids restricting which components this
        instance *ticks*.  The full object graph (all switches, adapters,
        wires, records) is still built -- a shard is a replica that only
        advances its local partition; everything else stays frozen and is
        driven externally through cut wires by :mod:`repro.par`.  Hosts
        follow their switch.  ``None`` (the default) ticks everything.
    """

    def __init__(
        self,
        topology: Topology,
        routing: Optional[UpDownRouting] = None,
        mode: MulticastMode = MulticastMode.IDLE_FILL,
        restrict_to_tree: bool = False,
        slack_capacity: int = 32,
        wire_delay: int = 1,
        lanes: int = 1,
        vc_policy: str = "first_free",
        mc_idle_threshold: int = 16,
        flush_backoff: Tuple[int, int] = (200, 400),
        seed: int = 1,
        engine: str = "active",
        obs=None,
        shard=None,
    ) -> None:
        if engine not in ENGINES:
            known = ", ".join(ENGINES)
            raise ValueError(f"unknown engine {engine!r}; known: {known}")
        if not isinstance(lanes, int) or lanes < 1:
            raise ValueError(f"lanes must be a positive int, got {lanes!r}")
        if vc_policy not in ("first_free", "round_robin"):
            raise ValueError(f"unknown vc_policy {vc_policy!r}")
        try:
            mode = MulticastMode(mode)
        except ValueError:
            known = ", ".join(m.value for m in MulticastMode)
            raise ValueError(f"unknown mode {mode!r}; known: {known}") from None
        self.lanes = lanes
        self.vc_policy = vc_policy
        self.engine = engine
        self._engine_active = engine == "active"
        self.obs = obs
        self.topology = topology
        self.routing = routing or UpDownRouting(topology)
        self.mode = mode.value
        self.restrict_to_tree = restrict_to_tree
        self.mc_idle_threshold = mc_idle_threshold
        self.flush_backoff = flush_backoff
        self._rng = RandomStreams(seed=seed).stream("flitnet")
        self.now = 0
        self.killed: set = set()
        self.flushes = 0
        self.worms_lost = 0
        self.link_faults = 0
        self.records: Dict[int, WormRecord] = {}
        #: Hamiltonian host-adapter multicast state (create_host_group).
        self.host_groups: Dict[int, List[int]] = {}
        self.messages: Dict[int, HostMulticastMessage] = {}
        self._actions: List[Tuple[int, int, Callable[[], None]]] = []
        self._action_seq = itertools.count()

        # Build switches with ports in adjacency order (port numbers in
        # source routes are adjacency indices).
        self.switches: Dict[int, CrossbarSwitch] = {}
        self.adapters: Dict[int, FlitAdapter] = {}
        self._wires: List[Wire] = []
        #: (node, link id) -> port index at that node's switch
        self._port_of: Dict[Tuple[int, int], int] = {}

        for sid in topology.switches:
            self.switches[sid] = CrossbarSwitch(
                self, sid, slack_capacity=slack_capacity
            )
        for hid in topology.hosts:
            self.adapters[hid] = FlitAdapter(self, hid)

        for sid in topology.switches:
            switch = self.switches[sid]
            for link in topology.adjacent(sid):
                peer = link.other(sid)
                delay = max(1, wire_delay + int(link.prop_delay))
                host_peer = topology.node(peer).is_host
                # Virtual channels: a switch-to-switch link carries `lanes`
                # full wire pairs, each behind its own port (slack buffer +
                # STOP/GO credit).  Host-adapter links stay single-lane.
                n_lanes = 1 if host_peer else lanes
                ports = []
                for _lane in range(n_lanes):
                    wire_in = Wire(delay=delay)
                    wire_out = Wire(delay=delay)
                    ports.append(switch.add_port(wire_in, wire_out))
                    self._wires.extend([wire_in, wire_out])
                base = ports[0]
                if base >= BROADCAST_BYTE:
                    raise ValueError(
                        f"switch {sid}: port index {base} for link {link.id} "
                        f"exceeds the route-byte limit ({BROADCAST_BYTE - 1}); "
                        f"a switch supports at most {BROADCAST_BYTE} ports "
                        f"(degree x lanes) -- reduce the radix or lanes={lanes}"
                    )
                self._port_of[(sid, link.id)] = base
                if n_lanes > 1:
                    switch.register_lane_group(ports)
                if host_peer:
                    adapter = self.adapters[peer]
                    adapter.wire_out = switch.inputs[base].wire  # host -> switch
                    adapter.wire_in = switch.outputs[base].wire  # switch -> host
        # Second pass: splice switch-to-switch wires so each side shares
        # the same Wire object per direction, lane by lane (lane ports are
        # consecutive from the base on both sides).
        spliced = set()
        for link in topology.links:
            if not (
                topology.node(link.a).is_switch and topology.node(link.b).is_switch
            ):
                continue
            if link.id in spliced:
                continue
            spliced.add(link.id)
            pa = self._port_of[(link.a, link.id)]
            pb = self._port_of[(link.b, link.id)]
            sa, sb = self.switches[link.a], self.switches[link.b]
            for off in range(lanes):
                # a's out wire is b's in wire and vice versa.
                sb.inputs[pb + off].wire = sa.outputs[pa + off].wire
                sa.inputs[pa + off].wire = sb.outputs[pb + off].wire
        # The wires actually carrying each link's traffic (post-splice),
        # ordered [a->b, b->a] per lane so lane l occupies slots 2l, 2l+1
        # (repro.par keys cut-wire batches by this ordering).
        self._link_wires: Dict[int, List[Wire]] = {}
        for link in topology.links:
            a_host = topology.node(link.a).is_host
            b_host = topology.node(link.b).is_host
            if a_host or b_host:
                host = link.a if a_host else link.b
                adapter = self.adapters[host]
                self._link_wires[link.id] = [adapter.wire_out, adapter.wire_in]
            else:
                pa = self._port_of[(link.a, link.id)]
                pb = self._port_of[(link.b, link.id)]
                self._link_wires[link.id] = [
                    self.switches[end].outputs[port + off].wire
                    for off in range(lanes)
                    for end, port in ((link.a, pa), (link.b, pb))
                ]
        self._refresh_down_ports()

        # -- active-set / progress bookkeeping --------------------------------
        # Component lists in dense iteration order (dict insertion order),
        # so the active-set engine arbitrates identically to the dense loop.
        # A shard keeps only its local components in these lists: everything
        # downstream (hook installation, _wake_all, dense iteration)
        # restricts automatically.
        self.shard = frozenset(shard) if shard is not None else None
        if self.shard is None:
            self._switch_list = list(self.switches.values())
            self._adapter_list = list(self.adapters.values())
        else:
            unknown = self.shard - set(self.switches)
            if unknown:
                raise ValueError(f"shard names non-switches: {sorted(unknown)}")
            self._switch_list = [
                s for sid, s in self.switches.items() if sid in self.shard
            ]
            self._adapter_list = [
                a
                for hid, a in self.adapters.items()
                if topology.host_switch(hid) in self.shard
            ]
            # Non-local components must never enter the active set.  Only
            # local ports get wire wake hooks (below), but any adapter can
            # be handed a worm (enqueue wakes it): marking non-local
            # adapters permanently "active" makes that wake a no-op (they
            # are not in _adapter_list, so they are never ticked and never
            # settle back out).
            local_adapters = set(self._adapter_list)
            for a in self.adapters.values():
                if a not in local_adapters:
                    a._active = True
        #: Monotonic count of observable progress events (payload flits
        #: delivered, worms injected, deliveries recorded, records churned).
        #: Replaces the per-tick _progress_signature tuple: O(1) per event.
        self._progress_events = 0
        #: Latest tick on which a progress event fired, maintained by
        #: run_window() so a window-driven coordinator (repro.par) can
        #: reconstruct run()'s stall-detection clock across shards.
        self._last_progress_tick = 0
        self._last_progress_events = 0
        self.worms_injected = 0
        self.worm_deliveries = 0
        #: Ticks actually executed (fast-forwarded spans are excluded, so
        #: active/dense ratios of this counter measure the skipped work).
        self.ticks_executed = 0
        #: Worm records plus host-multicast messages not yet fully
        #: delivered, maintained incrementally so run() never scans
        #: ``self.records`` on the hot path.
        self._undelivered = 0
        #: wid -> components/wires the worm's flits have entered, so a
        #: flush or loss resets O(worm extent) state, not O(network).
        #: Inner dicts are insertion-ordered sets: expunge order stays
        #: deterministic run to run (byte reproducibility).
        self._worm_sites: Dict[int, Dict[object, bool]] = {}
        #: Active set: input ports and adapters, each list in dense
        #: iteration order (ports by switch creation order, then port
        #: index).  A fresh network has nothing in flight, so nothing is
        #: active until a worm is enqueued.
        self._n_active = 0
        self._active_ports: List[InputPort] = []
        self._active_adapters: List[FlitAdapter] = []
        self._woken: List[object] = []
        # Every wire registers in the worm-site index; only the active
        # engine needs receiver wake-ups on the empty->non-empty edge.  One
        # bound method serves every wire (no per-port closure: the large
        # multistage builds have tens of thousands of ports).
        track = self._register_site
        wake = self._wake_component if self._engine_active else None
        seq = 0
        for switch in self._switch_list:
            for port in switch.inputs:
                port._net_seq = seq
                seq += 1
                port.wire.receiver = port
                port.wire.notify = wake
            for output in switch.outputs:
                output.wire.track = track
        for seq, adapter in enumerate(self._adapter_list):
            adapter._net_seq = seq
            if adapter.wire_out is not None:
                adapter.wire_out.track = track
            if adapter.wire_in is not None:
                adapter.wire_in.receiver = adapter
                adapter.wire_in.notify = wake

    # -- active-set engine internals ------------------------------------------
    def _wake_component(self, comp) -> None:
        """Register an input port or adapter for ticking.  No-op in the
        dense engine (which polls everything anyway) and for already-active
        components, so hooks can fire it unconditionally."""
        if self._engine_active and not comp._active:
            comp._active = True
            self._n_active += 1
            self._woken.append(comp)

    def _wake_all(self) -> None:
        """Activate every input port and adapter: used after external
        mutations (fault injection, reconfiguration) whose state edges are
        not covered by the per-wire wake hooks.  Spuriously woken
        components settle back out after one no-op tick."""
        wake = self._wake_component
        for switch in self._switch_list:
            for port in switch.inputs:
                wake(port)
        for adapter in self._adapter_list:
            wake(adapter)

    def _merge_woken(self) -> None:
        """Fold newly-woken components into the active lists, restoring
        dense iteration order so arbitration stays byte-identical."""
        ports = self._active_ports
        adapters = self._active_adapters
        for comp in self._woken:
            if comp._is_adapter:
                adapters.append(comp)
            else:
                ports.append(comp)
        self._woken.clear()
        ports.sort(key=_net_seq_key)
        adapters.sort(key=_net_seq_key)

    # -- progress counters ------------------------------------------------------
    def _note_progress(self) -> None:
        """Count one observable progress event (O(1) replacement for the
        old per-tick progress-signature tuple)."""
        self._progress_events += 1

    def _note_injection(self, record: WormRecord) -> None:
        self._progress_events += 1
        self.worms_injected += 1
        if self.obs is not None:
            self.obs.flit_worm_injected(self.now, record)

    def _track_new_record(self, record: WormRecord) -> None:
        self.records[record.wid] = record
        if not record.fully_delivered:
            self._undelivered += 1
        self._progress_events += 1

    def _forget_record(self, wid: int) -> Optional[WormRecord]:
        record = self.records.pop(wid, None)
        if record is not None:
            self._progress_events += 1
            if not record.fully_delivered:
                self._undelivered -= 1
        return record

    # -- per-worm location index ----------------------------------------------
    def _register_site(self, wid: int, site) -> None:
        """Index ``site`` (a switch or wire) as holding flits of ``wid``,
        so expunging the worm is O(worm extent) instead of O(network)."""
        sites = self._worm_sites.get(wid)
        if sites is None:
            if wid in self.killed:
                return  # straggler of an already-expunged worm
            sites = self._worm_sites[wid] = {}
        sites[site] = True

    def _refresh_down_ports(self) -> None:
        """(Re)compute each switch's broadcast down-link ports from the
        current up/down tree (Section 3); called after reconfiguration."""
        topology = self.topology
        tree_links = self.routing.tree_links
        for sid in topology.switches:
            switch = self.switches[sid]
            ports = []
            for link in topology.adjacent(sid):
                peer = link.other(sid)
                if link.id in tree_links and not self.routing.is_up(sid, peer):
                    ports.append(self._port_of[(sid, link.id)])
            switch.down_ports = ports

    # -- fault injection ---------------------------------------------------------
    def fail_link(self, link_id: int) -> List[int]:
        """Cut a link: in-flight flits are destroyed, the worms they belong
        to are expunged (lost, not retransmitted -- network-level loss), and
        the up/down routing reconfigures around the dead link for worms
        injected from now on.  Returns the lost worm ids."""
        self.topology.fail_link(link_id)  # bumps version; routing re-derives
        lost: set = set()
        for wire in self._link_wires[link_id]:
            if wire is not None:
                lost |= wire.fail()
        self.link_faults += 1
        if self.obs is not None:
            self.obs.link_fault(self.now, link_id, "cut")
        for wid in sorted(lost):
            self.lose_worm(wid)
        self._refresh_down_ports()
        # State edges from a fault (expunged worms, released grants,
        # cleared STOP latches) are not all covered by the wire hooks.
        self._wake_all()
        return sorted(lost)

    def repair_link(self, link_id: int) -> None:
        """Bring a failed link back; routing reconfigures to use it again."""
        self.topology.repair_link(link_id)
        if self.obs is not None:
            self.obs.link_fault(self.now, link_id, "repair")
        for wire in self._link_wires[link_id]:
            if wire is not None:
                wire.repair()
        self._refresh_down_ports()
        self._wake_all()

    # -- route helpers -------------------------------------------------------
    def _port_bytes(self, hops) -> List[int]:
        """Header bytes for a hop path: one output-port byte per switch."""
        ports = []
        for a, _b, link in hops[1:]:
            ports.append(self._port_of[(a, link.id)])
        return ports

    # -- injection APIs ----------------------------------------------------------
    def send_unicast(
        self, src: int, dst: int, payload_bytes: int = 64, start_delay: int = 0
    ) -> int:
        """Queue a unicast worm; returns its worm id."""
        hops = self.routing.route(src, dst, self.restrict_to_tree)
        header = bytes(self._port_bytes(hops))
        wid = next(_flit_worm_ids)
        flits = worm_flits(wid, header, payload_bytes)
        record = WormRecord(wid, src, [dst], flits, payload_bytes)
        self._track_new_record(record)
        self._inject(record, start_delay)
        return wid

    def _inject(self, record: WormRecord, start_delay: int) -> None:
        if start_delay <= 0:
            self.adapters[record.src].enqueue(record)
        else:
            self.schedule(start_delay, lambda: self.adapters[record.src].enqueue(record))

    def send_multicast(
        self,
        src: int,
        dests: Sequence[int],
        payload_bytes: int = 64,
        start_delay: int = 0,
        strategy: str = "tree",
    ) -> int:
        """Queue a switch-level multicast worm (tree-encoded source route).

        ``strategy`` selects the NoC-survey route shape: ``"tree"`` (the
        paper's shortest-path tree from a single layered BFS) or
        ``"path"`` (a caterpillar chain visiting destination switches in
        greedy nearest-neighbour order, branching only to each local host
        -- see :meth:`~repro.net.updown.UpDownRouting.multi_route_path`).
        Both encode into the same header format, so every engine and
        multicast scheme applies unchanged; long path chains are bounded
        by the one-byte segment pointer of the header encoding.
        """
        if not dests:
            raise ValueError("multicast needs at least one destination")
        if strategy == "tree":
            routes = self.routing.multi_route(src, dests, self.restrict_to_tree)
            order = list(dests)
        elif strategy == "path":
            routes = self.routing.multi_route_path(
                src, dests, self.restrict_to_tree
            )
            order = list(routes)  # chain (visitation) order
        else:
            raise ValueError(f"unknown multicast strategy {strategy!r}")
        paths = [self._port_bytes(routes[d]) for d in order]
        tree = route_tree_from_paths(paths)
        header = encode_multicast_route(tree)
        wid = next(_flit_worm_ids)
        flits = worm_flits(wid, header, payload_bytes, multicast=True)
        record = WormRecord(wid, src, list(dests), flits, payload_bytes)
        self._track_new_record(record)
        self._inject(record, start_delay)
        return wid

    def send_broadcast(
        self, src: int, payload_bytes: int = 64, start_delay: int = 0
    ) -> int:
        """Queue a broadcast: unicast route to the up/down root, then the
        broadcast address byte fans out on all down links (Section 3)."""
        root = self.routing.root
        src_switch = self.topology.host_switch(src)
        if src_switch == root:
            header = bytes([BROADCAST_BYTE])
        else:
            hops = self.routing.route(src, root, restrict_to_tree=True)
            header = bytes(self._port_bytes(hops) + [BROADCAST_BYTE])
        wid = next(_flit_worm_ids)
        # Broadcast reaches every host (including a copy back to src).
        flits = worm_flits(wid, header, payload_bytes, broadcast=True)
        record = WormRecord(wid, src, list(self.topology.hosts), flits, payload_bytes)
        self._track_new_record(record)
        self._inject(record, start_delay)
        return wid

    # -- host-adapter multicast (Hamiltonian circuit at byte granularity) ---------
    def create_host_group(self, gid: int, members: Sequence[int]) -> None:
        """Register a Hamiltonian-circuit multicast group whose worms are
        replicated by the host adapters (store-and-forward), exactly like
        the Myrinet implementation of Section 8."""
        members = sorted(set(members))
        if len(members) < 2:
            raise ValueError("a multicast group needs at least two members")
        unknown = set(members) - set(self.topology.hosts)
        if unknown:
            raise ValueError(f"not hosts: {sorted(unknown)}")
        if gid in self.host_groups:
            raise ValueError(f"group {gid} already registered")
        self.host_groups[gid] = members

    def _successor(self, gid: int, host: int) -> int:
        members = self.host_groups[gid]
        return members[(members.index(host) + 1) % len(members)]

    def send_host_multicast(self, src: int, gid: int, payload_bytes: int = 64) -> int:
        """Originate a host-adapter multicast; returns the message id."""
        members = self.host_groups.get(gid)
        if members is None:
            raise KeyError(f"no host group {gid}")
        if src not in members:
            raise ValueError(f"host {src} not in group {gid}")
        mid = next(_flit_message_ids)
        message = HostMulticastMessage(
            mid, gid, src, self.now, [m for m in members if m != src]
        )
        self.messages[mid] = message
        self._undelivered += 1
        self._send_group_hop(src, gid, payload_bytes, len(members) - 1, mid)
        return mid

    def _send_group_hop(
        self, src: int, gid: int, payload_bytes: int, hop_count: int, mid: int
    ) -> None:
        nxt = self._successor(gid, src)
        hops = self.routing.route(src, nxt, self.restrict_to_tree)
        header = bytes(self._port_bytes(hops))
        wid = next(_flit_worm_ids)
        flits = worm_flits(wid, header, payload_bytes)
        record = WormRecord(
            wid, src, [nxt], flits, payload_bytes,
            group=gid, hop_count=hop_count, message_id=mid,
        )
        self._track_new_record(record)
        self.adapters[src].enqueue(record)

    # -- delivery / flush callbacks ------------------------------------------------
    def record_delivery(self, wid: int, host: int, now: int) -> None:
        record = self.records.get(wid)
        if record is None:
            return
        if host not in record.delivered_at:
            self.worm_deliveries += 1
            was_complete = record.fully_delivered
            record.delivered_at[host] = now
            if not was_complete and record.fully_delivered:
                self._undelivered -= 1
                # Every branch drained through its destination adapter:
                # nothing of this worm remains in the fabric to expunge.
                self._worm_sites.pop(wid, None)
            if self.obs is not None:
                latency = (
                    now - record.injected_at
                    if record.injected_at is not None
                    else None
                )
                self.obs.flit_delivery(
                    now, wid, host, latency, record.fully_delivered
                )
        else:
            record.delivered_at[host] = now
        if record.group is None or record.message_id is None:
            return
        # Host-adapter multicast hop: copy to the local host (counted in
        # the message record) and retransmit to the successor while any
        # hop count remains (Section 5's store-and-forward relay).
        message = self.messages.get(record.message_id)
        if (
            message is not None
            and host in message.expected
            and host not in message.deliveries
        ):
            message.deliveries[host] = now
            if len(message.deliveries) >= len(message.expected):
                self._undelivered -= 1
        if record.hop_count > 1:
            self._send_group_hop(
                host,
                record.group,
                record.payload_bytes,
                record.hop_count - 1,
                record.message_id,
            )

    def _expunge(self, wid: int) -> bool:
        """Backward-reset a worm out of every switch and wire its flits
        have entered -- O(worm extent) via the per-worm site index, not a
        scan over the whole network.  Returns False when it was already
        expunged."""
        if wid in self.killed:
            return False
        self.killed.add(wid)
        for site in self._worm_sites.pop(wid, ()):
            site.drop_worm(wid)
        return True

    def lose_worm(self, wid: int, reason: str = "fault") -> None:
        """Fault injection: destroy a worm with *no* retransmission.

        This is network-level loss -- exactly what the transport-level
        request/repair scheme (Section 9) must recover from.  The record is
        removed so the run loop does not wait for a delivery that can never
        happen; partial deliveries already made stand.
        """
        if not self._expunge(wid):
            return
        self.worms_lost += 1
        if self.obs is not None:
            self.obs.flit_worm_lost(self.now, wid, reason)
        self._forget_record(wid)

    def flush(self, wid: int, reason: str = "") -> None:
        """Backward-reset a worm out of the network (scheme 3) and schedule
        its source retransmission after a random timeout."""
        if not self._expunge(wid):
            return
        self.flushes += 1
        if self.obs is not None:
            self.obs.flit_flush(self.now, wid)
        record = self.records.get(wid)
        if record is None:
            return

        def retransmit() -> None:
            new_wid = next(_flit_worm_ids)
            flits = [
                type(f)(f.kind, new_wid, f.value, f.multicast, f.broadcast)
                for f in record.flits
            ]
            new_record = WormRecord(
                new_wid, record.src, record.dests, flits, record.payload_bytes
            )
            new_record.retransmissions = record.retransmissions + 1
            new_record.delivered_at.update(record.delivered_at)
            self._track_new_record(new_record)
            # The retransmission supersedes the flushed worm; the old
            # record may already be gone (e.g. lost to a fault between
            # flush scheduling and this callback firing).
            self._forget_record(wid)
            self.adapters[record.src].enqueue(new_record)

        delay = self._rng.randint(*self.flush_backoff)
        self.schedule(delay, retransmit)

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        heapq.heappush(
            self._actions, (self.now + delay, next(self._action_seq), action)
        )

    # -- tick loop -----------------------------------------------------------------
    def tick(self) -> bool:
        """Advance one byte-time; returns True if any flit moved."""
        if self._engine_active:
            return self._tick_active()
        return self._tick_dense()

    def _tick_dense(self) -> bool:
        """Reference engine: poll every switch and adapter each tick."""
        self.ticks_executed += 1
        self.now += 1
        while self._actions and self._actions[0][0] <= self.now:
            _, _, action = heapq.heappop(self._actions)
            action()
        moved = False
        for switch in self._switch_list:
            if switch.tick_input(self.now):
                moved = True
        for adapter in self._adapter_list:
            if adapter.tick_input(self.now):
                moved = True
        for switch in self._switch_list:
            if switch.tick_output(self.now):
                moved = True
        for adapter in self._adapter_list:
            if adapter.tick_output(self.now):
                moved = True
        return moved

    def _tick_active(self) -> bool:
        """Active-set engine: tick only the input ports and adapters
        registered as holding flits or pending work, in dense iteration
        order (the phases of :meth:`_tick_dense`; ports by switch creation
        order, then port index).

        A component missing from the active set satisfies ``quiescent()``,
        and a quiescent component's dense tick is provably a no-op: an
        idle input port with an empty wire and slack and no STOP latched
        absorbs nothing, cannot flip its STOP/GO hysteresis and has no worm
        to advance (output ports are passive: a held output is driven by
        the input holding it), so skipping it cannot change the byte
        timeline.  Wire pushes cannot deliver in the tick they are sent
        (delay >= 1), so components woken mid-tick would also have no-oped
        this tick and only join the iteration from the next tick on.
        """
        self.ticks_executed += 1
        self.now = now = self.now + 1
        actions = self._actions
        while actions and actions[0][0] <= now:
            heapq.heappop(actions)[2]()
        if self._woken:
            self._merge_woken()
        ports = self._active_ports
        adapters = self._active_adapters
        for port in ports:
            port._moved = port.absorb(now)
        for adapter in adapters:
            adapter._moved = adapter.tick_input(now)
        for port in ports:
            if port.switch._advance(port, now):
                port._moved = True
        for adapter in adapters:
            if adapter.tick_output(now):
                adapter._moved = True
        # Settle pass: deregister components that did nothing and can do
        # nothing until a wake hook fires for them again.
        moved = False
        off = 0
        for port in ports:
            if port._moved:
                moved = True
            elif port.quiescent():
                port._active = False
                off += 1
        if off:
            self._active_ports = [p for p in ports if p._active]
        drained = off
        off = 0
        for adapter in adapters:
            if adapter._moved:
                moved = True
            elif adapter.quiescent():
                adapter._active = False
                off += 1
        if off:
            self._active_adapters = [a for a in adapters if a._active]
        self._n_active -= drained + off
        return moved

    def pending_worms(self) -> List[int]:
        """Worm ids not yet fully delivered (plus incomplete host-adapter
        multicast messages, reported as negative message ids)."""
        pending = [w for w, r in self.records.items() if not r.fully_delivered]
        pending.extend(-m.mid for m in self.messages.values() if not m.complete)
        return pending

    def run(
        self,
        max_ticks: int = 100_000,
        quiet_limit: Optional[int] = 2_000,
        raise_on_deadlock: bool = True,
    ) -> str:
        """Run until every worm is delivered, progress stalls, or the tick
        budget runs out.

        Returns
        -------
        ``"delivered"``
            Every injected worm reached all its destinations (and every
            host-adapter multicast message completed).
        ``"deadlock"``
            Undelivered worms remain but no progress event occurred for
            ``quiet_limit`` consecutive ticks while nothing was scheduled;
            raised as :class:`DeadlockDetected` when ``raise_on_deadlock``
            is true.  Pass ``quiet_limit=None`` to disable stall detection
            entirely (the run then only ends ``"delivered"`` or
            ``"timeout"``).
        ``"timeout"``
            The clock reached ``max_ticks`` first.

        Progress is measured on worm *payload* and record churn (O(1)
        monotonic counters): IDLE fills spinning through a deadlocked
        cycle (Figure 3) do not count.  The active-set engine additionally
        fast-forwards the clock across fully quiescent spans -- nothing in
        flight, only scheduled actions (flush backoffs, delayed
        injections) remaining -- instead of spinning one byte at a time;
        outcomes are byte-identical to the dense engine's (see
        :mod:`repro.net.flitlevel.crosscheck`).
        """
        last_progress = self.now
        last_events = self._progress_events
        while self.now < max_ticks:
            if self._engine_active and not self._n_active:
                if self._actions:
                    # Idle span: nothing can move before the next
                    # scheduled action, so jump to the tick it fires on.
                    nxt = self._actions[0][0]
                    if nxt > self.now + 1:
                        jump = min(nxt, max_ticks) - 1
                        self.now = jump
                        # The dense loop treats pending actions as
                        # progress each tick: restart the stall window.
                        last_progress = jump
                elif self._undelivered:
                    # Permanently quiescent: no flits anywhere, nothing
                    # scheduled, and no wake source left inside run().
                    # The dense loop would spin unchanged to its stall or
                    # tick budget; jump straight to the same outcome.
                    if (
                        quiet_limit is None
                        or last_progress + quiet_limit > max_ticks
                    ):
                        self.now = max_ticks
                        return "timeout"
                    self.now = last_progress + quiet_limit
                    if raise_on_deadlock:
                        raise DeadlockDetected(
                            last_progress, self.pending_worms()
                        )
                    return "deadlock"
            self.tick()
            if not self._undelivered and not self._actions:
                # Pending scheduled actions (delayed injections, fault
                # events scheduled by a driver) keep the run alive even
                # with nothing currently in flight.
                return "delivered"
            events = self._progress_events
            if events != last_events or self._actions:
                last_events = events
                last_progress = self.now
            elif (
                quiet_limit is not None
                and self.now - last_progress >= quiet_limit
            ):
                if raise_on_deadlock:
                    raise DeadlockDetected(last_progress, self.pending_worms())
                return "deadlock"
        return "timeout"

    def run_window(self, until: int) -> int:
        """Advance the clock to exactly ``until`` with no early exit.

        The window-synchronized parallel runner (:mod:`repro.par`) drives
        each shard in lockstep barrier windows: every shard must land on
        the same tick regardless of delivery or stalls, so none of
        :meth:`run`'s termination conditions apply here.  Status
        (delivered / deadlock / timeout) is reconstructed by the
        coordinator from ``_last_progress_tick``, ``_undelivered`` and the
        scheduled-action horizon.

        The active-set engine's quiescence fast-forward is preserved but
        bounded by the window edge; externally injected cut flits keep
        their receiving input ports active (``quiescent()`` inspects the
        input wire), so the jump never skips cross-shard traffic.

        Returns the number of progress events observed inside the window.
        """
        events_before = self._progress_events
        while self.now < until:
            if self._engine_active and not self._n_active:
                nxt = self._actions[0][0] if self._actions else until
                if nxt > self.now + 1:
                    self.now = min(nxt, until) - 1
            self.tick()
            if self._progress_events != self._last_progress_events:
                self._last_progress_events = self._progress_events
                self._last_progress_tick = self.now
        return self._progress_events - events_before

"""The flit-level network: wiring, injection APIs and the tick loop."""

from __future__ import annotations

import heapq
import itertools
import operator
from collections.abc import Mapping
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.route_encoding import encode_multicast_route, route_tree_from_paths
from repro.net.flitlevel.adapter import FlitAdapter, WormRecord
from repro.net.flitlevel.flits import FlitKind, retag_flits, worm_flits
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

_DATA = FlitKind.DATA
_IDLE = FlitKind.IDLE
_ROUTE = FlitKind.ROUTE
_STREAMING = InputPort.STREAMING
_REQUESTING = InputPort.REQUESTING
_MC_GRANT = InputPort.MC_GRANT
#: Header phases whose step reads a route byte at the front of the slack.
_MC_READS_ROUTE = (InputPort.MC_PORT, InputPort.MC_POINTER, InputPort.MC_SEGMENT)


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


class _BuildOnRead(Mapping):
    """Read-only view of a lazily built fabric: iterates every key in
    order, and reading an entry builds it."""

    __slots__ = ("_keys", "_built", "_build")

    def __init__(self, keys, built: dict, build: Callable) -> None:
        self._keys = keys
        self._built = built
        self._build = build

    def __getitem__(self, key):
        value = self._built.get(key)
        if value is None:
            if key not in self._keys:
                raise KeyError(key)
            value = self._build(key)
        return value

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _closed(key):
    raise RuntimeError("the network is closed; only built parts are readable")


def _port_span(port: InputPort, due: int, killed, span: int,
               flush_at: Optional[int]) -> int:
    """The input-port half of :meth:`FlitNetwork._steady_span`: ``span``,
    or less, when ``port`` spends each of the next ticks as the last one
    left it, and 0 when it may not.

    A port with flits on its input wire must pass a stream through: it
    streams a live worm it has already indexed, latches and asserts no
    STOP, holds k flits with k + 1 below the STOP mark, and its slack and
    input wire hold only one flit, the worm's DATA flit or its shared
    IDLE, the wire exactly ``delay`` of them, due from tick ``due`` on.
    Every branch is granted and not interrupted, and its output wire is
    alive, already tracks the worm, has no STOP in effect and no STOP/GO
    symbol queued, and is full the same way, ending in that flit.

    A port with nothing on its input wire must hold its STOP/GO
    hysteresis at a fixed point, and then is frozen when its step
    changes nothing (see :func:`_held_span`), or IDLE-fills.  Under
    scheme 3 (``flush_at``, the multicast-IDLE threshold) an output
    emitting IDLE ends the span before its ``idle_run`` reaches the
    threshold, where a blocked unicast would be flushed."""
    forward = port.wire._forward
    if not forward:
        slack = port.slack
        held = len(slack._flits)
        if slack._stopping:
            if held <= slack.go_mark or not port._last_stop:
                return 0
        elif held >= slack.stop_mark or port._last_stop:
            return 0
        state = port.state
        if state == _STREAMING:
            return _held_span(port, held, due, span, flush_at)
        if state == _REQUESTING:
            # Waits for an output another input holds, already queued:
            # request() changes nothing, and a unicast is not flushed.
            flushable = flush_at is not None and not port.is_multicast
            outputs = port.switch.outputs
            index = port.index
            waits = False
            for branch in port.branches:
                if branch.granted:
                    continue
                output = outputs[branch.port]
                holder = output.holder
                if (
                    holder is None
                    or holder == index
                    or index not in output.waiting
                    or (flushable and output.idle_run >= flush_at)
                ):
                    return 0
                waits = True
            return span if waits else 0
        if state == _MC_GRANT:
            return 0 if port.branches[-1].granted else span
        if state in _MC_READS_ROUTE:
            # Waits for a route byte that is not at the front.
            return span if not held or slack._flits[0].kind is not _ROUTE else 0
        return 0
    wid = port.wid
    if (
        port.state != _STREAMING
        or port._last_stop
        or wid in killed
        or port._site_wid != wid
    ):
        return 0
    wire = port.wire
    if len(forward) != wire.delay or forward[0][0] != due:
        return 0
    flit = forward[0][1]
    kind = flit.kind
    if (kind is not _DATA and kind is not _IDLE) or flit.wid != wid:
        return 0
    for _due, other in forward:
        if other is not flit:
            return 0
    slack = port.slack
    flits = slack._flits
    if (
        slack._stopping
        or len(flits) + 1 >= slack.stop_mark
        or flits.count(flit) != len(flits)
        or not port.branches
    ):
        return 0
    flush_at = flush_at if kind is _IDLE else None
    outputs = port.switch.outputs
    for branch in port.branches:
        if not branch.granted or branch.interrupted:
            return 0
        output = outputs[branch.port]
        wire = output.wire
        forward = wire._forward
        if (
            not wire.alive
            or wire._tracked_wid != wid
            or wire._stop_at_sender
            or wire._reverse
            or len(forward) != wire.delay
            or forward[0][0] != due
            or forward[-1][1] is not flit
        ):
            return 0
        if flush_at is not None and output.idle_run < flush_at:
            span = min(span, flush_at - 1 - output.idle_run)
    return span


def _held_span(port: InputPort, held: int, due: int, span: int,
               flush_at: Optional[int]) -> int:
    """:func:`_port_span` for a ``STREAMING`` port that receives nothing
    and holds ``held`` flits.  It is frozen when its slack is empty (a
    hole: it waits for upstream) and it pushed nothing in the last tick,
    so no wire it feeds looks full; or when every branch not interrupted
    has no STOP/GO symbol queued and at least one of them is under STOP,
    and it has no branch to IDLE-fill.  A base or scheme-3 multicast with
    a flit to send IDLE-fills its branches not under STOP: each of those
    output wires is alive, tracks the worm and is full of the port's
    shared IDLE flit, due from tick ``due`` on."""
    outputs = port.switch.outputs
    branches = port.branches
    if not branches:
        return 0  # the step tears the connection down
    now = due - 1
    interrupted = queued = stopped = ready = False
    for branch in branches:
        if branch.interrupted:
            interrupted = True
            continue
        wire = outputs[branch.port].wire
        if not held and wire._last_push_tick == now:
            return 0
        if wire._reverse:
            queued = True
        if wire._stop_at_sender:
            stopped = True
        else:
            ready = True
    if not held and not interrupted:
        return span  # the step returns before it reads an output
    if queued or not stopped:
        return 0
    if not ready or interrupted:
        return span
    # Scheme 2 never IDLE-fills, so its port has no IDLE flit and a
    # branch not under STOP (which it would interrupt) fails here.
    idle = port._idle
    wid = port.wid
    for branch in branches:
        output = outputs[branch.port]
        wire = output.wire
        if wire._stop_at_sender:
            continue
        forward = wire._forward
        if (
            not wire.alive
            or wire._tracked_wid != wid
            or len(forward) != wire.delay
            or forward[0][0] != due
            or forward[-1][1] is not idle
        ):
            return 0
        if flush_at is not None and output.idle_run < flush_at:
            span = min(span, flush_at - 1 - output.idle_run)
    return span


def _emit_span(output, span: int, idle: bool, end: int) -> None:
    """``span`` ticks of ``OutputPort.emit`` (with its ``Wire.push``) of
    one IDLE or DATA flit, the last in tick ``end``."""
    output.sent_flits += span
    wire = output.wire
    wire.carried += span
    wire._last_push_tick = end
    if idle:
        output.idle_run += span
        wire.idles += span
    else:
        output.idle_run = 0


def _shift_due(forward, span: int) -> None:
    """Delay every ``(due, flit)`` entry of a wire by ``span`` ticks."""
    for i in range(len(forward)):
        due, flit = forward[i]
        forward[i] = (due + span, flit)


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
        adapters registered in the network's active set, and
        :meth:`run` fast-forwards the clock across quiescent spans and
        across steady spans, whose ticks differ only in counters: every
        live component passes a payload or IDLE stream through at link
        rate, waits for a grant or for upstream, is held by STOP, or
        IDLE-fills the free branches of a blocked multicast (the Figure 3
        race's blocked phase, deadlock window included).
        It also builds a switch (its ports, slack buffers, lane groups and
        its links' wires) only on first touch: when its host adapter is
        handed a worm, or when a flit is pushed onto a wire toward it.
        ``"dense"`` is the reference loop that builds every switch up
        front, polls every switch port and adapter each byte-time and
        never skips a tick.  Both produce byte-identical worm timelines
        and fabric counters (see :mod:`repro.net.flitlevel.crosscheck`).
        ``switches`` lists every switch either way; reading an entry
        builds it.
    obs:
        Optional :class:`~repro.obs.Observability` bundle; worm-lifecycle
        hooks cost one pointer test each when ``None`` and are purely
        passive when set (results stay byte-identical either way).
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
        if slack_capacity < 2:
            raise ValueError(
                f"slack_capacity must be at least 2, got {slack_capacity!r}"
            )
        for name, value in (("wire_delay", wire_delay),
                            ("mc_idle_threshold", mc_idle_threshold)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        lo, hi = flush_backoff
        if not 0 <= lo <= hi:
            raise ValueError(
                f"flush_backoff must satisfy 0 <= lo <= hi, got {flush_backoff!r}"
            )
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

        self.slack_capacity = slack_capacity
        self.wire_delay = wire_delay

        self.adapters: Dict[int, FlitAdapter] = {
            hid: FlitAdapter(self, hid) for hid in topology.hosts
        }
        # Port numbers, for every switch up front: route bytes name them
        # before the switch is built.  Ports follow adjacency order, and a
        # switch-to-switch link takes ``lanes`` consecutive ports from its
        # base (host-adapter links always carry one lane).
        #: (switch, link id) -> base port index at that switch
        self._port_of: Dict[Tuple[int, int], int] = {}
        #: switch -> ``_net_seq`` of its port 0: ports are numbered through
        #: the topology's switch order, whatever order they are built in.
        self._seq_base: Dict[int, int] = {}
        seq = 0
        for sid in topology.switches:
            self._seq_base[sid] = seq
            port = 0
            for link in topology.adjacent(sid):
                if port >= BROADCAST_BYTE:
                    raise ValueError(
                        f"switch {sid}: port index {port} for link {link.id} "
                        f"exceeds the route-byte limit ({BROADCAST_BYTE - 1}); "
                        f"a switch supports at most {BROADCAST_BYTE} ports "
                        f"(degree x lanes) -- reduce the radix or lanes={lanes}"
                    )
                self._port_of[(sid, link.id)] = port
                port += self._lanes_of(link)
            seq += port

        self._links = topology.links
        #: Built components: switches by id and each link's wires
        #: (``[a->b, b->a]`` per lane, so lane l occupies slots 2l, 2l+1).
        self._built_switches: Dict[int, CrossbarSwitch] = {}
        self._built_links: Dict[int, List[Wire]] = {}
        #: Links this network failed and has not repaired: their wires,
        #: built now or later, are dead.
        self._failed_links: set = set()
        #: Every switch in topology order; reading an entry builds it.
        self.switches = _BuildOnRead(
            dict.fromkeys(topology.switches), self._built_switches,
            self._build_switch,
        )
        #: Every link's wires; reading an entry builds them.
        self._link_wires = _BuildOnRead(
            range(len(self._links)), self._built_links, self._build_link
        )

        # -- active-set / progress bookkeeping --------------------------------
        #: Built switches, in build order (topology order under the dense
        #: engine, which builds them all below).
        self._switch_list: List[CrossbarSwitch] = []
        self._adapter_list = list(self.adapters.values())
        #: Monotonic count of observable progress events (payload flits
        #: delivered, worms injected, deliveries recorded, records churned).
        #: Replaces the per-tick _progress_signature tuple: O(1) per event.
        self._progress_events = 0
        self.worms_injected = 0
        self.worm_deliveries = 0
        #: Ticks actually executed (fast-forwarded quiescent and steady
        #: spans are excluded, so active/dense ratios of this counter
        #: measure the skipped work).
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
        #: iteration order (ports by ``_net_seq``, adapters by host order).
        #: A fresh network has nothing in flight, so nothing is active
        #: until a worm is enqueued.
        self._n_active = 0
        self._active_ports: List[InputPort] = []
        self._active_adapters: List[FlitAdapter] = []
        self._woken: List[object] = []
        #: The input port that last failed the steady-span check; it is
        #: tested first next time (a hint only, see _steady_span).
        self._span_blocker: Optional[InputPort] = None
        for seq, adapter in enumerate(self._adapter_list):
            adapter._net_seq = seq
        # Wire hooks, bound once and shared by every wire.  Only the active
        # engine needs receiver wake-ups on the empty->non-empty edge.
        self._track_hook = self._register_site
        self._wake_hook = self._wake_component if self._engine_active else None
        self._touch_hook = self._touch if self._engine_active else None
        self._refresh_down_ports()
        if not self._engine_active:
            for sid in topology.switches:
                self._build_switch(sid)

    # -- construction on first touch ------------------------------------------
    def _lanes_of(self, link) -> int:
        """Wire pairs on ``link``: ``lanes`` between switches, one to a host."""
        if link.a in self.adapters or link.b in self.adapters:
            return 1
        return self.lanes

    def _build_link(self, link_id: int) -> List[Wire]:
        """The wires of link ``link_id``, created on first use -- by the
        first of its ends to be built, or by a reader -- and shared by both
        ends.  A wire toward a switch that is not built yet wakes
        :meth:`_touch`, which builds it, so flits and STOP/GO symbols sent
        toward an unbuilt switch are kept."""
        wires = self._built_links.get(link_id)
        if wires is not None:
            return wires
        link = self._links[link_id]
        delay = max(1, self.wire_delay + int(link.prop_delay))
        alive = link_id not in self._failed_links
        adapters = self.adapters
        wires = []
        for lane in range(self._lanes_of(link)):
            for sender, receiver in ((link.a, link.b), (link.b, link.a)):
                wire = Wire(delay=delay)
                wire.alive = alive
                wire.track = self._track_hook
                if receiver in adapters:
                    adapter = adapters[receiver]
                    adapter.wire_in = wire
                    wire.receiver = adapter
                    wire.notify = self._wake_hook
                else:
                    if sender in adapters:
                        adapters[sender].wire_out = wire
                    base = self._port_of[(receiver, link_id)]
                    wire.receiver = (receiver, base + lane)
                    wire.notify = self._touch_hook
                wires.append(wire)
        self._built_links[link_id] = wires
        return wires

    def _build_switch(self, sid: int) -> CrossbarSwitch:
        """Build switch ``sid``: its ports with their slack buffers, its
        lane groups, and the wires of every link it touches.  The dense
        engine calls this for every switch at construction; the active
        engine on first touch.  A built switch is idle and inactive, so
        when it is built never changes the byte timeline."""
        switch = CrossbarSwitch(self, sid, slack_capacity=self.slack_capacity)
        self._built_switches[sid] = switch
        wake = self._wake_hook
        seq = self._seq_base[sid]
        for link in self.topology.adjacent(sid):
            wires = self._build_link(link.id)
            # Slot 2l carries a->b, slot 2l+1 carries b->a.
            into = 0 if sid == link.b else 1
            ports = []
            for lane in range(len(wires) // 2):
                wire_in = wires[2 * lane + into]
                index = switch.add_port(wire_in, wires[2 * lane + 1 - into])
                port = switch.inputs[index]
                port._net_seq = seq + index
                wire_in.receiver = port
                wire_in.notify = wake
                ports.append(index)
            if len(ports) > 1:
                switch.register_lane_group(ports)
        switch.down_ports = self._down_ports(sid)
        self._switch_list.append(switch)
        return switch

    def _touch(self, end: Tuple[int, int]) -> None:
        """Wake hook of a wire whose receiving switch is not built yet:
        build the switch, then wake the receiving port."""
        sid, index = end
        self._wake_component(self._build_switch(sid).inputs[index])

    def _wake_host(self, adapter: FlitAdapter) -> None:
        """An adapter was handed a worm: the first time, build its switch,
        then wake it."""
        if adapter.wire_out is None:
            self._build_switch(self.topology.host_switch(adapter.host_id))
        self._wake_component(adapter)

    def wire_counts(self, link_id: int) -> List[Tuple[int, int]]:
        """``(carried, idles)`` of each wire of a link, in ``[a->b, b->a]``
        per-lane slot order.  A link whose wires were never built reads
        zeros; reading never builds."""
        wires = self._built_links.get(link_id)
        if wires is None:
            return [(0, 0)] * (2 * self._lanes_of(self._links[link_id]))
        return [(wire.carried, wire.idles) for wire in wires]

    def close(self) -> None:
        """Break the reference cycles of a finished network (wire hooks,
        back-references to the switch and the network, scheduled
        closures), so it is freed by reference counting.  Records,
        counters and :meth:`wire_counts` stay readable; the network cannot
        run again, and reading an unbuilt switch or link raises."""
        for wires in self._built_links.values():
            for wire in wires:
                wire.notify = wire.track = wire.receiver = None
        for switch in self._built_switches.values():
            switch.network = None
            for port in switch.inputs:
                port.switch = None
            for output in switch.outputs:
                output.switch = None
        for adapter in self.adapters.values():
            adapter.network = None
        self._actions.clear()
        self._track_hook = self._wake_hook = self._touch_hook = None
        self.switches._build = self._link_wires._build = _closed

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
        """Activate every local adapter and every input port of a built
        local switch: used after external mutations (fault injection,
        reconfiguration) whose state edges are not covered by the per-wire
        wake hooks.  An unbuilt switch is quiescent.  Spuriously woken
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
        """(Re)compute each built switch's broadcast down-link ports from
        the current up/down tree (Section 3); called after reconfiguration.
        The tree is kept, so a switch built later reads the same ports."""
        self._down_tree = (self.routing.tree_links, self.routing.level)
        for sid, switch in self._built_switches.items():
            switch.down_ports = self._down_ports(sid)

    def _down_ports(self, sid: int) -> List[int]:
        tree_links, level = self._down_tree
        ports = []
        for link in self.topology.adjacent(sid):
            if link.id in tree_links:
                peer = link.other(sid)
                # A down hop leads away from the root; equal levels go down
                # toward the higher id (UpDownRouting.is_up).
                if (level[peer], peer) > (level[sid], sid):
                    ports.append(self._port_of[(sid, link.id)])
        return ports

    # -- fault injection ---------------------------------------------------------
    def fail_link(self, link_id: int) -> List[int]:
        """Cut a link: in-flight flits are destroyed, the worms they belong
        to are expunged (lost, not retransmitted -- network-level loss), and
        the up/down routing reconfigures around the dead link for worms
        injected from now on.  Returns the lost worm ids."""
        self.topology.fail_link(link_id)  # bumps version; routing re-derives
        self._failed_links.add(link_id)
        lost: set = set()
        for wire in self._built_links.get(link_id, ()):
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
        self._failed_links.discard(link_id)
        if self.obs is not None:
            self.obs.link_fault(self.now, link_id, "repair")
        for wire in self._built_links.get(link_id, ()):
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
        """Hand ``record`` to its source adapter after ``start_delay``
        ticks.  A worm queued now (``start_delay <= 0``) and one queued
        by the action at the top of tick 1 (``start_delay == 1``) are
        both first ticked in tick 1, so delays 0 and 1 give the same run;
        :func:`~repro.core.switch_mcast.sweep_fig3_offsets` relies on
        it."""
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
            new_record = WormRecord(
                new_wid, record.src, record.dests,
                retag_flits(record.flits, new_wid), record.payload_bytes,
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
        order (the phases of :meth:`_tick_dense`; ports by the switch's
        place in topology order, then port index).

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

    # -- steady spans ------------------------------------------------------------
    def _steady_span(self, max_ticks: int, stall_end: Optional[int]) -> int:
        """How many ticks from now on differ only in counters, or 0.

        Nothing may wait in ``_woken``, and every active input port must
        pass :func:`_port_span`: it passes a DATA or IDLE stream through
        at link rate, is frozen (waits for a grant, for a route byte or
        for upstream, or is held by STOP), or IDLE-fills the branches of
        a blocked multicast.  Every active adapter receives a full stream
        of one DATA flit of a live worm or of one IDLE flit (``delay`` of
        them on its wire, due from the next tick on), or nothing; and it
        injects DATA of an already injected head worm onto a full wire
        with GO in effect, or is held by STOP with no STOP/GO symbol
        queued, or has nothing to send.  A component that moves a flit
        per tick needs its output wires full, so the component at their
        far end is active (the wake hooks keep every component with flits
        on its wire active), is checked, and cannot sit idle in front of
        a gap; a frozen one pushed nothing in the last tick, so no wire
        it feeds looks full.

        With nothing active the span is a quiescent gap.  It ends before
        a source reaches its tail, before the next scheduled action
        fires, at ``max_ticks``, and under scheme 3 before an output's
        ``idle_run`` reaches ``mc_idle_threshold``.  When no adapter
        receives payload and no action is pending, no skipped tick counts
        progress, so the span also ends at ``stall_end`` (the tick on
        which :meth:`run` declares the deadlock, None without stall
        detection).  The check stops at the first component that fails
        it.
        """
        if self._woken:
            return 0
        now = self.now
        span = max_ticks - now
        actions = self._actions
        if actions:
            span = min(span, actions[0][0] - now - 1)
        elif not self._undelivered:
            return 0  # run() ends "delivered" after the next tick
        if span < 1:
            return 0
        due = now + 1
        killed = self.killed
        flush_at = self.mc_idle_threshold if self.mode == IDLE_FLUSH else None
        # The port that failed last time usually still fails: testing it
        # first makes a tick that cannot be skipped cost about one port.
        blocker = self._span_blocker
        if blocker is not None and blocker._active and not _port_span(
            blocker, due, killed, span, flush_at
        ):
            return 0
        for port in self._active_ports:
            span = _port_span(port, due, killed, span, flush_at)
            if not span:
                self._span_blocker = port
                return 0
        receiving = False
        for adapter in self._active_adapters:
            wire = adapter.wire_in
            if wire is not None and wire._forward:
                forward = wire._forward
                if len(forward) != wire.delay or forward[0][0] != due:
                    return 0
                flit = forward[0][1]
                for _due, other in forward:
                    if other is not flit:
                        return 0
                if flit.kind is _DATA and flit.wid not in killed:
                    receiving = True
                elif flit.kind is not _IDLE:
                    return 0
            tx = adapter._tx
            if not tx:
                continue
            record = tx[0]
            wid = record.wid
            wire = adapter.wire_out
            if wire is None or wid in killed or wire._reverse:
                return 0
            if wire._stop_at_sender:
                continue  # held by STOP
            pos = adapter._tx_pos
            data = record.flits[pos]
            forward = wire._forward
            if (
                data.kind is not _DATA
                or record.injected_at is None
                or not wire.alive
                or wire._tracked_wid != wid
                or len(forward) != wire.delay
                or forward[0][0] != due
                or forward[-1][1] is not data
            ):
                return 0
            # worm_flits: the payload runs up to the tail, the last flit.
            left = len(record.flits) - 1 - pos
            if left < span:
                span = left
        if not receiving and not actions and stall_end is not None:
            span = min(span, stall_end - now)
        return span

    def _skip_span(self, span: int) -> None:
        """Apply ``span`` ticks of a steady span (:meth:`_steady_span`) in
        one step.  The bulk counterpart of the per-byte steps each tick
        runs, so a change to one of those must be made here too:
        ``InputPort.absorb`` (slack peak), ``CrossbarSwitch._stream`` and
        ``OutputPort.emit`` (sent flits, IDLE run), ``Wire.push`` (carried
        and IDLE flits, last push tick), ``FlitAdapter.tick_output`` (the
        source's position) and ``FlitAdapter.tick_input`` (flits
        received, progress events).  A port with flits on its input wire
        passes that one flit on every branch; a base or scheme-3
        multicast with a flit to send IDLE-fills its branches not under
        STOP; frozen ports and adapters held by STOP change nothing.
        Every wire in flight holds one flit, so its contents stay and its
        due times shift by ``span``.  Skipped ticks do not count in
        ``ticks_executed``."""
        end = self.now + span
        fills = self.mode != INTERRUPT
        for port in self._active_ports:
            forward = port.wire._forward
            outputs = port.switch.outputs
            if forward:
                slack = port.slack
                occupancy = len(slack._flits) + 1
                if occupancy > slack.peak:
                    slack.peak = occupancy
                idle = forward[0][1].kind is _IDLE
                _shift_due(forward, span)
                for branch in port.branches:
                    _emit_span(outputs[branch.port], span, idle, end)
            elif (
                fills
                and port.state == _STREAMING
                and len(port.branches) > 1
                and port.slack._flits
            ):
                for branch in port.branches:
                    output = outputs[branch.port]
                    if not output.wire._stop_at_sender:
                        _emit_span(output, span, True, end)
        progress = 0
        for adapter in self._active_adapters:
            wire = adapter.wire_in
            if wire is not None and wire._forward:
                if wire._forward[0][1].kind is _DATA:
                    adapter.received_flits += span
                    progress += span
                _shift_due(wire._forward, span)
            if adapter._tx:
                wire = adapter.wire_out
                if not wire._stop_at_sender:
                    adapter._tx_pos += span
                    wire.carried += span
                    wire._last_push_tick = end
        self._progress_events += progress
        self.now = end

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

        ``max_ticks`` must be an int >= 0 and ``quiet_limit`` None or an
        int >= 1; anything else raises :class:`ValueError`.

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
        fast-forwards the clock instead of spinning one byte at a time
        across steady spans (:meth:`_steady_span`), in which every live
        component repeats its last tick: it passes a payload or IDLE
        stream through at link rate, waits for a grant or for upstream,
        is held by STOP, or IDLE-fills a blocked multicast's free
        branches -- or nothing is live at all, and only scheduled actions
        (flush backoffs, delayed injections) remain.  Their ticks differ
        only in counters, which :meth:`_skip_span` applies in one step; a
        span with no payload delivered and nothing scheduled ends on the
        tick the stall window declares the deadlock.  Header bytes,
        grants, tails, STOP/GO changes and slack buffers filling or
        draining still tick.  Outcomes and fabric counters are
        byte-identical to the dense engine's (see
        :mod:`repro.net.flitlevel.crosscheck`).
        """
        if not isinstance(max_ticks, int) or max_ticks < 0:
            raise ValueError(f"max_ticks must be an int >= 0, got {max_ticks!r}")
        if quiet_limit is not None and (
            not isinstance(quiet_limit, int) or quiet_limit < 1
        ):
            raise ValueError(
                f"quiet_limit must be None or an int >= 1, got {quiet_limit!r}"
            )
        last_progress = self.now
        last_events = self._progress_events
        while self.now < max_ticks:
            span = 0
            if self._engine_active:
                span = self._steady_span(
                    max_ticks,
                    None if quiet_limit is None else last_progress + quiet_limit,
                )
            if span:
                # Nothing is delivered within a steady span.
                self._skip_span(span)
            else:
                self.tick()
                if not self._undelivered and not self._actions:
                    # Pending scheduled actions (delayed injections, fault
                    # events a caller scheduled) keep the run alive even
                    # with nothing currently in flight.
                    return "delivered"
            events = self._progress_events
            # A pending action counts as progress on every tick.
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

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
    OutputPort,
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

    def peek(self, key):
        """The entry if it is built, else None; never builds."""
        return self._built.get(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _closed(key):
    raise RuntimeError("the network is closed; only built parts are readable")


def _port_span(port: InputPort, due: int, killed, span: int,
               flush_at: Optional[int]) -> int:
    """The input-port steady test of :meth:`FlitNetwork._walk`: ``span``,
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


def _adapter_span(adapter: FlitAdapter, due: int, killed, span: int) -> int:
    """The adapter half of the steady test: ``span``, or less, when
    ``adapter`` spends each of the next ticks as the last one left it,
    and 0 when it may not.

    Its receiving half takes nothing, or a full stream of one flit (the
    DATA flit of a live worm, or an IDLE flit): ``delay`` of them on its
    wire, due from tick ``due`` on.  Its sending half has nothing to send,
    is held by STOP with no STOP/GO symbol queued, or injects DATA of an
    already injected head worm onto a full wire with GO in effect, and
    then the span ends before the source reaches its tail."""
    wire = adapter.wire_in
    forward = wire._forward
    if forward:
        if len(forward) != wire.delay or forward[0][0] != due:
            return 0
        flit = forward[0][1]
        for _due, other in forward:
            if other is not flit:
                return 0
        kind = flit.kind
        if (kind is not _DATA or flit.wid in killed) and kind is not _IDLE:
            return 0
    tx = adapter._tx
    if not tx:
        return span
    record = tx[0]
    wid = record.wid
    wire = adapter.wire_out
    if wid in killed or wire._reverse:
        return 0
    if wire._stop_at_sender:
        return span  # held by STOP
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
    return left if left < span else span


def _receives_payload(adapter: FlitAdapter) -> bool:
    """True when a steady ``adapter`` sinks a DATA stream (progress)."""
    forward = adapter.wire_in._forward
    return bool(forward) and forward[0][1].kind is _DATA


def _wid_of(comp) -> Optional[int]:
    """The worm a component serves: a port's connection, an adapter's
    head worm (None when it sends nothing)."""
    if comp._is_adapter:
        return comp._tx[0].wid if comp._tx else None
    return comp.wid


def _hint(comp, verdict: int, now: int) -> tuple:
    """A source's hint: ``(comp, its worm, verdict, retry tick)``.  A
    source that fails because it is about to inject route bytes keeps
    failing until it has sent them, one a tick at most, so it is not
    tested again before then."""
    retry = 0
    if verdict == _FAILS and comp._is_adapter and comp._tx:
        flits = comp._tx[0].flits
        pos = comp._tx_pos
        while pos < len(flits) and flits[pos].kind is _ROUTE:
            pos += 1
        retry = now + pos - comp._tx_pos
    return comp, _wid_of(comp), verdict, retry


class _Circuit:
    """Components that sleep through one steady span together.

    ``ports`` and ``adapters`` are the members, each listed once;
    ``span`` the ticks their tests allow from the tick the circuit was
    walked; ``dependent`` marks a circuit that may sleep only while
    nothing else is awake (see :meth:`FlitNetwork._sleep_steady`);
    ``receiving`` a circuit one of whose sinks takes payload on every
    tick.  Asleep, it covers ticks ``start + 1`` to ``end``.

    While the steady check walks it: ``source`` is the adapter the walk
    started from; ``failed`` is set once a member fails its test, and
    ``blocker`` names that member, or else the first member that makes
    the circuit dependent; ``need`` is the source when its receive wire
    is in use, so the walk that feeds it must join; ``joins`` holds the
    stamps of other walks of the same round it ran into, and ``parent``
    the walk it was merged into."""

    __slots__ = ("ports", "adapters", "span", "dependent", "receiving",
                 "start", "end", "asleep", "source", "failed", "blocker",
                 "need", "joins", "parent")

    def __init__(self, span: int, source: Optional[FlitAdapter] = None) -> None:
        self.ports: List[InputPort] = []
        self.adapters: List[FlitAdapter] = []
        self.span = span
        self.dependent = False
        self.receiving = False
        self.start = self.end = 0
        self.asleep = False
        self.source = source
        self.failed = False
        self.blocker = None
        self.need: Optional[FlitAdapter] = None
        self.joins: List[int] = []
        self.parent: Optional[_Circuit] = None

    def root(self) -> "_Circuit":
        circuit = self
        while circuit.parent is not None:
            circuit = circuit.parent
        return circuit


#: Verdicts of :func:`_blocks`.
_CLEAR, _DEPENDS, _FAILS = 0, 1, 2


def _blocks(comp, source: FlitAdapter, due: int, killed, span: int,
            flush_at: Optional[int]) -> int:
    """Whether ``comp`` keeps the circuit ``source`` roots from sleeping
    on its own: ``_FAILS`` when it fails its steady test, ``_DEPENDS``
    when it passes but makes the circuit dependent (see
    :func:`_depends`), and ``_CLEAR`` when it does neither."""
    if comp._is_adapter:
        if not _adapter_span(comp, due, killed, span):
            return _FAILS
    elif not _port_span(comp, due, killed, span, flush_at):
        return _FAILS
    return _DEPENDS if _depends(comp, source) else _CLEAR


def _depends(comp, source: FlitAdapter) -> bool:
    """True when ``comp`` would make the circuit ``source`` roots
    dependent if it passed its steady test: a port waiting for a grant or
    holding another worm's flits, or the source itself receiving."""
    if comp._is_adapter:
        return comp is source and bool(comp.wire_in._forward)
    state = comp.state
    if state == _REQUESTING or state == _MC_GRANT:
        return True
    flits = comp.slack._flits
    return bool(flits) and flits[-1].wid != comp.wid


def _apply_span(circuit: _Circuit, span: int, end: int, fills: bool) -> int:
    """Apply ``span`` ticks of a sleeping circuit's steady span, the last
    in tick ``end``, in one step; returns the payload flits its sinks
    took (progress events).

    The bulk counterpart of the per-byte steps each tick runs, so a
    change to one of those must be made here too: ``InputPort.absorb``
    (slack peak), ``CrossbarSwitch._stream`` and ``OutputPort.emit``
    (sent flits, IDLE run), ``Wire.push`` (carried and IDLE flits, last
    push tick), ``FlitAdapter.tick_output`` (the source's position) and
    ``FlitAdapter.tick_input`` (flits received).  A port with flits on
    its input wire passes that one flit on every branch; a base or
    scheme-3 multicast (``fills``) with a flit to send IDLE-fills its
    branches not under STOP; frozen ports and adapters held by STOP
    change nothing.  Every wire in flight into a member holds one flit,
    so its contents stay and its due times shift by ``span``."""
    for port in circuit.ports:
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
    for adapter in circuit.adapters:
        wire = adapter.wire_in
        if wire._forward:
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
    return progress


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


def _downstream_blocker(start, source: FlitAdapter, due: int, killed,
                        span: int, flush_at: Optional[int]):
    """The first component downstream of port ``start`` in its circuit
    (through granted branches, down to sink adapters) that blocks (see
    :func:`_blocks`), with its verdict, or ``(None, _CLEAR)``."""
    stack = [start]
    while stack:
        port = stack.pop()
        outputs = port.switch.outputs
        for branch in port.branches:
            if branch.interrupted or not branch.granted:
                continue
            comp = outputs[branch.port].wire.receiver
            if comp.__class__ is tuple or not comp._active:
                continue
            verdict = _blocks(comp, source, due, killed, span, flush_at)
            if verdict:
                return comp, verdict
            if not comp._is_adapter:
                stack.append(comp)
    return None, _CLEAR


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
        adapters registered in the network's active set.  In :meth:`run`
        each worm's circuit (its source, the ports streaming it and its
        sinks) leaves that set for its steady spans, whose ticks differ
        only in counters, while other circuits tick: every member passes
        a payload or IDLE stream through at link rate, waits for
        upstream, is held by STOP, or IDLE-fills the free branches of a
        blocked multicast.  When every circuit sleeps (the Figure 3
        race's blocked phase, deadlock window included, where ports also
        wait for grants), or nothing is live, the clock jumps.
        It also builds each part on first touch: an input port with its
        slack buffer when a flit is first pushed toward it, an output port
        with its wire when a connection first selects it, and a host
        adapter with its two wires when it is first handed a worm or a
        wire toward it is built.
        ``"dense"`` is the reference loop that builds everything up
        front, polls every switch port and adapter each byte-time and
        never skips a tick.  Both produce byte-identical worm timelines
        and fabric counters (see :mod:`repro.net.flitlevel.crosscheck`).
        ``switches`` and ``adapters`` list everything either way; reading
        an entry builds it whole.
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
        #: The steady tests' scheme-3 threshold (None: nothing is flushed).
        self._flush_at = mc_idle_threshold if self.mode == IDLE_FLUSH else None
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

        #: Place of each switch id in topology order and of each host id
        #: in host order, shared with every network on the topology.
        switch_seq, self._host_seq = topology.node_order()
        #: Base port of each link at each switch end (see _port_at), for
        #: every switch: route bytes name ports before the switch is
        #: built.  Ports follow adjacency order, and a switch-to-switch
        #: link takes ``lanes`` consecutive ports from its base
        #: (host-adapter links always carry one lane).  The topology holds
        #: the numbering, so networks on one topology share it.
        self._ports, width = topology.crossbar_ports(lanes)
        # A base port at BROADCAST_BYTE or above needs a switch that wide.
        if width > BROADCAST_BYTE and max(self._ports) >= BROADCAST_BYTE:
            sid, link = next(
                (sid, link) for sid in topology.switches
                for link in topology.adjacent(sid)
                if self._port_at(sid, link) >= BROADCAST_BYTE
            )
            raise ValueError(
                f"switch {sid}: port index {self._port_at(sid, link)} for "
                f"link {link.id} exceeds the route-byte limit "
                f"({BROADCAST_BYTE - 1}); a switch supports at most "
                f"{BROADCAST_BYTE} ports (degree x lanes) -- reduce the "
                f"radix or lanes={lanes}"
            )
        #: ``_net_seq`` stride per switch: port i of switch s is
        #: ``s * width + i``, so ports sort in the topology's switch order
        #: (switch ids ascend in it), whatever order they are built in.
        self._seq_width = width
        #: Built components.  A switch is built once one of its ports is,
        #: with every port slot empty; ``_whole_switches`` holds those
        #: built whole.  Each link's wires take slots ``[a->b, b->a]`` per
        #: lane (lane l at slots 2l, 2l+1), None until built; whole links
        #: are in ``_whole_links``.  An adapter is built with its wires.
        self._built_switches: Dict[int, CrossbarSwitch] = {}
        self._whole_switches: Dict[int, CrossbarSwitch] = {}
        self._built_links: Dict[int, List[Optional[Wire]]] = {}
        self._whole_links: Dict[int, List[Wire]] = {}
        self._built_adapters: Dict[int, FlitAdapter] = {}
        #: Links this network failed and has not repaired: their wires,
        #: built now or later, are dead.
        self._failed_links: set = set()
        #: Every switch in topology order; reading an entry builds it whole.
        self.switches = _BuildOnRead(
            switch_seq, self._whole_switches, self._build_switch
        )
        #: Every host's adapter in host order; reading an entry builds it.
        self.adapters = _BuildOnRead(
            self._host_seq, self._built_adapters, self._build_adapter
        )
        #: Every link's wires; reading an entry builds them.
        self._link_wires = _BuildOnRead(
            range(len(self._ports) // 2), self._whole_links, self._build_link
        )

        # -- active-set / progress bookkeeping --------------------------------
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
        #: Sleeping circuits (see _sleep_steady) as a heap of
        #: ``(end, seq, circuit)``; entries of woken circuits stay until
        #: popped.  ``_receiving`` counts the sleeping circuits whose sinks
        #: take payload, so run() counts their ticks as progress.
        self._sleepers: List[Tuple[int, int, _Circuit]] = []
        self._sleep_seq = itertools.count()
        self._receiving = 0
        #: Stamp of the last circuit walked; a component visited by a walk
        #: carries that walk's stamp in ``_span_stamp``.
        self._stamp = 0
        #: The component outside every walked circuit that last failed its
        #: steady test (see _sleep_steady); tested first next time.
        self._rest_hint = None
        # Wire hooks, bound once and shared by every wire.  Only the active
        # engine needs receiver wake-ups on the empty->non-empty edge.
        self._track_hook = self._register_site
        self._wake_hook = self._wake_component if self._engine_active else None
        self._touch_hook = self._touch if self._engine_active else None
        self._refresh_down_ports()
        if not self._engine_active:
            # The dense oracle polls everything, in topology and host order.
            for sid in switch_seq:
                self._build_switch(sid)
            self._switch_list = list(self._whole_switches.values())
            self._adapter_list = list(self.adapters.values())

    # -- construction on first touch ------------------------------------------
    def _lanes_of(self, link) -> int:
        """Wire pairs on ``link``: ``lanes`` between switches, one to a host."""
        hosts = self._host_seq
        if link.a in hosts or link.b in hosts:
            return 1
        return self.lanes

    def _port_at(self, sid: int, link) -> int:
        """The base port of ``link`` at switch ``sid``, one of its ends."""
        return self._ports[2 * link.id + (sid != link.a)]

    def _wire(self, link, slot: int) -> Wire:
        """Wire ``slot`` of ``link`` (see ``_built_links``), built on first
        use and shared by both its ends.  A new wire toward a host builds
        that host's adapter; one toward a switch names the receiving port
        as ``(switch id, port)`` and wakes :meth:`_touch`, which builds
        the port, so flits and STOP/GO symbols sent toward an unbuilt port
        are kept.  A wire of a failed link starts dead."""
        wires = self._built_links.get(link.id)
        if wires is None:
            wires = self._built_links[link.id] = (
                [None] * (2 * self._lanes_of(link))
            )
        wire = wires[slot]
        if wire is not None:
            return wire
        wire = wires[slot] = Wire(
            delay=max(1, self.wire_delay + int(link.prop_delay))
        )
        wire.alive = link.id not in self._failed_links
        wire.track = self._track_hook
        receiver = link.a if slot & 1 else link.b
        if receiver in self._host_seq:
            adapter = self.adapters[receiver]
            adapter.wire_in = wire
            wire.receiver = adapter
            wire.notify = self._wake_hook
        else:
            wire.receiver = (receiver, self._port_at(receiver, link) + slot // 2)
            wire.notify = self._touch_hook
        return wire

    def _build_link(self, link_id: int) -> List[Wire]:
        """Every wire of link ``link_id``, for a reader of ``_link_wires``."""
        link = self.topology.link(link_id)
        for slot in range(2 * self._lanes_of(link)):
            self._wire(link, slot)
        wires = self._whole_links[link_id] = self._built_links[link_id]
        return wires

    def _switch(self, sid: int) -> CrossbarSwitch:
        """Switch ``sid``, built on first use with every port slot empty:
        its port layout (each port's link, in ``crossbar_ports`` order)
        and lane groups."""
        switch = self._built_switches.get(sid)
        if switch is not None:
            return switch
        links = []
        groups = []
        for link in self.topology.adjacent(sid):
            lanes = self._lanes_of(link)
            if lanes > 1:
                base = self._port_at(sid, link)
                groups.append(list(range(base, base + lanes)))
            links += [link] * lanes
        switch = CrossbarSwitch(self, sid, links, self.slack_capacity)
        for ports in groups:
            switch.register_lane_group(ports)
        self._built_switches[sid] = switch
        return switch

    def _build_input(self, switch: CrossbarSwitch, index: int) -> InputPort:
        """Input port ``index`` of ``switch`` with its slack buffer, fed
        by the wire its link carries toward the switch on that lane."""
        sid = switch.node_id
        link = switch.links[index]
        lane = index - self._port_at(sid, link)
        # Slot 2l carries a->b, slot 2l+1 carries b->a.
        wire = self._wire(link, 2 * lane + (sid != link.b))
        port = switch.inputs[index] = InputPort(
            switch, index, wire, self.slack_capacity
        )
        port._net_seq = sid * self._seq_width + index
        wire.receiver = port
        wire.notify = self._wake_hook
        return port

    def _build_output(self, switch: CrossbarSwitch, index: int) -> OutputPort:
        """Output port ``index`` of ``switch`` with its outgoing wire: the
        switch builds it when a connection first selects it."""
        sid = switch.node_id
        link = switch.links[index]
        lane = index - self._port_at(sid, link)
        wire = self._wire(link, 2 * lane + (sid == link.b))
        output = switch.outputs[index] = OutputPort(switch, index, wire)
        return output

    def _build_switch(self, sid: int) -> CrossbarSwitch:
        """Build switch ``sid`` whole: every port not built yet, with its
        wires.  The dense engine builds every switch so at construction;
        the active engine builds single ports on first touch (see
        :meth:`_touch`, ``CrossbarSwitch._select_lane``), and whole only
        for a reader of ``switches``.  A built port is idle and inactive,
        so when it is built never changes the byte timeline."""
        switch = self._switch(sid)
        for index, port in enumerate(switch.inputs):
            if port is None:
                self._build_input(switch, index)
        for index, output in enumerate(switch.outputs):
            if output is None:
                self._build_output(switch, index)
        self._whole_switches[sid] = switch
        return switch

    def _build_adapter(self, hid: int) -> FlitAdapter:
        """Host ``hid``'s adapter with both wires of its host link: built
        when it is first handed a worm, or when a wire toward it is."""
        adapter = self._built_adapters[hid] = FlitAdapter(self, hid)
        adapter._net_seq = self._host_seq[hid]
        link = self.topology.host_link(hid)
        out = 0 if hid == link.a else 1
        adapter.wire_out = self._wire(link, out)
        self._wire(link, 1 - out)  # sets wire_in, unless being built
        return adapter

    def _touch(self, end: Tuple[int, int]) -> None:
        """Wake hook of a wire whose receiving port is not built yet:
        build the port, then wake it."""
        sid, index = end
        self._wake_component(self._build_input(self._switch(sid), index))

    def wire_counts(self, link_id: int) -> List[Tuple[int, int]]:
        """``(carried, idles)`` of each wire of a link, in ``[a->b, b->a]``
        per-lane slot order.  A wire never built reads zeros; reading
        never builds."""
        if self._sleepers:
            self._wake_sleepers()
        wires = self._built_links.get(link_id)
        if wires is None:
            link = self.topology.link(link_id)
            return [(0, 0)] * (2 * self._lanes_of(link))
        return [
            (0, 0) if wire is None else (wire.carried, wire.idles)
            for wire in wires
        ]

    def lane_counts(self) -> Tuple[List[int], List[int]]:
        """``(carried, idles)`` per lane, each summed over both wires of
        that lane on every switch-to-switch link (host-adapter links carry
        one lane and are left out).  A wire never built carried nothing,
        so only built wires are read."""
        if self._sleepers:
            self._wake_sleepers()
        carried = [0] * self.lanes
        idles = [0] * self.lanes
        hosts = self._host_seq
        link_of = self.topology.link
        for link_id, wires in self._built_links.items():
            link = link_of(link_id)
            if link.a in hosts or link.b in hosts:
                continue
            for slot, wire in enumerate(wires):
                if wire is not None:
                    carried[slot >> 1] += wire.carried
                    idles[slot >> 1] += wire.idles
        return carried, idles

    def close(self) -> None:
        """Break the reference cycles of a finished network (wire hooks,
        back-references to the switch and the network, scheduled
        closures), so it is freed by reference counting.  Records,
        counters and :meth:`wire_counts` stay readable; the network cannot
        run again, and reading a switch, adapter or link not built whole
        raises."""
        self._wake_sleepers()
        for wires in self._built_links.values():
            for wire in wires:
                if wire is not None:
                    wire.notify = wire.track = wire.receiver = None
        for switch in self._built_switches.values():
            switch.network = None
            for port in switch.inputs:
                if port is not None:
                    port.switch = None
            for output in switch.outputs:
                if output is not None:
                    output.switch = None
        for adapter in self._built_adapters.values():
            adapter.network = None
            adapter._span_hint = None
        self._actions.clear()
        self._track_hook = self._wake_hook = self._touch_hook = None
        self._rest_hint = None
        self.switches._build = self.adapters._build = _closed
        self._link_wires._build = _closed

    # -- active-set engine internals ------------------------------------------
    def _wake_component(self, comp) -> None:
        """Register an input port or adapter for ticking.  No-op in the
        dense engine (which polls everything anyway) and for already-active
        components, so hooks can fire it unconditionally.  A member of a
        sleeping circuit wakes its whole circuit (see _wake_circuit)."""
        if self._engine_active and not comp._active:
            if comp._sleep is not None:
                self._wake_circuit(comp._sleep)
                return
            comp._active = True
            self._n_active += 1
            self._woken.append(comp)

    def _wake_all(self) -> None:
        """Activate every built adapter and input port: used after
        external mutations (fault injection, reconfiguration) whose state
        edges are not covered by the per-wire wake hooks.  An unbuilt
        port or adapter is quiescent.  Spuriously woken components settle
        back out after one no-op tick."""
        wake = self._wake_component
        for switch in self._built_switches.values():
            for port in switch.inputs:
                if port is not None:
                    wake(port)
        for adapter in self._built_adapters.values():
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
        """Take the current up/down tree (Section 3), from which every
        switch reads its broadcast down-link ports (``_down_ports``);
        called at construction and after reconfiguration."""
        self._down_tree = (self.routing.tree_links, self.routing.level)

    def _down_ports(self, sid: int) -> List[int]:
        tree_links, level = self._down_tree
        ports = []
        for link in self.topology.adjacent(sid):
            if link.id in tree_links:
                peer = link.other(sid)
                # A down hop leads away from the root; equal levels go down
                # toward the higher id (UpDownRouting.is_up).
                if (level[peer], peer) > (level[sid], sid):
                    ports.append(self._port_at(sid, link))
        return ports

    # -- fault injection ---------------------------------------------------------
    def fail_link(self, link_id: int) -> List[int]:
        """Cut a link: in-flight flits are destroyed, the worms they belong
        to are expunged (lost, not retransmitted -- network-level loss), and
        the up/down routing reconfigures around the dead link for worms
        injected from now on.  Returns the lost worm ids."""
        self._wake_sleepers()
        self.topology.fail_link(link_id)  # bumps version; routing re-derives
        self._failed_links.add(link_id)
        lost: set = set()
        for wire in self._built_links.get(link_id, ()):
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
        self._wake_sleepers()
        self.topology.repair_link(link_id)
        self._failed_links.discard(link_id)
        if self.obs is not None:
            self.obs.link_fault(self.now, link_id, "repair")
        for wire in self._built_links.get(link_id, ()):
            if wire is not None:
                wire.repair()
        self._refresh_down_ports()
        self._wake_all()

    # -- route helpers -------------------------------------------------------
    def _port_bytes(self, hops) -> List[int]:
        """Header bytes for a hop path: one output-port byte per switch."""
        ports = []
        for a, _b, link in hops[1:]:
            ports.append(self._port_at(a, link))
        return ports

    # -- injection APIs ----------------------------------------------------------
    def _check_host(self, what: str, host) -> None:
        """Raise :class:`ValueError` naming ``host`` unless it is a host."""
        if host not in self._host_seq:
            raise ValueError(f"{what} {host!r} is not a host")

    def send_unicast(
        self, src: int, dst: int, payload_bytes: int = 64, start_delay: int = 0
    ) -> int:
        """Queue a unicast worm; returns its worm id.  Both endpoints
        must be hosts, and distinct: a worm to its own source would carry
        no route byte (raises :class:`ValueError`)."""
        self._check_host("unicast source", src)
        self._check_host("unicast destination", dst)
        if src == dst:
            raise ValueError(
                f"unicast source and destination are both host {src}"
            )
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

        The source and every destination must be hosts, the destinations
        distinct and the source not among them; anything else raises
        :class:`ValueError` naming the id before anything is queued.
        """
        self._check_host("multicast source", src)
        if not dests:
            raise ValueError("multicast needs at least one destination")
        seen = set()
        for dst in dests:
            self._check_host("multicast destination", dst)
            if dst in seen:
                raise ValueError(f"multicast destination {dst} is repeated")
            seen.add(dst)
        if src in seen:
            raise ValueError(f"multicast source {src} is also a destination")
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
        expunged.  Sleeping circuits are caught up first."""
        if wid in self.killed:
            return False
        if self._sleepers:
            self._wake_sleepers()
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
        """Run ``action`` at the top of tick ``now + delay`` (of the next
        tick, when that has passed).  A sleeping circuit wakes before it."""
        at = self.now + delay
        heapq.heappush(self._actions, (at, next(self._action_seq), action))
        if self._sleepers:
            self._cap_sleepers(max(at - 1, self.now))

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
        this tick and only join the iteration from the next tick on.  The
        members of a sleeping circuit are out of the active set too (see
        :meth:`_sleep_steady`); a circuit whose span ends with this tick
        wakes after it.
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
        sleepers = self._sleepers
        if sleepers and sleepers[0][0] <= now:
            self._wake_due()
        return moved

    # -- steady spans ------------------------------------------------------------
    def _walk(self, source: FlitAdapter, stamp: int, base: int, due: int,
              killed, span: int, flush_at: Optional[int], fed: set) -> _Circuit:
        """Walk the circuit ``source`` roots, testing each member.

        The circuit is what the source's stream connects: the source
        adapter, the input port its wire feeds and, through every granted
        branch's output wire, the next port, down to sink adapters, and
        on through a sink's own sending half.  A member that is not
        active (an unbuilt or quiescent port, an idle sink) cannot act
        and is left out.  Each member passes :func:`_port_span` or
        :func:`_adapter_span`, and ``span`` shrinks to the tightest of
        their bounds; the walk stops at the first member that fails.
        Every port is reached from the holder of the output that feeds
        it, so a wire in flight into a member comes from a member, except
        into the source, whose feeder must join (``need``; ``fed``
        collects the adapters reached through their receive wire).  A
        member already visited by another walk of this round (a stamp
        above ``base`` other than ``stamp``) joins the two circuits.  The
        circuit is ``dependent`` when some member waits for a grant
        (``REQUESTING``, ``MC_GRANT``: a release by an awake port grants
        it within the tick), holds flits of another worm in its slack (a
        loss or flush of that worm would change it), or sends on a
        released branch with flits still in flight."""
        circuit = _Circuit(span, source)
        ports = circuit.ports
        adapters = circuit.adapters
        source._span_stamp = stamp
        span = _adapter_span(source, due, killed, span)
        if not span:
            circuit.failed = True
            circuit.blocker = source
            return circuit
        adapters.append(source)
        if source.wire_in._forward:
            circuit.need = source
            circuit.receiving = _receives_payload(source)
        stack = [source.wire_out.receiver]
        while stack:
            comp = stack.pop()
            if comp.__class__ is tuple or not comp._active:
                continue  # unbuilt or quiescent: it cannot act
            seen = comp._span_stamp
            if seen > base:
                if comp._is_adapter:
                    fed.add(comp)
                if seen != stamp:
                    circuit.joins.append(seen)
                continue
            comp._span_stamp = stamp
            if comp._is_adapter:
                span = _adapter_span(comp, due, killed, span)
                if not span:
                    circuit.failed = True
                    circuit.blocker = comp
                    return circuit
                adapters.append(comp)
                if not circuit.receiving:
                    circuit.receiving = _receives_payload(comp)
                if comp._tx:
                    stack.append(comp.wire_out.receiver)
                continue
            span = _port_span(comp, due, killed, span, flush_at)
            if not span:
                circuit.failed = True
                circuit.blocker = comp
                return circuit
            ports.append(comp)
            state = comp.state
            if state == _REQUESTING or state == _MC_GRANT:
                circuit.dependent = True
                if circuit.blocker is None:
                    circuit.blocker = comp
            else:
                flits = comp.slack._flits
                if flits and flits[-1].wid != comp.wid:
                    circuit.dependent = True
                    if circuit.blocker is None:
                        circuit.blocker = comp
            outputs = comp.switch.outputs
            for branch in comp.branches:
                wire = outputs[branch.port].wire
                if branch.interrupted:
                    if wire._forward:
                        circuit.dependent = True
                elif branch.granted:
                    stack.append(wire.receiver)
        circuit.span = span
        return circuit

    def _sleep_steady(self, max_ticks: int, stall_end: Optional[int]) -> int:
        """Put every steady circuit to sleep; returns how many ticks the
        clock may jump, which is 0 unless nothing is left awake.

        Each active source roots a circuit (:meth:`_walk`), and circuits
        that ran into each other are merged.  A merged circuit whose
        members all pass, that is not dependent and whose sources'
        feeders joined it, sleeps while the others tick: it leaves the
        active lists until its span ends, and its members' counters are
        applied when it wakes (:meth:`_wake_circuit`).  When no member of
        any circuit fails, the rest (dependent circuits, and every other
        active component, each of which must pass its own test) sleeps
        as one circuit until the first other sleeper wakes, and the clock
        jumps to the earliest wake; with nothing active that is a
        quiescent gap.

        A span ends before a source reaches its tail, before the next
        scheduled action fires, at ``max_ticks``, and under scheme 3
        before an output's ``idle_run`` reaches ``mc_idle_threshold``.
        A circuit whose sinks take no payload counts no progress, so
        while nothing is scheduled its span also ends at ``stall_end``
        (the tick on which :meth:`run` declares the deadlock, None
        without stall detection).  A circuit that does not sleep leaves
        its sources a hint, the member that failed or made it dependent
        (:func:`_blocks`).  The source is walked again only once that
        member no longer blocks and no member downstream of it does
        (a stream's head moves on one switch at a time).
        """
        if self._woken:
            self._merge_woken()
        now = self.now
        actions = self._actions
        span = max_ticks - now
        if actions:
            if actions[0][0] - now - 1 < span:
                span = actions[0][0] - now - 1
        elif not self._undelivered:
            return 0  # run() ends "delivered" after the next tick
        if span < 1:
            return 0
        due = now + 1
        killed = self.killed
        flush_at = self._flush_at
        base = stamp = self._stamp
        awake = False
        walks = None
        for adapter in self._active_adapters:
            if not adapter._tx or adapter._span_stamp > base:
                continue  # sends nothing, or a walk went through it
            hint = adapter._span_hint
            if hint is not None:
                comp, wid, verdict, retry = hint
                if now < retry:
                    awake = True
                    continue
                if comp._active and _wid_of(comp) == wid:
                    # A dependent circuit cannot sleep on its own while
                    # its blocker still makes it so; the rest, which tests
                    # its members, decides whether it sleeps with all.
                    if verdict == _DEPENDS and _depends(comp, adapter):
                        continue
                    verdict = _blocks(comp, adapter, due, killed, span,
                                      flush_at)
                    if not verdict and not comp._is_adapter:
                        comp, verdict = _downstream_blocker(
                            comp, adapter, due, killed, span, flush_at
                        )
                    if verdict:
                        adapter._span_hint = _hint(comp, verdict, now)
                        if verdict == _FAILS:
                            awake = True
                        continue
                adapter._span_hint = None
            if walks is None:
                walks = []
                fed: set = set()
            stamp += 1
            walks.append(self._walk(adapter, stamp, base, due, killed, span,
                                    flush_at, fed))
        held: List[_Circuit] = []
        if walks is not None:
            self._stamp = stamp
            if self._settle_walks(walks, base, fed, held, stall_end):
                awake = True
        if awake:
            return 0
        # Nothing walked fails: the rest sleeps too, or nothing does.  The
        # member of the rest that failed last time is tested first.
        hint = self._rest_hint
        if hint is not None and hint._active and hint._span_stamp <= base:
            if hint._is_adapter:
                if not _adapter_span(hint, due, killed, span):
                    return 0
            elif not _port_span(hint, due, killed, span, flush_at):
                return 0
        ports = []
        for port in self._active_ports:
            if port._span_stamp <= base:
                span = _port_span(port, due, killed, span, flush_at)
                if not span:
                    self._rest_hint = port
                    return 0
                ports.append(port)
        adapters = []
        for adapter in self._active_adapters:
            if adapter._span_stamp <= base:
                span = _adapter_span(adapter, due, killed, span)
                if not span:
                    self._rest_hint = adapter
                    return 0
                adapters.append(adapter)
        sleepers = self._sleepers
        if ports or adapters or held:
            fabric = _Circuit(span)
            fabric.ports = ports
            fabric.adapters = adapters
            fabric.receiving = any(map(_receives_payload, adapters))
            for circuit in held:
                if circuit.span < span:
                    span = circuit.span
                ports += circuit.ports
                adapters += circuit.adapters
                fabric.receiving = fabric.receiving or circuit.receiving
            while sleepers and not sleepers[0][2].asleep:
                heapq.heappop(sleepers)
            if sleepers and sleepers[0][0] - now < span:
                span = sleepers[0][0] - now
            fabric.span = span
            self._sleep(fabric, stall_end)
            self._active_ports = []
            self._active_adapters = []
        while sleepers and not sleepers[0][2].asleep:
            heapq.heappop(sleepers)
        if sleepers:
            return sleepers[0][0] - now
        if stall_end is not None and stall_end - now < span:
            span = stall_end - now
        return span

    def _settle_walks(self, walks: List[_Circuit], base: int, fed: set,
                      held: List[_Circuit], stall: Optional[int]) -> bool:
        """Merge this round's walks that ran into each other, put every
        merged circuit that may sleep on its own to sleep, collect the
        dependent ones in ``held`` and leave each source of a circuit
        that stays awake its blocker as hint.  Returns True when a member
        failed."""
        for circuit in walks:
            for seen in circuit.joins:
                other = walks[seen - base - 1].root()
                mine = circuit.root()
                if other is not mine:
                    other.parent = mine
        tops: List[_Circuit] = []
        for circuit in walks:
            need = circuit.need
            if need is not None and need not in fed:
                circuit.dependent = True
                if circuit.blocker is None:
                    circuit.blocker = need
            top = circuit.root()
            if top is circuit:
                tops.append(circuit)
                continue
            top.ports += circuit.ports
            top.adapters += circuit.adapters
            top.span = min(top.span, circuit.span)
            top.receiving = top.receiving or circuit.receiving
            if circuit.failed and not top.failed:
                top.failed = True
                top.blocker = circuit.blocker
            elif circuit.dependent and not top.dependent:
                top.dependent = True
                if not top.failed:
                    top.blocker = circuit.blocker
        failed = slept = False
        for top in tops:
            if top.failed:
                failed = True
            elif top.dependent:
                held.append(top)
            else:
                self._sleep(top, stall)
                slept = True
        for circuit in walks:
            top = circuit.root()
            blocker = top.blocker
            if top.asleep or blocker is None:
                continue
            circuit.source._span_hint = _hint(
                blocker, _FAILS if top.failed else _DEPENDS, self.now
            )
        if slept:
            self._active_ports = [p for p in self._active_ports if p._active]
            self._active_adapters = [
                a for a in self._active_adapters if a._active
            ]
        return failed

    def _sleep(self, circuit: _Circuit, stall: Optional[int]) -> None:
        """Take ``circuit``'s members out of the active set until its span
        ends; a circuit without payload into a sink ends at ``stall``."""
        now = self.now
        span = circuit.span
        if stall is not None and not circuit.receiving:
            span = min(span, stall - now)
        circuit.start = now
        circuit.end = now + span
        circuit.asleep = True
        for comp in circuit.ports:
            comp._active = False
            comp._sleep = circuit
        for comp in circuit.adapters:
            comp._active = False
            comp._sleep = circuit
        self._n_active -= len(circuit.ports) + len(circuit.adapters)
        if circuit.receiving:
            self._receiving += 1
        heapq.heappush(
            self._sleepers, (circuit.end, next(self._sleep_seq), circuit)
        )

    def _wake_circuit(self, circuit: _Circuit) -> None:
        """Catch a sleeping circuit up to the current tick (its skipped
        ticks' counters, applied by :func:`_apply_span`) and return its
        members to the active set, from the next tick on, in dense
        order.  Any tick up to its span's end may wake it: a member's
        steady step does not read what woke it (a flit pushed now is due
        next tick at the earliest)."""
        circuit.asleep = False
        now = self.now
        span = now - circuit.start
        if span:
            self._progress_events += _apply_span(
                circuit, span, now, self.mode != INTERRUPT
            )
        if circuit.receiving:
            self._receiving -= 1
        woken = self._woken
        for comp in circuit.ports:
            comp._sleep = None
            comp._active = True
            woken.append(comp)
        for comp in circuit.adapters:
            comp._sleep = None
            comp._active = True
            woken.append(comp)
        self._n_active += len(circuit.ports) + len(circuit.adapters)

    def _wake_due(self) -> None:
        """Wake the circuits whose span ends at the current tick."""
        sleepers = self._sleepers
        now = self.now
        while sleepers and sleepers[0][0] <= now:
            circuit = heapq.heappop(sleepers)[2]
            if circuit.asleep:
                self._wake_circuit(circuit)

    def _wake_sleepers(self) -> None:
        """Wake every sleeping circuit: what reads the fabric from outside
        the tick loop sees it caught up."""
        sleepers = self._sleepers
        while sleepers:
            circuit = heapq.heappop(sleepers)[2]
            if circuit.asleep:
                self._wake_circuit(circuit)

    def _cap_sleepers(self, end: int) -> None:
        """End every sleeping circuit's span by tick ``end`` at the latest
        (an action was scheduled for the tick after it)."""
        capped = [
            circuit for _end, _seq, circuit in self._sleepers
            if circuit.asleep and circuit.end > end
        ]
        for circuit in capped:
            circuit.end = end
            heapq.heappush(
                self._sleepers, (end, next(self._sleep_seq), circuit)
            )

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
        lets each worm's circuit sleep through its steady spans
        (:meth:`_sleep_steady`) while other circuits tick: in a steady
        span every member repeats its last tick -- it passes a payload or
        IDLE stream through at link rate, waits for upstream, is held by
        STOP, or IDLE-fills a blocked multicast's free branches -- so its
        ticks differ only in counters, which :func:`_apply_span` applies
        in one step when the circuit wakes.  A circuit whose port waits
        for a grant sleeps only while nothing else is awake.  When
        nothing is awake (every circuit asleep, or nothing live and only
        scheduled actions such as flush backoffs and delayed injections
        left) the clock jumps to the earliest wake; a sleeping circuit
        whose sinks take payload counts as progress on every tick it
        sleeps, and with no payload and nothing scheduled the jump ends on
        the tick the stall window declares the deadlock.  Header bytes,
        grants, tails, STOP/GO changes and slack buffers filling or
        draining still tick.  Outcomes and fabric counters are
        byte-identical to the dense engine's (see
        :mod:`repro.net.flitlevel.crosscheck`), and the run returns with
        every circuit awake.
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
            jump = 0
            if self._engine_active:
                jump = self._sleep_steady(
                    max_ticks,
                    None if quiet_limit is None or self._actions
                    else last_progress + quiet_limit,
                )
            if jump:
                # Nothing is awake: skip to the earliest wake.
                self.now += jump
                self._wake_due()
            else:
                self.tick()
                if not self._undelivered and not self._actions:
                    # Pending scheduled actions (delayed injections, fault
                    # events a caller scheduled) keep the run alive even
                    # with nothing currently in flight.
                    self._wake_sleepers()
                    return "delivered"
            events = self._progress_events
            # A pending action, and a sleeping circuit taking payload,
            # count as progress on every tick.
            if events != last_events or self._actions or self._receiving:
                last_events = events
                last_progress = self.now
            elif (
                quiet_limit is not None
                and self.now - last_progress >= quiet_limit
            ):
                self._wake_sleepers()
                if raise_on_deadlock:
                    raise DeadlockDetected(last_progress, self.pending_worms())
                return "deadlock"
        self._wake_sleepers()
        return "timeout"

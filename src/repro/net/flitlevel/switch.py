"""The crossbar switch at byte granularity.

Each input port has a slack buffer (STOP/GO per Figure 1) and a streaming
header processor; each output port has round-robin arbitration among
requesting inputs.  Unicast worms have their leading route byte stripped;
multicast worms are replicated in the crossbar according to the
tree-encoded source route, processed exactly as Section 3 describes: *read
the port number and pointer value, copy the bytes indicated by the pointer
to that port (followed by an end-of-route marker), repeat until the end of
route marker is read, then copy the incoming worm amongst the outgoing
ports*.  Branches are therefore acquired sequentially, in header order, as
the header bytes arrive -- the timing that makes the Figure 3 deadlock
physically possible in the base scheme.

The blocked-branch behaviour during payload replication is selected by the
network's :class:`~repro.net.flitlevel.network.MulticastMode`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.flitlevel.slack import SlackBuffer
from repro.net.flitlevel.wire import Wire
from repro.core.route_encoding import END_MARKER

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flitlevel.network import FlitNetwork

#: Header byte instructing a switch to broadcast on all its down links.
BROADCAST_BYTE = 0xFE

IDLE_FILL = "idle_fill"
INTERRUPT = "interrupt"
IDLE_FLUSH = "idle_flush"


class _Branch:
    """One output leg of a connection.

    ``header`` accumulates the bytes stamped on this branch so scheme 2
    can resume an interrupted branch by replaying them.
    """

    __slots__ = ("port", "header", "replay_pos", "granted", "interrupted")

    def __init__(self, port: int) -> None:
        self.port = port
        self.header: List[int] = []
        self.replay_pos = 0
        self.granted = False
        self.interrupted = False


class InputPort:
    """Input side: slack buffer + streaming connection state machine.

    The input port is the active-set engine's unit of scheduling (see
    FlitNetwork._tick_active): its output ports are passive, so a port
    that is idle, empty and not signalling STOP has nothing to tick.
    """

    _is_adapter = False

    IDLE = "idle"
    # Multicast header sub-phases.
    MC_PORT = "mc_port"          # expecting a port byte (or end marker)
    MC_GRANT = "mc_grant"        # waiting for the current branch's output
    MC_POINTER = "mc_pointer"    # expecting the pointer byte
    MC_SEGMENT = "mc_segment"    # copying segment bytes to the branch
    MC_LEAF_MARK = "mc_leaf"     # emitting the end marker for a leaf branch
    # Unicast / broadcast single grant.
    REQUESTING = "requesting"
    # Replicating payload.
    STREAMING = "streaming"

    def __init__(self, switch: "CrossbarSwitch", index: int, wire: Wire,
                 slack_capacity: int) -> None:
        self.switch = switch
        self.index = index
        self.wire = wire
        self.slack = SlackBuffer(capacity=slack_capacity)
        self.state = self.IDLE
        self.wid: Optional[int] = None
        self.is_multicast = False
        self.branches: List[_Branch] = []
        self._segment_left = 0
        self._broadcast_stamped = False
        # Starts False (the wire's default sender-side state), so a drained
        # port never owes its upstream a redundant GO symbol.
        self._last_stop = False
        #: Last worm id registered in the network's per-worm site index;
        #: worms stream contiguously, so one comparison per flit suffices.
        self._site_wid: Optional[int] = None
        #: Active-set engine bookkeeping (see FlitNetwork._tick_active):
        #: ``_active`` registers the port for ticking, ``_moved`` records
        #: per-tick activity, ``_net_seq`` restores dense iteration order.
        self._active = False
        self._moved = False
        self._net_seq = 0

    @property
    def current_branch(self) -> _Branch:
        return self.branches[-1]

    def quiescent(self) -> bool:
        """True when ticking this port is provably a no-op: it is
        disconnected, its slack and input wire are empty, and no STOP is
        latched (so the STOP/GO hysteresis cannot flip).  Anything that can
        change this (a wire push, a fault) re-activates the port through
        the network's wake hooks."""
        slack = self.slack
        return (
            self.state == self.IDLE
            and not self._last_stop
            and not slack._flits
            and not slack.stopping
            and not self.wire._forward
        )

    # -- input phase ------------------------------------------------------------
    def absorb(self, now: int) -> bool:
        """Pull the arriving flit (if any) into slack; returns True on
        activity."""
        flit = self.wire.deliver(now)
        moved = False
        if flit is not None:
            network = self.switch.network
            if flit.wid in network.killed:
                moved = True  # flushed worm drains away
            else:
                if flit.wid != self._site_wid:
                    self._site_wid = flit.wid
                    if flit.wid is not None:
                        network._register_site(flit.wid, self.switch)
                self.slack.push(flit)
                moved = True
        stop = self.slack.desired_stop()
        if stop != self._last_stop:
            self.wire.signal_stop(stop, now)
            self._last_stop = stop
        return moved

    # -- teardown -------------------------------------------------------------------
    def disconnect(self) -> None:
        for branch in self.branches:
            # Release grants and withdraw queued (waiting) requests alike,
            # so no stale arbitration entry survives a teardown or flush.
            self.switch.outputs[branch.port].release(self.index)
        self.branches = []
        self.wid = None
        self.is_multicast = False
        self._segment_left = 0
        self._broadcast_stamped = False
        self.state = self.IDLE

    def drop_worm(self, wid: int) -> None:
        """Backward-reset this input if it carries the flushed worm."""
        if self.wid == wid:
            self.disconnect()
        self.slack.drop_worm(wid)


class OutputPort:
    """Output side: one connection at a time, round-robin grants."""

    def __init__(self, switch: "CrossbarSwitch", index: int, wire: Wire) -> None:
        self.switch = switch
        self.index = index
        self.wire = wire
        self.holder: Optional[int] = None  # input index
        self.waiting: List[int] = []
        self.idle_run = 0
        self.mc_idle_threshold = switch.network.mc_idle_threshold
        self.sent_flits = 0

    @property
    def busy(self) -> bool:
        return self.holder is not None

    @property
    def multicast_idle_flagged(self) -> bool:
        """Scheme 3: the port has been transmitting IDLE long enough to be
        presumed filled by a blocked multicast."""
        return self.idle_run >= self.mc_idle_threshold

    def request(self, input_index: int) -> None:
        if self.holder == input_index:
            # Already holding the port (e.g. a fresh worm on an input that
            # was granted while idle): just mark the branch granted.
            for branch in self.switch.inputs[input_index].branches:
                if branch.port == self.index:
                    branch.granted = True
            return
        if input_index not in self.waiting:
            self.waiting.append(input_index)
        self._grant()

    def release(self, input_index: int) -> None:
        if self.holder == input_index:
            self.holder = None
            self.idle_run = 0
            self._grant()
        elif input_index in self.waiting:
            self.waiting.remove(input_index)

    def _grant(self) -> None:
        if self.holder is None and self.waiting:
            self.holder = self.waiting.pop(0)
            for branch in self.switch.inputs[self.holder].branches:
                if branch.port == self.index:
                    branch.granted = True
                    # NOTE: branch.interrupted is managed by the stream
                    # logic -- an interrupted branch stays interrupted until
                    # its header replay completes.

    def held_by(self, input_index: int) -> bool:
        return self.holder == input_index

    def ready(self, now: int) -> bool:
        """Can this port emit a flit this tick?"""
        return self.wire.can_push(now) and not self.wire.stop_at_sender(now)

    def emit(self, flit: Flit, now: int) -> None:
        self.wire.push(flit, now)
        self.sent_flits += 1
        if flit.kind is FlitKind.IDLE:
            self.idle_run += 1
        else:
            self.idle_run = 0


class CrossbarSwitch:
    """One crossbar: input ports, output ports, and the forwarding rules."""

    _is_adapter = False

    def __init__(
        self,
        network: "FlitNetwork",
        node_id: int,
        slack_capacity: int = 32,
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.slack_capacity = slack_capacity
        self.inputs: List[InputPort] = []
        self.outputs: List[OutputPort] = []
        self.down_ports: List[int] = []
        #: Virtual-channel lane groups: base port index -> the consecutive
        #: port indices (one per lane) multiplexed over that physical link.
        #: Route bytes always name the base; :meth:`_select_lane` maps the
        #: base to the lane the connection will actually hold.  Links built
        #: with a single lane are not registered (the base maps to itself).
        self.lane_groups: Dict[int, List[int]] = {}
        self._lane_rr: Dict[int, int] = {}
        self.forwarded_worms = 0

    def add_port(self, wire_in: Wire, wire_out: Wire) -> int:
        index = len(self.inputs)
        self.inputs.append(InputPort(self, index, wire_in, self.slack_capacity))
        self.outputs.append(OutputPort(self, index, wire_out))
        return index

    def paired_output(self, input_index: int) -> int:
        return input_index

    def register_lane_group(self, ports: List[int]) -> None:
        """Declare that ``ports`` (consecutive, lane order) multiplex one
        physical link; ``ports[0]`` is the base index that route bytes
        address."""
        base = ports[0]
        self.lane_groups[base] = list(ports)
        self._lane_rr[base] = 0

    def _select_lane(self, base: int) -> int:
        """Deterministic virtual-channel allocation at header time.

        A route byte names the *physical* link (the lane group's base
        port); the connection is then established on one of the group's
        lanes, each with its own wire pair, slack buffer and STOP/GO
        credit.  Policies (``network.vc_policy``):

        ``first_free``
            Fixed-priority: the first idle lane in lane order; when all
            lanes are held, the least-contended lane (holder plus queued
            waiters), ties to the lowest lane.
        ``round_robin``
            A per-link pointer rotates one lane per allocation; the scan
            for an idle lane starts at the pointer.

        Both read only output holder/waiting state, which both engines
        mutate in dense port order, so allocation is byte-identical across
        dense and active.
        """
        group = self.lane_groups.get(base)
        if group is None:
            return base
        outputs = self.outputs
        if self.network.vc_policy == "round_robin":
            n = len(group)
            start = self._lane_rr[base]
            self._lane_rr[base] = (start + 1) % n
            choice = group[start]
            for off in range(n):
                cand = group[(start + off) % n]
                out = outputs[cand]
                if out.holder is None and not out.waiting:
                    return cand
            return choice
        best = group[0]
        best_load = None
        for cand in group:
            out = outputs[cand]
            load = (0 if out.holder is None else 1) + len(out.waiting)
            if load == 0:
                return cand
            if best_load is None or load < best_load:
                best, best_load = cand, load
        return best

    # -- tick -------------------------------------------------------------------
    def tick_input(self, now: int) -> bool:
        moved = False
        for port in self.inputs:
            if port.absorb(now):
                moved = True
        return moved

    def tick_output(self, now: int) -> bool:
        moved = False
        for port in self.inputs:
            if self._advance(port, now):
                moved = True
        return moved

    def _advance(self, port: InputPort, now: int) -> bool:
        state = port.state
        if state == InputPort.IDLE:
            return self._start_worm(port)
        if state in (
            InputPort.MC_PORT,
            InputPort.MC_GRANT,
            InputPort.MC_POINTER,
            InputPort.MC_SEGMENT,
            InputPort.MC_LEAF_MARK,
        ):
            return self._advance_mc_header(port, now)
        if state == InputPort.REQUESTING:
            return self._advance_request(port, now)
        if state == InputPort.STREAMING:
            return self._stream(port, now)
        return False

    # -- worm start -----------------------------------------------------------------
    def _start_worm(self, port: InputPort) -> bool:
        front = port.slack.front()
        if front is None:
            return False
        if front.kind == FlitKind.IDLE or front.kind == FlitKind.FRAG_TAIL:
            port.slack.pop()  # stray residue between worms
            return True
        if front.kind != FlitKind.ROUTE:
            port.slack.pop()  # flushed-worm leftovers
            return True
        port.wid = front.wid
        if front.broadcast:
            port.is_multicast = True
            port.slack.pop()
            if front.value == BROADCAST_BYTE:
                # At (or past) the root: fan out on every down link; the
                # climb covered nobody, so no exclusions (the crossbar can
                # connect an input to its own port's output).
                port.branches = [
                    _Branch(self._select_lane(p)) for p in self.down_ports
                ]
                for branch in port.branches:
                    branch.header = [BROADCAST_BYTE]
            else:
                port.branches = [_Branch(self._select_lane(front.value))]
            port.state = InputPort.REQUESTING
            return True
        if front.multicast:
            port.is_multicast = True
            port.state = InputPort.MC_PORT
            return True
        # Unicast: strip the leading route byte.
        port.is_multicast = False
        port.slack.pop()
        port.branches = [_Branch(self._select_lane(front.value))]
        port.state = InputPort.REQUESTING
        return True

    # -- multicast streaming header (the paper's algorithm) -----------------------
    def _advance_mc_header(self, port: InputPort, now: int) -> bool:
        moved = False
        # Process at most one header byte per tick (link rate).
        state = port.state
        if state == InputPort.MC_PORT:
            front = port.slack.front()
            if front is None or front.kind != FlitKind.ROUTE:
                return False
            if front.value == END_MARKER:
                port.slack.pop()
                port.state = InputPort.STREAMING
                return True
            port.slack.pop()
            branch = _Branch(self._select_lane(front.value))
            port.branches.append(branch)
            self.outputs[branch.port].request(port.index)
            port.state = InputPort.MC_GRANT
            return True
        if state == InputPort.MC_GRANT:
            branch = port.current_branch
            if not branch.granted:
                self._maybe_flush_unicast_victim(port, branch, now)
                return False
            port.state = InputPort.MC_POINTER
            return True
        if state == InputPort.MC_POINTER:
            front = port.slack.front()
            if front is None or front.kind != FlitKind.ROUTE:
                return False
            port.slack.pop()
            port._segment_left = front.value
            if port._segment_left == 0:
                port.state = InputPort.MC_LEAF_MARK
            else:
                port.state = InputPort.MC_SEGMENT
            return True
        if state == InputPort.MC_LEAF_MARK:
            branch = port.current_branch
            output = self.outputs[branch.port]
            if not output.ready(now):
                return False
            output.emit(
                Flit(FlitKind.ROUTE, port.wid, value=END_MARKER, multicast=True),
                now,
            )
            branch.header.append(END_MARKER)
            port.state = InputPort.MC_PORT
            return True
        if state == InputPort.MC_SEGMENT:
            front = port.slack.front()
            if front is None or front.kind != FlitKind.ROUTE:
                return False
            branch = port.current_branch
            output = self.outputs[branch.port]
            if not output.ready(now):
                return False
            port.slack.pop()
            output.emit(
                Flit(FlitKind.ROUTE, port.wid, value=front.value, multicast=True),
                now,
            )
            branch.header.append(front.value)
            port._segment_left -= 1
            if port._segment_left == 0:
                port.state = InputPort.MC_PORT
            return True
        return moved

    # -- unicast / broadcast request phase ---------------------------------------
    def _advance_request(self, port: InputPort, now: int) -> bool:
        for branch in port.branches:
            if not branch.granted:
                self.outputs[branch.port].request(port.index)
        ungranted = [b for b in port.branches if not b.granted]
        if ungranted:
            for branch in ungranted:
                self._maybe_flush_unicast_victim(port, branch, now)
            return False
        # Broadcast branches stamp their one-byte header before payload.
        if port.branches and port.branches[0].header and not port._broadcast_stamped:
            done = True
            for branch in port.branches:
                if branch.replay_pos < len(branch.header):
                    output = self.outputs[branch.port]
                    if output.ready(now):
                        value = branch.header[branch.replay_pos]
                        branch.replay_pos += 1
                        output.emit(
                            Flit(
                                FlitKind.ROUTE,
                                port.wid,
                                value=value,
                                broadcast=True,
                            ),
                            now,
                        )
                    if branch.replay_pos < len(branch.header):
                        done = False
            if not done:
                return True
            port._broadcast_stamped = True
        port.state = InputPort.STREAMING
        return True

    def _maybe_flush_unicast_victim(
        self, port: InputPort, branch: _Branch, now: int
    ) -> None:
        """Scheme 3: a *unicast* blocked by a multicast-IDLE-flagged port is
        flushed from the network (backward reset)."""
        if self.network.mode != IDLE_FLUSH or port.is_multicast:
            return
        output = self.outputs[branch.port]
        if output.busy and output.multicast_idle_flagged:
            self.network.flush(port.wid, reason="blocked by multicast-IDLE port")

    # -- payload replication ---------------------------------------------------------
    def _stream(self, port: InputPort, now: int) -> bool:
        mode = self.network.mode
        branches = port.branches
        outputs = self.outputs

        if not branches:
            # A multicast header with zero branches cannot occur (encoders
            # reject empty trees); defensive teardown.
            port.disconnect()
            return False

        # Scheme 2 resume: once the branches that caused the interrupt can
        # move again, re-acquire the interrupted ports and replay headers.
        # Only scheme 2 ever interrupts a branch.
        interrupted = (
            [b for b in branches if b.interrupted] if mode == INTERRUPT else None
        )
        if interrupted:
            blocked_ready = all(
                outputs[b.port].ready(now)
                for b in branches
                if not b.interrupted
            )
            if not blocked_ready:
                return False
            for branch in interrupted:
                if not branch.granted:
                    outputs[branch.port].request(port.index)
            if any(not b.granted for b in branches):
                return False
            moved = False
            replaying = False
            for branch in interrupted:
                if branch.replay_pos < len(branch.header):
                    replaying = True
                    output = outputs[branch.port]
                    if output.ready(now):
                        value = branch.header[branch.replay_pos]
                        branch.replay_pos += 1
                        output.emit(
                            Flit(
                                FlitKind.ROUTE, port.wid, value=value, multicast=True
                            ),
                            now,
                        )
                        moved = True
                    if branch.replay_pos < len(branch.header):
                        replaying = True
            if replaying:
                return moved
            for branch in interrupted:
                branch.interrupted = False

        slack = port.slack
        if slack.front() is None:
            # Hole in the stream: upstream is slower.  The outputs need not
            # be asked yet: STOP/GO symbols apply lazily on the next read.
            return False

        if len(branches) == 1:
            output = outputs[branches[0].port]
            if not output.ready(now):
                return False  # unicast: wait; backpressure does the rest
            flit = slack.pop()
            output.emit(flit, now)
        else:
            ready = [outputs[b.port].ready(now) for b in branches]
            if all(ready):
                # Flits are immutable: every branch carries the same object.
                flit = slack.pop()
                for branch in branches:
                    outputs[branch.port].emit(flit, now)
            elif mode == INTERRUPT:
                # Non-blocked branches interrupt altogether: stamp a
                # fragment tail (tearing down the downstream path), release
                # the port, and remember the header for the resume replay.
                moved = False
                for branch, is_ready in zip(branches, ready):
                    if is_ready and branch.granted and not branch.interrupted:
                        output = outputs[branch.port]
                        output.emit(
                            Flit(FlitKind.FRAG_TAIL, port.wid, multicast=True), now
                        )
                        output.release(port.index)
                        branch.granted = False
                        branch.interrupted = True
                        branch.replay_pos = 0
                        moved = True
                return moved
            else:
                # Base scheme (and scheme 3): fill the non-blocked branches
                # with IDLE characters -- the bandwidth waste (and deadlock
                # fuel) of Figure 3.
                moved = False
                for branch, is_ready in zip(branches, ready):
                    if is_ready:
                        outputs[branch.port].emit(
                            Flit(FlitKind.IDLE, port.wid, multicast=True), now
                        )
                        moved = True
                return moved
        kind = flit.kind
        if kind is FlitKind.TAIL:
            self.forwarded_worms += 1
            port.disconnect()
        elif kind is FlitKind.FRAG_TAIL:
            # A fragment boundary from an upstream interrupt: the path
            # tears down here too; the resume header re-establishes it.
            port.disconnect()
        return True

    # -- flush support ------------------------------------------------------------
    def drop_worm(self, wid: int) -> None:
        for port in self.inputs:
            if port.wid == wid:
                port.disconnect()
            port.slack.drop_worm(wid)
        for output in self.outputs:
            holder = output.holder
            if holder is not None and self.inputs[holder].wid == wid:
                output.release(holder)

"""The host-adapter multicast engine (Sections 4, 5 and 6).

Worm replication and retransmission happen entirely in the host adapters
(the LANai cards in Myrinet): multicast worms look like ordinary unicast
worms to the crossbar switches.  An adapter that receives a multicast worm

1. recognizes it by the multicast group ID in the header,
2. runs the *implicit buffer reservation* admission test (Figure 5): if the
   full worm fits in the adapter's buffer pool (of the proper class) it is
   accepted and acknowledged, otherwise it is dropped and NACKed, and the
   upstream adapter retransmits after a randomized timeout,
3. copies the worm to its local host, and
4. retransmits it to its successor(s) in the group's predefined structure
   (Hamiltonian circuit or rooted tree), in cut-through mode when enabled
   and the output port is free, store-and-forward otherwise.

Buffer deadlocks are prevented by the two-buffer-class rule
(:mod:`repro.core.buffers`): buffer requests always point to a higher host
ID or a higher buffer class.  Total ordering is provided by serializing all
of a group's messages through its lowest-ID host (circuit) or root (tree);
serialized distribution legs use class 2 so that class-1 arrows point only
towards lower IDs (relay legs) and class-2 arrows only towards higher IDs.

Matching the paper's simulator (Section 7) and the Myrinet implementation,
the adapter never backpressures the network: an arriving worm is always
drained off the wire; "acceptance" decides whether it is buffered and
forwarded or dropped for upstream retransmission.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.core.buffers import BufferClaim, BufferClasses
from repro.core.credit import CreditController
from repro.core.groups import GroupTable, MulticastGroup
from repro.core.hamiltonian import HamiltonianCircuit
from repro.core.tree import RootedTree
from repro.net.worm import CONTROL_WORM_BYTES, Worm, WormKind
from repro.net.wormnet import Transfer, WormholeNetwork
from repro.sim.engine import Simulator
from repro.sim.monitor import TallyStat
from repro.sim.rng import RandomStreams

_message_ids = itertools.count(1)


class Scheme(str, Enum):
    """How a group's members are structured for forwarding.

    ``REPEATED_UNICAST`` is the baseline the paper criticizes in Section 1:
    the current Myrinet host software multicasts by sending one unicast
    copy per destination from the source, which ties up the source
    interface for the whole session and cannot enforce total ordering.
    """

    HAMILTONIAN = "hamiltonian"
    TREE = "tree"
    TREE_BROADCAST = "tree_broadcast"
    REPEATED_UNICAST = "repeated_unicast"
    #: The [VLB96] centralized-credit baseline: binary-tree multicast gated
    #: by cumulative credits from a central manager (see repro.core.credit).
    CREDIT_TREE = "credit_tree"


class AcceptancePolicy(str, Enum):
    """What an adapter does when a multicast worm arrives.

    * ``ALWAYS`` -- ample buffering; every worm is accepted (the regime of
      the paper's latency simulations).
    * ``NACK`` -- implicit reservation: insufficient buffer drops the worm
      and NACKs; the upstream adapter retransmits after a timeout
      (Figure 5).
    * ``WAIT`` -- the arriving worm waits for buffer space instead of being
      dropped.  Without the two-buffer-class rule this is the
      deadlock-prone configuration of Figure 6.
    """

    ALWAYS = "always"
    NACK = "nack"
    WAIT = "wait"


class ProtocolError(RuntimeError):
    """A protocol invariant was violated (e.g. retry budget exhausted)."""


@dataclass
class AdapterConfig:
    """Host adapter behaviour knobs.

    Attributes
    ----------
    cut_through:
        Forward to the first successor while the worm is still being
        received, when the output port is free (Sections 5/6).  Off =
        store-and-forward at every member (the Myrinet implementation).
    acceptance:
        See :class:`AcceptancePolicy`.
    buffer_bytes:
        Per-class adapter buffer capacity in bytes (``inf`` = unlimited).
    dma_extension_bytes:
        Shared host-DMA overflow pool ([VLB96] extension; 0 disables).
    use_buffer_classes:
        Apply the two-buffer-class rule.  Disabling it demonstrates the
        Figure 6 buffer deadlock under the WAIT policy.
    model_acks:
        Send explicit ACK/NACK control worms through the network (adds
        their latency and load).  When off, the sender learns the
        admission outcome with the worm's tail -- the idealization the
        paper's simulator uses.
    retry_timeout:
        Base retransmission timeout after a NACK, byte-times.
    retry_jitter:
        The timeout is multiplied by ``1 + U(0, retry_jitter)`` (the
        paper's 'random time out').
    max_retries:
        Abort (raise ProtocolError) after this many NACK retries.
    copy_latency:
        Adapter-to-host copy time added to each local delivery.
    confirm_return:
        Hamiltonian only: let the worm travel the full circuit back to the
        originator as a delivery confirmation (Section 5).
    total_ordering:
        Serialize every message of a group through its lowest-ID host
        (circuit) or root (tree); assigns sequence numbers.
    """

    cut_through: bool = False
    acceptance: AcceptancePolicy = AcceptancePolicy.ALWAYS
    buffer_bytes: float = math.inf
    dma_extension_bytes: float = 0.0
    use_buffer_classes: bool = True
    model_acks: bool = False
    retry_timeout: float = 2000.0
    retry_jitter: float = 1.0
    max_retries: int = 100
    copy_latency: float = 0.0
    confirm_return: bool = False
    #: With confirm_return: if the worm has not come home within this many
    #: byte-times, retransmit the whole circuit (Section 5: 'combined with
    #: timeout and retransmission, this facility could provide the
    #: guarantee of reliable delivery' on a lossy network).  None disables.
    confirm_timeout: Optional[float] = None
    max_confirm_retries: int = 20
    total_ordering: bool = False


@dataclass
class MulticastMessage:
    """One application-level multicast message and its delivery record."""

    gid: int
    origin: int
    length: int
    created: float
    expected: frozenset
    payload: object = None
    mid: int = field(default_factory=lambda: next(_message_ids))
    seqno: Optional[int] = None
    deliveries: Dict[int, float] = field(default_factory=dict)
    completed_at: Optional[float] = None
    confirmed_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def completion_latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError(f"message {self.mid} not complete")
        return self.completed_at - self.created


class _GroupState:
    """Per-group forwarding structure and sequencing state."""

    def __init__(
        self,
        group: MulticastGroup,
        scheme: Scheme,
        structure,
    ) -> None:
        self.group = group
        self.scheme = scheme
        self.structure = structure
        self._next_seq = itertools.count(0)

    @property
    def gid(self) -> int:
        return self.group.gid

    @property
    def serializer(self) -> int:
        """The host that serializes this group's messages (lowest ID /
        tree root)."""
        if self.scheme in (Scheme.TREE, Scheme.TREE_BROADCAST):
            return self.structure.root
        return self.group.lowest

    @property
    def supports_total_ordering(self) -> bool:
        """Repeated unicast cannot enforce total ordering (Section 1)."""
        return self.scheme != Scheme.REPEATED_UNICAST

    def next_seq(self) -> int:
        return next(self._next_seq)


class MulticastEngine:
    """Creates and wires a :class:`HostAdapter` for every host, owns the
    group registry, and collects protocol-level statistics.

    This is the library's main entry point for host-adapter multicasting::

        sim = Simulator()
        topo = torus(8, 8)
        net = WormholeNetwork(sim, topo)
        engine = MulticastEngine(sim, net, AdapterConfig(cut_through=True))
        engine.create_group(1, topo.hosts[:10], Scheme.HAMILTONIAN)
        message = engine.multicast(origin=topo.hosts[0], gid=1, length=400)
        sim.run()
        assert message.complete
    """

    def __init__(
        self,
        sim: Simulator,
        net: WormholeNetwork,
        config: Optional[AdapterConfig] = None,
        rng: Optional[RandomStreams] = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.net = net
        #: Optional :class:`~repro.obs.Observability`; records message spans
        #: and latency distributions (one pointer test per event when None).
        self.obs = obs
        self.config = config or AdapterConfig()
        if self.config.acceptance == AcceptancePolicy.WAIT and math.isinf(
            self.config.buffer_bytes
        ):
            raise ValueError("the WAIT acceptance policy requires finite buffers")
        self.rng = rng or RandomStreams(seed=1)
        self.groups = GroupTable()
        self._states: Dict[int, _GroupState] = {}
        self.adapters: Dict[int, HostAdapter] = {
            host: HostAdapter(self, host) for host in net.topology.hosts
        }
        # Statistics.
        self.delivery_latency = TallyStat("multicast delivery latency")
        self.completion_latency = TallyStat("multicast completion latency")
        self.unicast_latency = TallyStat("unicast latency")
        self.messages_sent = 0
        self.messages_completed = 0
        self.unicasts_sent = 0
        self.unicasts_delivered = 0
        self.nacks = 0
        self.retries = 0
        self.confirm_retransmissions = 0
        self.group_repairs = 0
        self.groups_dissolved = 0
        #: Optional observer called as fn(host, worm, message, time) on
        #: every local multicast delivery (the ordering checker hooks here).
        self.delivery_observer: Optional[Callable] = None
        #: worm wid -> event fired when the downstream adapter buffered the
        #: worm (WAIT acceptance policy only).
        self._wait_claims: Dict[int, object] = {}
        #: gid -> controller for CREDIT_TREE groups.
        self.credit_controllers: Dict[int, CreditController] = {}

    # -- group management ----------------------------------------------------
    def create_group(
        self,
        gid: int,
        members,
        scheme: Scheme = Scheme.HAMILTONIAN,
        **structure_kwargs,
    ) -> _GroupState:
        """Register a group and build its forwarding structure."""
        credit_config = structure_kwargs.pop("credit_config", None)
        group = self.groups.add(gid, members)
        state = self._build_state(group, scheme, structure_kwargs)
        self._states[gid] = state
        if scheme == Scheme.CREDIT_TREE:
            self.credit_controllers[gid] = CreditController(
                self, state, credit_config
            )
        elif credit_config is not None:
            raise ValueError("credit_config only applies to CREDIT_TREE groups")
        return state

    def _build_state(self, group, scheme: Scheme, structure_kwargs) -> _GroupState:
        if self.config.total_ordering and scheme == Scheme.REPEATED_UNICAST:
            raise ValueError(
                "repeated unicast cannot enforce total ordering (Section 1)"
            )
        if scheme == Scheme.HAMILTONIAN:
            structure = HamiltonianCircuit(group, **structure_kwargs)
        elif scheme in (Scheme.TREE, Scheme.TREE_BROADCAST):
            structure = RootedTree(group, **structure_kwargs)
        elif scheme == Scheme.CREDIT_TREE:
            structure = RootedTree(group, **structure_kwargs)
        elif scheme == Scheme.REPEATED_UNICAST:
            if structure_kwargs:
                raise ValueError("repeated unicast takes no structure options")
            structure = None
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown scheme {scheme!r}")
        return _GroupState(group, scheme, structure)

    def create_broadcast_group(
        self, scheme: Scheme = Scheme.HAMILTONIAN, **structure_kwargs
    ) -> _GroupState:
        """Register group 255 spanning every host (Section 8.1's broadcast
        address)."""
        group = self.groups.add_broadcast(self.net.topology.hosts)
        state = self._build_state(group, scheme, structure_kwargs)
        self._states[group.gid] = state
        return state

    def broadcast(self, origin: int, length: int, payload: object = None):
        """Multicast to the broadcast group (create it first)."""
        from repro.core.groups import BROADCAST_GROUP_ID

        return self.multicast(origin, BROADCAST_GROUP_ID, length, payload)

    def group_state(self, gid: int) -> _GroupState:
        try:
            return self._states[gid]
        except KeyError:
            raise KeyError(f"no group {gid}") from None

    def handle_host_failure(self, host: int) -> Dict[str, List[int]]:
        """Repair every group structure after ``host`` crashed.

        The membership service's reaction to a host death: the host is
        spliced out of each group it belongs to (circuit successor /
        tree-parent maps are repaired in place), and groups that would
        degenerate below two members are dissolved.  Returns the affected
        gids as ``{"repaired": [...], "dissolved": [...]}``.  In-flight
        messages that expected the dead host never complete -- that loss is
        visible in the completion statistics.
        """
        repaired: List[int] = []
        dissolved: List[int] = []
        for gid in list(self._states):
            state = self._states[gid]
            if host not in state.group.members:
                continue
            if len(state.group.members) <= 2:
                self.groups.remove(gid)
                del self._states[gid]
                self.credit_controllers.pop(gid, None)
                dissolved.append(gid)
                continue
            state.group.remove_member(host)
            if state.structure is not None:
                state.structure.remove_member(host)
            repaired.append(gid)
        self.group_repairs += len(repaired)
        self.groups_dissolved += len(dissolved)
        return {"repaired": repaired, "dissolved": dissolved}

    def adapter(self, host: int) -> "HostAdapter":
        return self.adapters[host]

    def close(self) -> None:
        """Drop the adapters and credit controllers, which point back at
        the engine, once the run is over (after :meth:`Simulator.close`,
        whose closing processes may still use them).  Statistics stay
        readable."""
        self.adapters.clear()
        self.credit_controllers.clear()

    # -- traffic entry points ---------------------------------------------------
    def multicast(
        self, origin: int, gid: int, length: int, payload: object = None
    ) -> MulticastMessage:
        """Originate a multicast message; returns its record immediately."""
        state = self.group_state(gid)
        if origin not in state.group:
            raise ValueError(f"host {origin} is not a member of group {gid}")
        message = MulticastMessage(
            gid=gid,
            origin=origin,
            length=length,
            created=self.sim.now,
            expected=frozenset(m for m in state.group.members if m != origin),
            payload=payload,
        )
        self.messages_sent += 1
        if self.obs is not None:
            self.obs.message_sent(self.sim.now, message.mid, gid, origin, length)
        self.adapters[origin].originate(message, state)
        return message

    def unicast(self, src: int, dst: int, length: int) -> Worm:
        """Send background unicast traffic; latency recorded on delivery."""
        if src == dst:
            raise ValueError("unicast to self")
        worm = Worm(
            source=src, dest=dst, length=length, kind=WormKind.UNICAST,
            created=self.sim.now,
        )
        self.unicasts_sent += 1
        self.net.send(worm)
        return worm

    # -- delivery bookkeeping ---------------------------------------------------
    def record_delivery(self, host: int, worm: Worm, when: float) -> None:
        message: MulticastMessage = worm.payload
        if self.delivery_observer is not None:
            self.delivery_observer(host, worm, message, when)
        if host not in message.expected:
            return
        if host in message.deliveries:
            return  # duplicate (e.g. retransmission overlap)
        message.deliveries[host] = when
        self.delivery_latency.add(when - message.created)
        if self.obs is not None:
            self.obs.message_delivery(when, message.mid, host, when - message.created)
        if len(message.deliveries) == len(message.expected):
            message.completed_at = when
            self.messages_completed += 1
            self.completion_latency.add(message.completion_latency())
            if self.obs is not None:
                self.obs.message_completed(when, message.mid, message.completion_latency())

    def record_unicast_delivery(self, worm: Worm, when: float) -> None:
        self.unicasts_delivered += 1
        self.unicast_latency.add(when - worm.created)
        if self.obs is not None:
            self.obs.unicast_delivered(when, when - worm.created)

    def reset_stats(self) -> None:
        """Discard warm-up statistics (message records keep accumulating)."""
        self.delivery_latency = TallyStat("multicast delivery latency")
        self.completion_latency = TallyStat("multicast completion latency")
        self.unicast_latency = TallyStat("unicast latency")
        self.messages_sent = 0
        self.messages_completed = 0
        self.unicasts_sent = 0
        self.unicasts_delivered = 0
        self.nacks = 0
        self.retries = 0
        self.confirm_retransmissions = 0
        self.group_repairs = 0
        self.groups_dissolved = 0


class HostAdapter:
    """One host's network interface card (the LANai in Myrinet)."""

    def __init__(self, engine: MulticastEngine, host: int) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.net = engine.net
        self.host = host
        config = engine.config
        self.buffers = BufferClasses(
            engine.sim,
            class_bytes=config.buffer_bytes,
            dma_extension_bytes=config.dma_extension_bytes,
            use_classes=config.use_buffer_classes,
        )
        self._retry_stream = engine.rng.stream(f"adapter{host}.retry")
        #: worm wid -> admission state for in-flight incoming worms.
        self._incoming: Dict[int, dict] = {}
        #: original worm wid -> event resolved by an ACK/NACK control worm.
        self._control_waits: Dict[int, object] = {}
        #: CREDIT_TREE in-order delivery state: gid -> next expected seqno,
        #: and gid -> {seqno: stashed worm} held until its turn.
        self._credit_next: Dict[int, int] = {}
        self._credit_stash: Dict[int, Dict[int, Worm]] = {}
        #: gid -> seqnos this host originated (skipped in the order stream,
        #: since a flood never returns to its origin).
        self._credit_own: Dict[int, set] = {}
        self.net.set_receiver(host, self._on_worm_complete)
        self.net.set_head_watcher(host, self._on_worm_head)

    @property
    def config(self) -> AdapterConfig:
        return self.engine.config

    # -- origination ------------------------------------------------------------
    def originate(self, message: MulticastMessage, state: _GroupState) -> None:
        self.sim.process(
            self._originate(message, state), name=f"mc-origin-h{self.host}-m{message.mid}"
        )

    def _originate(self, message: MulticastMessage, state: _GroupState):
        config = self.config
        if state.scheme == Scheme.CREDIT_TREE:
            yield from self._originate_credit(message, state)
            return
        serialized = config.total_ordering
        if serialized and self.host != state.serializer:
            # Relay to the serializer (lowest-ID host / tree root), which
            # assigns the sequence number and starts the distribution.
            worm = Worm(
                source=self.host,
                dest=state.serializer,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=self.host,
                group=state.gid,
                created=message.created,
                payload=message,
                wrapped=False,  # relay legs ride buffer class 1
                relay=True,
            )
            claim = yield from self._claim_origin_buffer(message.length, wrapped=False)
            yield from self._transmit_until_accepted(worm)
            if claim is not None:
                claim.release()
            return
        if serialized:
            message.seqno = state.next_seq()
        yield from self._distribute(message, state, serialized)

    def _originate_credit(self, message: MulticastMessage, state: _GroupState):
        """[VLB96] baseline: acquire a cumulative credit from the manager,
        then flood the binary tree.  The sequenced credit is the message's
        total-ordering stamp."""
        controller = self.engine.credit_controllers[state.gid]
        claim = yield from self._claim_origin_buffer(message.length, wrapped=False)
        try:
            message.seqno = yield from controller.acquire(self.host)
            self._credit_mark_own(state.gid, message.seqno)
            yield from self._flood_tree(message, state, arrived_from=None)
        finally:
            if claim is not None:
                claim.release()
            # The origin's share of the cumulative credit is released once
            # its copies are out; the token tours recycle the credit when
            # every member has done the same.
            controller.mark_freed(self.host, message.seqno)

    def _distribute(self, message: MulticastMessage, state: _GroupState, serialized: bool):
        """Start the structure walk from this host (originator or serializer)."""
        wrapped_base = serialized  # serialized distribution legs use class 2
        claim = yield from self._claim_origin_buffer(message.length, wrapped=wrapped_base)
        try:
            if state.scheme == Scheme.REPEATED_UNICAST:
                # The Section 1 baseline: the source sends one copy per
                # destination; its interface is tied up for the whole
                # multicast session.
                for member in state.group.members:
                    if member == self.host:
                        continue
                    worm = Worm(
                        source=self.host,
                        dest=member,
                        length=message.length,
                        kind=WormKind.MULTICAST,
                        origin=message.origin,
                        group=state.gid,
                        hop_count=0,
                        created=message.created,
                        payload=message,
                    )
                    yield from self._transmit_until_accepted(worm)
                return
            if state.scheme == Scheme.HAMILTONIAN:
                circuit: HamiltonianCircuit = state.structure
                hop_count = circuit.initial_hop_count(self.config.confirm_return)
                if hop_count <= 0:
                    return
                nxt = circuit.successor(self.host)
                worm = Worm(
                    source=self.host,
                    dest=nxt,
                    length=message.length,
                    kind=WormKind.MULTICAST,
                    origin=message.origin,
                    group=state.gid,
                    hop_count=hop_count - 1,
                    wrapped=wrapped_base or circuit.is_reversal(self.host, nxt),
                    seqno=message.seqno,
                    created=message.created,
                    payload=message,
                )
                yield from self._transmit_until_accepted(worm)
                yield from self._await_confirmation(message, state)
            elif state.scheme == Scheme.TREE:
                tree: RootedTree = state.structure
                if self.host != tree.root:
                    # Root-start rule: relay to the root first (Section 6).
                    worm = Worm(
                        source=self.host,
                        dest=tree.root,
                        length=message.length,
                        kind=WormKind.MULTICAST,
                        origin=message.origin,
                        group=state.gid,
                        created=message.created,
                        payload=message,
                        seqno=message.seqno,
                        wrapped=False,
                        relay=True,
                    )
                    yield from self._transmit_until_accepted(worm)
                else:
                    yield from self._forward_tree_children(
                        message, state, wrapped=True, exclude=None
                    )
            elif state.scheme == Scheme.TREE_BROADCAST:
                yield from self._flood_tree(message, state, arrived_from=None)
        finally:
            if claim is not None:
                claim.release()

    def _await_confirmation(self, message: MulticastMessage, state: _GroupState):
        """Section 5's reliability option: wait for the worm to return from
        the full circuit; on timeout, retransmit the whole multicast."""
        config = self.config
        if not (config.confirm_return and config.confirm_timeout):
            return
        circuit: HamiltonianCircuit = state.structure
        attempts = 0
        while message.confirmed_at is None:
            yield self.sim.timeout(config.confirm_timeout)
            if message.confirmed_at is not None:
                return
            attempts += 1
            if attempts > config.max_confirm_retries:
                raise ProtocolError(
                    f"host {self.host}: multicast {message.mid} never "
                    f"confirmed after {attempts} retransmissions"
                )
            self.engine.confirm_retransmissions += 1
            nxt = circuit.successor(self.host)
            resend = Worm(
                source=self.host,
                dest=nxt,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=message.origin,
                group=state.gid,
                hop_count=circuit.initial_hop_count(include_return=True) - 1,
                wrapped=circuit.is_reversal(self.host, nxt),
                seqno=message.seqno,
                created=message.created,
                payload=message,
            )
            yield from self._transmit_until_accepted(resend)

    def _claim_origin_buffer(self, length: int, wrapped: bool):
        """The originator secures buffering for the whole worm before
        sending (Section 4's precondition at host adapter A).

        Retries on the NACK timeout cadence until the class pool (or its
        DMA extension) can hold the worm; a worm that can never fit is a
        configuration error.
        """
        config = self.config
        if config.acceptance == AcceptancePolicy.ALWAYS:
            return None
        largest = max(config.buffer_bytes, config.dma_extension_bytes)
        if length > largest:
            raise ProtocolError(
                f"host {self.host}: worm of {length} bytes exceeds adapter "
                f"buffering ({largest} bytes); split the message"
            )
        while True:
            claim = self.buffers.try_claim(length, wrapped)
            if claim is not None:
                return claim
            backoff = config.retry_timeout * (
                1.0 + self._retry_stream.uniform(0.0, config.retry_jitter)
            )
            yield self.sim.timeout(backoff)

    # -- reception ---------------------------------------------------------------
    def _on_worm_head(self, worm: Worm, transfer: Transfer) -> None:
        """Head arrival: run admission, optionally start cut-through."""
        if worm.kind != WormKind.MULTICAST:
            return
        entry: Dict = {"claim": None, "ct_process": None}
        self._incoming[worm.wid] = entry
        policy = self.config.acceptance
        if policy == AcceptancePolicy.ALWAYS:
            worm.accepted = True
        elif policy == AcceptancePolicy.NACK:
            claim = self.buffers.try_claim(worm.length, self._class_of(worm))
            if claim is None:
                worm.accepted = False
                self.engine.nacks += 1
            else:
                worm.accepted = True
                entry["claim"] = claim
        else:  # WAIT: admission blocks in the completion handler
            worm.accepted = True
        if (
            worm.accepted
            and self.config.cut_through
            and policy != AcceptancePolicy.WAIT
        ):
            entry["ct_process"] = self._maybe_cut_through(worm)

    def _maybe_cut_through(self, worm: Worm):
        """Start forwarding to the first successor while still receiving,
        if the output port is free (Sections 5/6)."""
        if self.net.injection_channel(self.host).busy:
            return None
        state = self.engine.group_state(worm.group)
        first = self._first_successor(worm, state)
        if first is None:
            return None
        fwd = self._next_worm(worm, state, first)
        return self.sim.process(
            self._transmit_until_accepted(fwd),
            name=f"ct-h{self.host}-w{worm.wid}",
        )

    def _on_worm_complete(self, worm: Worm, transfer: Transfer) -> None:
        if worm.kind == WormKind.UNICAST:
            self.engine.record_unicast_delivery(worm, self.sim.now)
            return
        if worm.is_control:
            if worm.kind in (
                WormKind.CREDIT_REQUEST,
                WormKind.CREDIT_GRANT,
                WormKind.TOKEN,
            ):
                controller = self.engine.credit_controllers.get(worm.group)
                if controller is not None:
                    controller.on_control(worm, at_host=self.host)
                return
            self._resolve_control(worm)
            return
        entry = self._incoming.pop(worm.wid, {"claim": None, "ct_process": None})
        if worm.accepted is False:
            # Dropped: upstream retransmits.  Send the NACK if modelled.
            if self.config.model_acks:
                self._send_control(worm, WormKind.NACK)
            return
        if self.config.model_acks:
            self._send_control(worm, WormKind.ACK)
        self.sim.process(
            self._handle_accepted(worm, entry),
            name=f"mc-recv-h{self.host}-w{worm.wid}",
        )

    def _handle_accepted(self, worm: Worm, entry: Dict):
        """Buffer (if needed), deliver locally, forward, release."""
        claim = entry["claim"]
        if self.config.acceptance == AcceptancePolicy.WAIT and claim is None:
            wrapped = self._class_of(worm)
            get = self.buffers.claim_blocking(worm.length, wrapped)
            yield get
            claim = BufferClaim(self.buffers.pool(wrapped), worm.length, spilled=0.0)
        # Tell the upstream adapter its worm is now buffered here, so it may
        # release its own copy (the hold-and-wait edge of Figure 6).
        buffered = self.engine._wait_claims.pop(worm.wid, None)
        if buffered is not None:
            buffered.succeed()
        message: MulticastMessage = worm.payload
        state = self.engine.group_state(worm.group)
        try:
            # Local copy to the host.
            if self.config.copy_latency:
                yield self.sim.timeout(self.config.copy_latency)
            if worm.relay:
                # We are the serializer/root: stamp the sequence number
                # first (relay arrival order IS the total order), so our
                # own delivery record carries it, then distribute.
                if self.config.total_ordering and message.seqno is None:
                    message.seqno = state.next_seq()
                    worm.seqno = message.seqno
                self.engine.record_delivery(self.host, worm, self.sim.now)
                yield from self._distribute_from_relay(message, state)
                return
            if self.host == message.origin:
                # The worm came home: circuit confirmation (Section 5).
                message.confirmed_at = self.sim.now
            elif state.scheme == Scheme.CREDIT_TREE:
                # Sequenced credits give total order: pass worms up to the
                # host strictly in seqno order.
                self._deliver_credit_ordered(worm)
            else:
                self.engine.record_delivery(self.host, worm, self.sim.now)
            yield from self._forward(worm, state, entry["ct_process"])
        finally:
            if claim is not None:
                claim.release()
            if state.scheme == Scheme.CREDIT_TREE and not worm.relay:
                self.engine.credit_controllers[state.gid].mark_freed(
                    self.host, worm.seqno
                )

    def _deliver_credit_ordered(self, worm: Worm) -> None:
        gid = worm.group
        if worm.seqno is None:
            self.engine.record_delivery(self.host, worm, self.sim.now)
            return
        self._credit_stash.setdefault(gid, {})[worm.seqno] = worm
        self._drain_credit_stash(gid)

    def _credit_mark_own(self, gid: int, seqno: int) -> None:
        """Skip our own seqno in the delivery stream (the flood never
        returns to its origin)."""
        self._credit_own.setdefault(gid, set()).add(seqno)
        self._drain_credit_stash(gid)

    def _drain_credit_stash(self, gid: int) -> None:
        stash = self._credit_stash.setdefault(gid, {})
        own = self._credit_own.setdefault(gid, set())
        expected = self._credit_next.get(gid, 0)
        while True:
            if expected in stash:
                held = stash.pop(expected)
                self.engine.record_delivery(self.host, held, self.sim.now)
            elif expected in own:
                own.remove(expected)
            else:
                break
            expected += 1
        self._credit_next[gid] = expected

    def _distribute_from_relay(self, message: MulticastMessage, state: _GroupState):
        yield from self._distribute_inner(message, state)

    def _distribute_inner(self, message: MulticastMessage, state: _GroupState):
        if state.scheme == Scheme.HAMILTONIAN:
            circuit: HamiltonianCircuit = state.structure
            hop_count = circuit.initial_hop_count(self.config.confirm_return)
            if hop_count <= 0:
                return
            nxt = circuit.successor(self.host)
            worm = Worm(
                source=self.host,
                dest=nxt,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=message.origin,
                group=state.gid,
                hop_count=hop_count - 1,
                wrapped=True,  # serialized distribution rides class 2
                seqno=message.seqno,
                created=message.created,
                payload=message,
            )
            yield from self._transmit_until_accepted(worm)
        else:
            yield from self._forward_tree_children(
                message, state, wrapped=True, exclude=None
            )

    # -- forwarding ---------------------------------------------------------------
    def _forward(self, worm: Worm, state: _GroupState, ct_process) -> object:
        if not self.engine.net.topology.node_alive(self.host) or (
            self.host not in state.group
        ):
            # A crashed host's adapter forwards nothing -- it died with the
            # host.  Without this guard, a member that receives a worm and
            # then crashes (and is spliced off the group structure by the
            # recovery manager) before its forwarding turn would look up its
            # successor on a circuit it no longer belongs to and raise.
            return
        if state.scheme == Scheme.REPEATED_UNICAST:
            return  # terminal copies: nothing to retransmit
        if state.scheme == Scheme.HAMILTONIAN:
            yield from self._forward_hamiltonian(worm, state, ct_process)
        elif state.scheme == Scheme.TREE:
            yield from self._forward_tree(worm, state, ct_process)
        else:
            yield from self._forward_tree_broadcast(worm, state, ct_process)

    def _first_successor(self, worm: Worm, state: _GroupState) -> Optional[int]:
        """The first (cut-through) successor for an incoming worm."""
        if worm.relay or state.scheme == Scheme.REPEATED_UNICAST:
            return None  # relays restart distribution; terminal copies too
        if state.scheme == Scheme.HAMILTONIAN:
            if worm.hop_count <= 0:
                return None
            return state.structure.successor(self.host)
        if state.scheme == Scheme.TREE:
            children = state.structure.children(self.host)
            return children[0] if children else None
        successors = self._broadcast_successors(worm, state.structure)
        return successors[0][0] if successors else None

    def _next_worm(self, worm: Worm, state: _GroupState, nxt: int) -> Worm:
        """Build the retransmitted copy for successor ``nxt``."""
        if state.scheme == Scheme.HAMILTONIAN:
            circuit: HamiltonianCircuit = state.structure
            return worm.forwarded_to(
                nxt,
                hop_count=worm.hop_count - 1,
                wrapped=worm.wrapped or circuit.is_reversal(self.host, nxt),
            )
        if state.scheme == Scheme.TREE:
            return worm.forwarded_to(nxt, wrapped=worm.wrapped)
        # Tree broadcast: phase decides class.
        tree: RootedTree = state.structure
        phase = "climb" if nxt == tree.parent(self.host) else "descend"
        return worm.forwarded_to(nxt, phase=phase, wrapped=(phase == "descend"))

    def _forward_hamiltonian(self, worm: Worm, state: _GroupState, ct_process):
        if ct_process is not None:
            yield ct_process  # the cut-through send covers the (single) successor
            return
        if worm.hop_count <= 0:
            return
        nxt = state.structure.successor(self.host)
        yield from self._transmit_until_accepted(self._next_worm(worm, state, nxt))

    def _forward_tree(self, worm: Worm, state: _GroupState, ct_process):
        tree: RootedTree = state.structure
        children = tree.children(self.host)
        if not children:
            return
        if ct_process is not None:
            yield ct_process
            children = children[1:]
        for child in children:
            yield from self._transmit_until_accepted(
                self._next_worm(worm, state, child)
            )

    def _broadcast_successors(self, worm: Worm, tree: RootedTree) -> List:
        """(next host, phase) pairs for the broadcast-on-tree flood."""
        successors = []
        parent = tree.parent(self.host)
        exclude = worm.source
        # A worm climbing (from a child) keeps climbing and fans out down;
        # a worm descending (from the parent) only descends.
        if parent is not None and parent != exclude and worm.phase != "descend":
            successors.append((parent, "climb"))
        for child in tree.children(self.host):
            if child != exclude:
                successors.append((child, "descend"))
        return successors

    def _forward_tree_broadcast(self, worm: Worm, state: _GroupState, ct_process):
        successors = self._broadcast_successors(worm, state.structure)
        if ct_process is not None:
            yield ct_process
            successors = successors[1:]
        for nxt, phase in successors:
            fwd = worm.forwarded_to(nxt, phase=phase, wrapped=(phase == "descend"))
            yield from self._transmit_until_accepted(fwd)

    def _forward_tree_children(
        self, message: MulticastMessage, state: _GroupState, wrapped: bool, exclude
    ):
        tree: RootedTree = state.structure
        for child in tree.children(self.host):
            if child == exclude:
                continue
            worm = Worm(
                source=self.host,
                dest=child,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=message.origin,
                group=state.gid,
                wrapped=wrapped,
                seqno=message.seqno,
                created=message.created,
                payload=message,
            )
            yield from self._transmit_until_accepted(worm)

    def _flood_tree(self, message: MulticastMessage, state: _GroupState, arrived_from):
        tree: RootedTree = state.structure
        parent = tree.parent(self.host)
        if parent is not None and parent != arrived_from:
            worm = Worm(
                source=self.host,
                dest=parent,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=message.origin,
                group=state.gid,
                phase="climb",
                wrapped=False,
                seqno=message.seqno,
                created=message.created,
                payload=message,
            )
            yield from self._transmit_until_accepted(worm)
        for child in tree.children(self.host):
            if child == arrived_from:
                continue
            worm = Worm(
                source=self.host,
                dest=child,
                length=message.length,
                kind=WormKind.MULTICAST,
                origin=message.origin,
                group=state.gid,
                phase="descend",
                wrapped=True,
                seqno=message.seqno,
                created=message.created,
                payload=message,
            )
            yield from self._transmit_until_accepted(worm)

    # -- reliable hop transmission ------------------------------------------------
    def _transmit_until_accepted(self, worm: Worm):
        """Send one hop of the multicast, retrying on NACK (Figure 5).

        Under the WAIT policy the hop is complete only once the downstream
        adapter has *claimed buffering* for the worm -- the sender's own
        buffer stays held until then, which is exactly the hold-and-wait
        pattern the two-buffer-class rule must break (Figure 6).
        """
        config = self.config
        attempts = 0
        current = worm
        while True:
            if config.acceptance == AcceptancePolicy.WAIT:
                buffered = self.sim.event()
                self.engine._wait_claims[current.wid] = buffered
            transfer = self.net.send(current)
            if config.model_acks:
                wait = self.sim.event()
                self._control_waits[current.wid] = wait
                yield transfer.completed
                outcome = yield wait
                accepted = outcome == WormKind.ACK
            else:
                yield transfer.completed
                accepted = current.accepted is not False
            if accepted:
                if config.acceptance == AcceptancePolicy.WAIT:
                    yield buffered
                return
            attempts += 1
            self.engine.retries += 1
            if attempts > config.max_retries:
                raise ProtocolError(
                    f"host {self.host}: worm to {current.dest} NACKed "
                    f"{attempts} times (group {current.group})"
                )
            backoff = config.retry_timeout * (
                1.0 + self._retry_stream.uniform(0.0, config.retry_jitter)
            )
            yield self.sim.timeout(backoff)
            current = current.retry_copy()

    # -- control worms --------------------------------------------------------------
    def _send_credit_control(
        self, kind: WormKind, dest: int, gid: int, payload, length: int
    ) -> None:
        """Send a credit-protocol control worm (request/grant)."""
        self.net.send(
            Worm(
                source=self.host,
                dest=dest,
                length=length,
                kind=kind,
                group=gid,
                payload=payload,
                created=self.sim.now,
            )
        )

    def _send_control(self, original: Worm, kind: WormKind) -> None:
        control = Worm(
            source=self.host,
            dest=original.source,
            length=CONTROL_WORM_BYTES,
            kind=kind,
            payload=original.wid,
            created=self.sim.now,
        )
        self.net.send(control)

    def _resolve_control(self, control: Worm) -> None:
        wait = self._control_waits.pop(control.payload, None)
        if wait is not None:
            wait.succeed(control.kind)

    # -- helpers -----------------------------------------------------------------------
    def _class_of(self, worm: Worm) -> bool:
        """Buffer class selector: False = class 1, True = class 2."""
        return bool(worm.wrapped)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HostAdapter h{self.host}>"

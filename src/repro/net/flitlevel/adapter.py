"""Flit-level host adapters: sources, sinks and fragment reassembly."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.net.flitlevel.flits import Flit, FlitKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flitlevel.network import FlitNetwork
    from repro.net.flitlevel.wire import Wire

_ROUTE = FlitKind.ROUTE
_IDLE = FlitKind.IDLE
_TAIL = FlitKind.TAIL


class WormRecord:
    """Source-side record of one injected worm."""

    __slots__ = (
        "wid", "src", "dests", "flits", "injected_at", "delivered_at",
        "retransmissions", "payload_bytes", "group", "hop_count", "message_id",
    )

    def __init__(self, wid: int, src: int, dests: List[int], flits: List[Flit],
                 payload_bytes: int, group: Optional[int] = None,
                 hop_count: int = 0, message_id: Optional[int] = None) -> None:
        self.wid = wid
        self.src = src
        self.dests = dests
        self.flits = flits
        self.payload_bytes = payload_bytes
        self.injected_at: Optional[int] = None
        self.delivered_at: Dict[int, int] = {}
        self.retransmissions = 0
        #: Host-adapter multicast metadata (Hamiltonian circuit, Section 5):
        #: the group id in the worm header, and the remaining hop count.
        self.group = group
        self.hop_count = hop_count
        self.message_id = message_id

    @property
    def fully_delivered(self) -> bool:
        return set(self.delivered_at) >= set(self.dests)


class FlitAdapter:
    """A host NIC at flit granularity: injects queued worms one flit per
    tick (honouring STOP/GO) and sinks arriving flits, reassembling
    scheme-2 fragments by worm id."""

    _is_adapter = True

    def __init__(self, network: "FlitNetwork", host_id: int) -> None:
        self.network = network
        self.host_id = host_id
        self.wire_out: Optional["Wire"] = None
        self.wire_in: Optional["Wire"] = None
        self._tx: Deque[WormRecord] = deque()
        self._tx_pos = 0
        self.received_worms: List[int] = []
        self.received_flits = 0
        #: Active-set engine bookkeeping (see FlitNetwork._tick_active):
        #: ``_active`` registers the adapter for ticking, ``_moved`` records
        #: per-tick activity, ``_net_seq`` restores dense iteration order,
        #: ``_sleep`` is the sleeping circuit it belongs to, ``_span_stamp``
        #: the last steady check that visited it, and ``_span_hint`` the
        #: member of its circuit that last failed the check, with that
        #: member's worm (see FlitNetwork._sleep_steady).
        self._active = False
        self._moved = False
        self._net_seq = 0
        self._sleep = None
        self._span_stamp = 0
        self._span_hint = None

    # -- sending ------------------------------------------------------------
    def enqueue(self, record: WormRecord) -> None:
        self._tx.append(record)
        self.network._wake_host(self)

    def requeue_front(self, record: WormRecord) -> None:
        """Put a flushed worm back at the head of the queue (retransmit)."""
        self._tx.appendleft(record)
        self.network._wake_host(self)

    def tick_output(self, now: int) -> bool:
        """Inject the next byte of the head worm, under the sender's rule
        ``OutputPort.ready`` states: one flit per tick, none while STOP
        is in effect.  ``network._apply_span`` advances a source
        injecting payload in bulk for the ticks its circuit sleeps
        through a steady span, and leaves one held by STOP where it is:
        a change here is made there too."""
        tx = self._tx
        wire = self.wire_out
        if not tx or wire is None:
            return False
        record = tx[0]
        if record.wid in self.network.killed:
            # Our own worm was flushed mid-injection: abort, the network
            # callback handles the retransmission.
            tx.popleft()
            self._tx_pos = 0
            return True
        if wire._last_push_tick == now:
            return False
        reverse = wire._reverse
        while reverse and reverse[0][0] <= now:
            wire._stop_at_sender = reverse.popleft()[1]
        if wire._stop_at_sender:
            return False
        if record.injected_at is None:
            record.injected_at = now
            self.network._note_injection(record)
        wire.push(record.flits[self._tx_pos], now)
        self._tx_pos += 1
        if self._tx_pos >= len(record.flits):
            tx.popleft()
            self._tx_pos = 0
        return True

    # -- receiving ------------------------------------------------------------
    def tick_input(self, now: int) -> bool:
        """Sink the arriving byte, if any: the head flit of the receive
        wire, once it is due.  ``network._apply_span`` counts the payload
        a sink receives in bulk for the ticks its circuit sleeps through
        a steady span (IDLE fill it strips counts nothing): a change here
        is made there too."""
        wire = self.wire_in
        if wire is None:
            return False
        forward = wire._forward
        if not forward or forward[0][0] > now:
            return False
        flit = forward.popleft()[1]
        network = self.network
        wid = flit.wid
        if wid in network.killed:
            return True  # drains silently
        kind = flit.kind
        if kind is _ROUTE or kind is _IDLE:
            # Residual end markers and IDLE fills are stripped and -- key
            # for deadlock detection -- do NOT count as worm progress: a
            # deadlocked multicast can spin IDLEs through its non-blocked
            # branch forever (Figure 3).
            return True
        self.received_flits += 1
        network._note_progress()
        if kind is _TAIL:
            self.received_worms.append(wid)
            network.record_delivery(wid, self.host_id, now)
        return True

    def quiescent(self) -> bool:
        """True when ticking this adapter is provably a no-op: nothing
        queued for injection and nothing in flight on the receive wire.
        A stream gap (a worm partly received) needs no ticking -- the
        upstream push re-activates the adapter through the wire hook."""
        if self._tx:
            return False
        wire_in = self.wire_in
        return wire_in is None or not wire_in._forward

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlitAdapter h{self.host_id} txq={len(self._tx)}>"

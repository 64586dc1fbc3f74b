"""Flit-level host adapters: sources, sinks and fragment reassembly."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.net.flitlevel.flits import Flit, FlitKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flitlevel.network import FlitNetwork
    from repro.net.flitlevel.wire import Wire


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
        #: wid -> payload bytes received so far (fragments accumulate)
        self._rx_progress: Dict[int, int] = {}
        self.received_worms: List[int] = []
        self.received_flits = 0
        #: Active-set engine bookkeeping (see FlitNetwork._tick_active):
        #: ``_active`` registers the adapter for ticking, ``_moved`` records
        #: per-tick activity, ``_net_seq`` restores dense iteration order.
        self._active = False
        self._moved = False
        self._net_seq = 0

    # -- sending ------------------------------------------------------------
    def enqueue(self, record: WormRecord) -> None:
        self._tx.append(record)
        self.network._wake_host(self)

    def requeue_front(self, record: WormRecord) -> None:
        """Put a flushed worm back at the head of the queue (retransmit)."""
        self._tx.appendleft(record)
        self.network._wake_host(self)

    @property
    def sending(self) -> Optional[WormRecord]:
        return self._tx[0] if self._tx else None

    def tick_output(self, now: int) -> bool:
        record = self.sending
        if record is None or self.wire_out is None:
            return False
        if record.wid in self.network.killed:
            # Our own worm was flushed mid-injection: abort, the network
            # callback handles the retransmission.
            self._tx.popleft()
            self._tx_pos = 0
            return True
        if not self.wire_out.can_push(now) or self.wire_out.stop_at_sender(now):
            return False
        if record.injected_at is None:
            record.injected_at = now
            self.network._note_injection(record)
        flit = record.flits[self._tx_pos]
        self.wire_out.push(flit, now)
        self._tx_pos += 1
        if self._tx_pos >= len(record.flits):
            self._tx.popleft()
            self._tx_pos = 0
        return True

    # -- receiving ------------------------------------------------------------
    def tick_input(self, now: int) -> bool:
        if self.wire_in is None:
            return False
        flit = self.wire_in.deliver(now)
        if flit is None:
            return False
        if flit.wid in self.network.killed:
            return True  # drains silently
        if flit.kind == FlitKind.ROUTE or flit.kind == FlitKind.IDLE:
            # Residual end markers and IDLE fills are stripped and -- key
            # for deadlock detection -- do NOT count as worm progress: a
            # deadlocked multicast can spin IDLEs through its non-blocked
            # branch forever (Figure 3).
            return True
        self.received_flits += 1
        self.network._note_progress()
        if flit.kind == FlitKind.FRAG_TAIL:
            return True  # fragment boundary; payload already accumulated
        progress = self._rx_progress.get(flit.wid, 0) + 1
        self._rx_progress[flit.wid] = progress
        if flit.kind == FlitKind.TAIL:
            self.received_worms.append(flit.wid)
            del self._rx_progress[flit.wid]
            self.network.record_delivery(flit.wid, self.host_id, now)
        return True

    def quiescent(self) -> bool:
        """True when ticking this adapter is provably a no-op: nothing
        queued for injection and nothing in flight on the receive wire.
        A stream gap (partial ``_rx_progress``) needs no ticking -- the
        upstream push re-activates the adapter through the wire hook."""
        if self._tx:
            return False
        wire_in = self.wire_in
        return wire_in is None or not wire_in._forward

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlitAdapter h{self.host_id} txq={len(self._tx)}>"

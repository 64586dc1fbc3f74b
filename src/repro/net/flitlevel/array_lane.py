"""Structure-of-arrays execution lane for the flit-level network.

``FlitNetwork(engine="array")`` keeps the object graph the other engines
use (switches, ports, wires, slack buffers) but moves the *state* that the
saturated hot paths touch every tick — wire rings, slack occupancy, STOP/GO
latches, streaming-port bookkeeping — into shared numpy arrays.  The tick
then runs three vector phases over all components at once:

1. **reverse drain** — apply every STOP/GO symbol due this tick to its
   sender-side latch (one masked column assignment over all wires);
2. **absorb** — deliver the flit arriving at every switch input port,
   drain killed worms, push into slack rings, and run the Figure-1
   hysteresis for every port in one batch (scatter the changed STOP/GO
   symbols back into the reverse rings);
3. **bulk advance** — for every port in single-branch ``STREAMING`` state
   whose output is ready, pop the slack front and emit it downstream with
   array gathers/scatters (per-output ``idle_run``/``sent_flits`` and
   per-wire ``carried``/``idles`` stats are updated in the same batch).

Everything else — header parsing, arbitration grants, multicast
replication, interrupts, flushes, faults, adapters — falls back to the
*unchanged* object-path code: at adoption the lane swaps each ``Wire``,
``SlackBuffer``, ``InputPort`` and ``OutputPort`` instance's ``__class__``
to a view subclass whose hot attributes are properties over the arrays, so
the scalar state machine reads and writes the exact same state the vector
phases do.  Byte-identical behaviour therefore holds by construction for
the scalar paths and is asserted for the vector ones by
:mod:`repro.net.flitlevel.crosscheck` across the full scheme/fault matrix.

Ordering notes (why the batch is safe):

* The lane iterates in dense order (phase order and, within the scalar
  fallback, global port order), so arbitration decisions match the dense
  engine tick for tick.
* STOP/GO symbols are applied *eagerly* at the start of their due tick;
  the lazy object path applies them on first read within that tick.  The
  two are indistinguishable because symbols are always scheduled at least
  one tick ahead, so no reader can observe one before its due tick.
* A bulk streaming port only touches its own slack and its own (uniquely
  held) output wire; grants, flushes and header traffic never target a
  port in that state, so batching them with scalar ports interleaved in
  any order is observationally identical to dense order.  The one
  exception is scheme 3 (``idle_flush``), where a scalar advance can
  flush *other* worms mid-tick; that mode runs the advance phase fully
  scalar, in dense order, so flush timing and RNG draws match exactly.
* ``TAIL``/``FRAG_TAIL`` fronts (teardown) and first-flit-of-a-worm
  tracking events are routed to the object path / per-port loops, keeping
  rare-event bookkeeping (site index, record churn) on one code path.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.net.flitlevel.adapter import FlitAdapter, WormRecord
from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.flitlevel.slack import SlackBuffer
from repro.net.flitlevel.switch import IDLE_FLUSH, InputPort, OutputPort
from repro.net.flitlevel.wire import Wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flitlevel.network import FlitNetwork

__all__ = ["ArrayLane", "encode_flit", "decode_flit"]

# -- flit <-> int64 encoding ---------------------------------------------------
# Layout: wid << 13 | kind << 10 | broadcast << 9 | multicast << 8 | value.
# kind >= 1 for every real flit, so 0 unambiguously means "empty slot".
K_IDLE, K_ROUTE, K_DATA, K_FTAIL, K_TAIL = 1, 2, 3, 4, 5
_WID_SHIFT = 13
#: Kind field in place (bits 10-12): ``code & _KIND_FIELD`` compares
#: monotonically with ``kind << 10``, so kind tests on encoded flits need
#: no shift.
_KIND_FIELD = 7 << 10
_FTAIL_FIELD = K_FTAIL << 10
_EMPTY_I64 = np.zeros(0, dtype=np.int64)

_KIND_CODE = {
    FlitKind.IDLE: K_IDLE,
    FlitKind.ROUTE: K_ROUTE,
    FlitKind.DATA: K_DATA,
    FlitKind.FRAG_TAIL: K_FTAIL,
    FlitKind.TAIL: K_TAIL,
}
_KIND_OBJ = [
    None, FlitKind.IDLE, FlitKind.ROUTE, FlitKind.DATA,
    FlitKind.FRAG_TAIL, FlitKind.TAIL,
]


def encode_flit(flit: Flit) -> int:
    """Pack a :class:`Flit` into the lane's int64 wire code."""
    return (
        (flit.wid << _WID_SHIFT)
        | (_KIND_CODE[flit.kind] << 10)
        | (bool(flit.broadcast) << 9)
        | (bool(flit.multicast) << 8)
        | flit.value
    )


def decode_flit(code: int) -> Flit:
    """Unpack an int64 wire code back into an (equal-valued) :class:`Flit`."""
    code = int(code)
    return Flit(
        _KIND_OBJ[(code >> 10) & 7],
        code >> _WID_SHIFT,
        value=code & 0xFF,
        multicast=bool(code & 0x100),
        broadcast=bool(code & 0x200),
    )


# -- input-port state codes ----------------------------------------------------
S_IDLE, S_MC_PORT, S_MC_GRANT, S_MC_POINTER = 0, 1, 2, 3
S_MC_SEGMENT, S_MC_LEAF, S_REQUESTING, S_STREAMING = 4, 5, 6, 7

_STATE_CODE = {
    InputPort.IDLE: S_IDLE,
    InputPort.MC_PORT: S_MC_PORT,
    InputPort.MC_GRANT: S_MC_GRANT,
    InputPort.MC_POINTER: S_MC_POINTER,
    InputPort.MC_SEGMENT: S_MC_SEGMENT,
    InputPort.MC_LEAF_MARK: S_MC_LEAF,
    InputPort.REQUESTING: S_REQUESTING,
    InputPort.STREAMING: S_STREAMING,
}
_STATE_STR = [
    InputPort.IDLE, InputPort.MC_PORT, InputPort.MC_GRANT,
    InputPort.MC_POINTER, InputPort.MC_SEGMENT, InputPort.MC_LEAF_MARK,
    InputPort.REQUESTING, InputPort.STREAMING,
]


def _pow2(n: int) -> int:
    width = 1
    while width < n:
        width <<= 1
    return width


# -- array-backed views --------------------------------------------------------
class ArrayWire(Wire):
    """A :class:`Wire` whose rings and stats live in the lane's arrays.

    The forward ring is indexed by ``due_tick & mask``: at most one flit is
    pushed per tick and every flit is consumed exactly at its due tick (the
    lane polls every wire every tick), so slots never collide while the
    ring is wider than the delay.
    """

    # Adopted instances keep their __dict__ (delay, notify, receiver,
    # track); the hot state is served by these properties instead.

    def fail(self) -> set:
        lane, row = self._lane, self._row
        buf = lane.w_buf[row]
        lost = {int(w) for w in (buf[buf != 0] >> _WID_SHIFT)}
        buf[:] = 0
        lane.w_rsig[row, :] = -1
        # Some of the pending reverse symbols may just have been wiped:
        # recount rather than track which (faults are rare).
        lane._rsig_pending = int((lane.w_rsig >= 0).sum())
        lane.w_stop[row] = False
        lane.w_alive[row] = False
        lane._any_dead = True
        return lost

    def repair(self) -> None:
        lane = self._lane
        lane.w_alive[self._row] = True
        lane._any_dead = not bool(lane.w_alive.all())

    @property
    def alive(self) -> bool:
        return bool(self._lane.w_alive[self._row])

    @alive.setter
    def alive(self, value: bool) -> None:
        lane = self._lane
        lane.w_alive[self._row] = value
        lane._any_dead = not bool(lane.w_alive.all())

    @property
    def carried(self) -> int:
        return int(self._lane.w_carried[self._row])

    @carried.setter
    def carried(self, value: int) -> None:
        self._lane.w_carried[self._row] = value

    @property
    def idles(self) -> int:
        return int(self._lane.w_idles[self._row])

    @idles.setter
    def idles(self, value: int) -> None:
        self._lane.w_idles[self._row] = value

    @property
    def _last_push_tick(self) -> int:
        return int(self._lane.w_last_push[self._row])

    @_last_push_tick.setter
    def _last_push_tick(self, value: int) -> None:
        self._lane.w_last_push[self._row] = value

    @property
    def _tracked_wid(self) -> Optional[int]:
        wid = int(self._lane.w_tracked[self._row])
        return None if wid < 0 else wid

    @_tracked_wid.setter
    def _tracked_wid(self, value: Optional[int]) -> None:
        self._lane.w_tracked[self._row] = -1 if value is None else value

    @property
    def _forward(self):
        # Debug/compat view (quiescence checks, reprs): the in-flight
        # flits without their due ticks.
        buf = self._lane.w_buf[self._row]
        return [decode_flit(c) for c in buf[buf != 0]]

    @property
    def in_flight(self) -> int:
        return int(np.count_nonzero(self._lane.w_buf[self._row]))

    def push(self, flit: Flit, now: int) -> None:
        lane, row = self._lane, self._row
        if lane.w_last_push[row] == now:
            raise RuntimeError(f"two flits pushed on one wire in tick {now}")
        lane.w_last_push[row] = now
        if not lane.w_alive[row]:
            return  # a dead wire swallows the flit; the sender can't tell
        wid = flit.wid
        if wid != lane.w_tracked[row]:
            lane.w_tracked[row] = wid
            if self.track is not None and wid is not None:
                self.track(wid, self)
        if self.notify is not None and not np.any(lane.w_buf[row]):
            self.notify(self.receiver)
        lane.w_buf[row, (now + self.delay) & lane.dmask] = encode_flit(flit)
        lane.w_carried[row] += 1
        if flit.kind is FlitKind.IDLE:
            lane.w_idles[row] += 1

    def can_push(self, now: int) -> bool:
        return self._lane.w_last_push[self._row] != now

    def deliver(self, now: int) -> Optional[Flit]:
        lane, row = self._lane, self._row
        code = lane.w_buf[row, now & lane.dmask]
        if code:
            lane.w_buf[row, now & lane.dmask] = 0
            return decode_flit(code)
        return None

    def drop_worm(self, wid: int) -> int:
        buf = self._lane.w_buf[self._row]
        hit = (buf >> _WID_SHIFT) == wid
        hit &= buf != 0
        dropped = int(np.count_nonzero(hit))
        if dropped:
            buf[hit] = 0
        return dropped

    def signal_stop(self, stop: bool, now: int) -> None:
        lane, row = self._lane, self._row
        lane.w_rsig[row, (now + self.delay) & lane.dmask] = 1 if stop else 0
        lane._rsig_pending += 1

    def stop_at_sender(self, now: int) -> bool:
        # Symbols are applied eagerly by the lane's reverse-drain phase.
        return bool(self._lane.w_stop[self._row])


class ArraySlack(SlackBuffer):
    """A :class:`SlackBuffer` over one row of the lane's slack ring."""

    def __len__(self) -> int:
        return int(self._lane.s_len[self._row])

    @property
    def full(self) -> bool:
        return int(self._lane.s_len[self._row]) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._lane.s_len[self._row]

    @property
    def stopping(self) -> bool:
        return bool(self._lane.s_stopping[self._row])

    @property
    def _stopping(self) -> bool:
        return bool(self._lane.s_stopping[self._row])

    @_stopping.setter
    def _stopping(self, value: bool) -> None:
        self._lane.s_stopping[self._row] = value

    @property
    def overflows(self) -> int:
        return int(self._lane.s_ov[self._row])

    @overflows.setter
    def overflows(self, value: int) -> None:
        self._lane.s_ov[self._row] = value

    @property
    def peak(self) -> int:
        return int(self._lane.s_peak[self._row])

    @peak.setter
    def peak(self, value: int) -> None:
        self._lane.s_peak[self._row] = value

    @property
    def _flits(self):
        # Debug/compat view (quiescence checks, reprs).
        lane, row = self._lane, self._row
        head, n = int(lane.s_head[row]), int(lane.s_len[row])
        return [
            decode_flit(lane.s_buf[row, (head + i) & lane.cmask])
            for i in range(n)
        ]

    def push(self, flit: Flit) -> None:
        lane, row = self._lane, self._row
        n = int(lane.s_len[row])
        if n >= self.capacity:
            lane.s_ov[row] += 1
            return
        lane.s_buf[row, (lane.s_head[row] + n) & lane.cmask] = encode_flit(flit)
        lane.s_len[row] = n + 1
        if n + 1 > lane.s_peak[row]:
            lane.s_peak[row] = n + 1

    def front(self) -> Optional[Flit]:
        lane, row = self._lane, self._row
        if not lane.s_len[row]:
            return None
        return decode_flit(lane.s_buf[row, lane.s_head[row] & lane.cmask])

    def peek(self, index: int) -> Optional[Flit]:
        lane, row = self._lane, self._row
        if index >= lane.s_len[row]:
            return None
        return decode_flit(
            lane.s_buf[row, (lane.s_head[row] + index) & lane.cmask]
        )

    def pop(self) -> Flit:
        lane, row = self._lane, self._row
        code = lane.s_buf[row, lane.s_head[row] & lane.cmask]
        lane.s_head[row] += 1
        lane.s_len[row] -= 1
        return decode_flit(code)

    def drop_worm(self, wid: int) -> int:
        lane, row = self._lane, self._row
        head, n = int(lane.s_head[row]), int(lane.s_len[row])
        if not n:
            return 0
        idx = (head + np.arange(n)) & lane.cmask
        vals = lane.s_buf[row, idx]
        kept = vals[(vals >> _WID_SHIFT) != wid]
        dropped = n - kept.size
        if dropped:
            lane.s_buf[row, (head + np.arange(kept.size)) & lane.cmask] = kept
            lane.s_len[row] = kept.size
        return dropped

    def desired_stop(self) -> bool:
        lane, row = self._lane, self._row
        occupancy = int(lane.s_len[row])
        if lane.s_stopping[row]:
            if occupancy <= self.go_mark:
                lane.s_stopping[row] = False
        elif occupancy >= self.stop_mark:
            lane.s_stopping[row] = True
        return bool(lane.s_stopping[row])


class ArrayInputPort(InputPort):
    """An :class:`InputPort` whose state code feeds the lane's bulk mask.

    The ``state`` setter is the single funnel through which every
    connection transition flows (the object state machine, ``disconnect``,
    teardown), so the lane's "bulk streamable" flag and the streaming
    port's output-row cache are maintained exactly where the transitions
    happen.
    """

    @property
    def state(self) -> str:
        return _STATE_STR[self._lane.p_state[self._row]]

    @state.setter
    def state(self, value: str) -> None:
        lane, row = self._lane, self._row
        code = _STATE_CODE[value]
        lane.p_state[row] = code
        lane.p_wait[row] = False
        if code == S_STREAMING and len(self.branches) == 1:
            output = self.switch.outputs[self.branches[0].port]
            lane.p_bulk[row] = True
            lane.p_out_wire[row] = output.wire._row
            lane.p_out_port[row] = output._row
        else:
            lane.p_bulk[row] = False

    @property
    def _last_stop(self) -> bool:
        return bool(self._lane.p_last_stop[self._row])

    @_last_stop.setter
    def _last_stop(self, value: bool) -> None:
        self._lane.p_last_stop[self._row] = value

    @property
    def _site_wid(self) -> Optional[int]:
        wid = int(self._lane.p_site_wid[self._row])
        return None if wid < 0 else wid

    @_site_wid.setter
    def _site_wid(self, value: Optional[int]) -> None:
        self._lane.p_site_wid[self._row] = -1 if value is None else value


class ArrayOutputPort(OutputPort):
    """An :class:`OutputPort` with array-backed stats (the vector advance
    updates the same counters the scalar ``emit`` path does) and a grant
    hook that wakes parked REQUESTING inputs (see ``ArrayLane.p_wait``)."""

    def _grant(self) -> None:
        had_holder = self.holder
        super()._grant()
        if self.holder is not None and self.holder != had_holder:
            self._lane.p_wait[self.switch.inputs[self.holder]._row] = False

    @property
    def idle_run(self) -> int:
        return int(self._lane.o_idle_run[self._row])

    @idle_run.setter
    def idle_run(self, value: int) -> None:
        self._lane.o_idle_run[self._row] = value

    @property
    def sent_flits(self) -> int:
        return int(self._lane.o_sent[self._row])

    @sent_flits.setter
    def sent_flits(self, value: int) -> None:
        self._lane.o_sent[self._row] = value


class ArrayFlitAdapter(FlitAdapter):
    """A :class:`FlitAdapter` whose tx/rx hot paths run in the lane.

    The record queue stays the object-side ``_tx`` deque; ``enqueue`` marks
    the lane dirty so the front record is (re)loaded into the transmit
    arrays at the start of the next transmit phase -- exactly when the
    dense engine's ``tick_output`` would first see it.

    The lane's vector receive path deliberately does *not* maintain
    ``_rx_progress``: that dict is write-only state (its only reader is
    the deletion at TAIL), so skipping it is unobservable.
    """

    def enqueue(self, record: WormRecord) -> None:
        self._tx.append(record)
        self._lane._tx_dirty = True

    def requeue_front(self, record: WormRecord) -> None:
        self._tx.appendleft(record)
        self._lane._tx_dirty = True

    @property
    def received_flits(self) -> int:
        return int(self._lane.a_rx_flits[self._row])

    @received_flits.setter
    def received_flits(self, value: int) -> None:
        self._lane.a_rx_flits[self._row] = value


class ArrayLane:
    """The SoA state plus the vectorized tick for ``engine="array"``."""

    def __init__(self, network: "FlitNetwork") -> None:
        self.network = network
        switches = network._switch_list
        adapters = network._adapter_list

        # -- enumerate components in dense order --------------------------
        self.ports: List[InputPort] = []
        self.outputs: List[OutputPort] = []
        for switch in switches:
            self.ports.extend(switch.inputs)
            self.outputs.extend(switch.outputs)
        self.wires: List[Wire] = []
        rows: dict = {}
        for wire in self._live_wires():
            if id(wire) not in rows:
                rows[id(wire)] = len(self.wires)
                self.wires.append(wire)

        P = len(self.ports)
        W = len(self.wires)
        max_delay = max((w.delay for w in self.wires), default=1)
        #: Forward/reverse ring width: strictly wider than any delay so
        #: ``due & mask`` slots cannot collide (one push per wire per tick,
        #: consumed exactly at the due tick).
        D = _pow2(max_delay + 2)
        self.dmask = D - 1
        cap = max((p.slack.capacity for p in self.ports), default=2)
        C = _pow2(cap)
        self.cmask = C - 1

        # -- wire state (row W is a permanently-empty dummy) ---------------
        self.w_buf = np.zeros((W + 1, D), dtype=np.int64)
        self.w_rsig = np.full((W + 1, D), -1, dtype=np.int8)
        self.w_stop = np.zeros(W + 1, dtype=bool)
        self.w_alive = np.ones(W + 1, dtype=bool)
        self.w_last_push = np.full(W + 1, -1, dtype=np.int64)
        self.w_tracked = np.full(W + 1, -1, dtype=np.int64)
        self.w_carried = np.zeros(W + 1, dtype=np.int64)
        self.w_idles = np.zeros(W + 1, dtype=np.int64)
        self.w_delay = np.ones(W + 1, dtype=np.int64)

        # -- slack / input-port state --------------------------------------
        self.s_buf = np.zeros((P, C), dtype=np.int64)
        self.s_head = np.zeros(P, dtype=np.int64)
        self.s_len = np.zeros(P, dtype=np.int64)
        self.s_cap = np.zeros(P, dtype=np.int64)
        self.s_stop_mark = np.zeros(P, dtype=np.int64)
        self.s_go_mark = np.zeros(P, dtype=np.int64)
        self.s_stopping = np.zeros(P, dtype=bool)
        self.s_ov = np.zeros(P, dtype=np.int64)
        self.s_peak = np.zeros(P, dtype=np.int64)
        self.p_state = np.zeros(P, dtype=np.int8)
        self.p_bulk = np.zeros(P, dtype=bool)
        self.p_last_stop = np.zeros(P, dtype=bool)
        self.p_site_wid = np.full(P, -1, dtype=np.int64)
        self.p_wire = np.zeros(P, dtype=np.int64)
        self.p_out_port = np.zeros(P, dtype=np.int64)
        self.o_idle_run = np.zeros(P, dtype=np.int64)
        self.o_sent = np.zeros(P, dtype=np.int64)
        self._prange = np.arange(P)
        self._prange_C = self._prange * C
        self._P = P
        #: Parked REQUESTING ports (plain list: mutated mid-loop by the
        #: ``_grant`` wake hook and read per-element in the scalar loop).
        #: Outside scheme 3 a REQUESTING port's ``_advance`` is a pure
        #: poll -- its requests are already queued and grants arrive
        #: synchronously through ``OutputPort._grant`` -- so the lane
        #: parks it until a grant (or a state change) wakes it.
        self.p_wait = [False] * P

        # -- adopt the object graph ----------------------------------------
        for row, wire in enumerate(self.wires):
            if wire._forward or wire._reverse:  # pragma: no cover - defensive
                raise RuntimeError("array lane must adopt an idle network")
            self.w_delay[row] = wire.delay
            self.w_alive[row] = wire.alive
            wire._lane = self
            wire._row = row
            d = wire.__dict__
            for stale in (
                "_forward", "_reverse", "_stop_at_sender", "_last_push_tick",
                "carried", "idles", "alive", "_tracked_wid",
            ):
                d.pop(stale, None)
            wire.__class__ = ArrayWire
        for row, port in enumerate(self.ports):
            self.p_wire[row] = port.wire._row
            slack = port.slack
            self.s_cap[row] = slack.capacity
            self.s_stop_mark[row] = slack.stop_mark
            self.s_go_mark[row] = slack.go_mark
            slack._lane = self
            slack._row = row
            for stale in ("_flits", "_stopping", "overflows", "peak"):
                slack.__dict__.pop(stale, None)
            slack.__class__ = ArraySlack
            port._lane = self
            port._row = row
            for stale in ("state", "_last_stop", "_site_wid"):
                port.__dict__.pop(stale, None)
            port.__class__ = ArrayInputPort
        for row, output in enumerate(self.outputs):
            output._lane = self
            output._row = row
            for stale in ("idle_run", "sent_flits"):
                output.__dict__.pop(stale, None)
            output.__class__ = ArrayOutputPort

        self.adapters = adapters
        A = len(adapters)
        dummy = W  # permanently-empty row for adapters without a wire
        self.a_rx_wire = np.array(
            [
                a.wire_in._row if a.wire_in is not None else dummy
                for a in adapters
            ],
            dtype=np.int64,
        )
        # Shared emitter buffer: rows [0, P) are the bulk ports' cached
        # output wires (maintained by the ``state`` setter), rows [P, P+A)
        # the adapters' transmit wires.  One candidate mask + one ready
        # computation then covers both the advance and transmit phases.
        self._e_wire = np.zeros(P + A, dtype=np.int64)
        self.p_out_wire = self._e_wire[:P]
        self.a_tx_wire = self._e_wire[P:]
        self.a_tx_wire[:] = [
            a.wire_out._row if a.wire_out is not None else dummy
            for a in adapters
        ]
        self.a_rx_flits = np.zeros(A, dtype=np.int64)
        # Transmit state: the front record of each adapter's queue, its
        # flits pre-encoded into one pool row, advanced one per tick.
        self.a_busy = np.zeros(A, dtype=bool)
        self.a_pos = np.zeros(A, dtype=np.int64)
        self.a_len = np.zeros(A, dtype=np.int64)
        self.a_wid = np.zeros(A, dtype=np.int64)
        self._tx_pool = np.zeros((A, 64), dtype=np.int64)
        self._tx_records: List[Optional[WormRecord]] = [None] * A
        self._tx_dirty = any(a._tx for a in adapters)
        for row, adapter in enumerate(adapters):
            self.a_rx_flits[row] = adapter.received_flits
            adapter._lane = self
            adapter._row = row
            adapter.__dict__.pop("received_flits", None)
            adapter.__class__ = ArrayFlitAdapter
        self.port_switch = [p.switch for p in self.ports]
        # Fused receive gather: switch input wires then adapter rx wires,
        # one fancy index per tick instead of two.  The ``*_flat`` views
        # plus pre-shifted row offsets turn every 2-D gather/scatter on
        # the hot path into a cheaper flat 1-D one.
        self._in_rows = np.concatenate([self.p_wire, self.a_rx_wire])
        self._w_flat = self.w_buf.reshape(-1)
        self._s_flat = self.s_buf.reshape(-1)
        self._dbits = D.bit_length() - 1
        self._cbits = C.bit_length() - 1
        self._in_rows_s = self._in_rows << self._dbits
        # Per-column gather indices, precomputed for every ring column so
        # the per-tick receive gather needs no index arithmetic.  Gated on
        # ring width: pathological delays would make the table huge.
        if D <= 64:
            self._in_cols = [self._in_rows_s + c for c in range(D)]
        else:  # pragma: no cover - only for extreme propagation delays
            self._in_cols = None
        self._flush = network.mode == IDLE_FLUSH
        #: Count of STOP/GO symbols still in flight in the reverse rings;
        #: the drain phase is skipped entirely while it is zero.
        self._rsig_pending = 0
        #: True while any wire is dead -- lets the emit path skip the
        #: aliveness masking in the (common) all-alive case.
        self._any_dead = not bool(self.w_alive.all())

        # -- killed-worm lookup (built lazily, refreshed on growth) --------
        self._killed_arr = np.zeros(0, dtype=bool)
        self._killed_len = 0

        # -- optional phase timer (repro.obs) ------------------------------
        obs = network.obs
        self.timer = getattr(obs, "phases", None) if obs is not None else None

    def _live_wires(self):
        """Every wire still referenced after splicing, in dense order."""
        for switch in self.network._switch_list:
            for port in switch.inputs:
                yield port.wire
            for output in switch.outputs:
                yield output.wire
        for adapter in self.network._adapter_list:
            if adapter.wire_out is not None:
                yield adapter.wire_out
            if adapter.wire_in is not None:
                yield adapter.wire_in

    # -- killed lookup ---------------------------------------------------------
    def _killed_mask(self, wids: np.ndarray) -> np.ndarray:
        killed = self.network.killed
        if len(killed) != self._killed_len:
            size = max(killed) + 1
            arr = np.zeros(size, dtype=bool)
            arr[list(killed)] = True
            self._killed_arr = arr
            self._killed_len = len(killed)
        arr = self._killed_arr
        mask = np.zeros(wids.shape, dtype=bool)
        inb = wids < arr.size
        mask[inb] = arr[wids[inb]]
        return mask

    # -- adapter transmit bookkeeping ------------------------------------------
    def _tx_load(self) -> None:
        """Load the front record of every idle, non-empty adapter queue
        into the transmit arrays.  Runs at the start of the transmit phase
        -- the first instant the dense engine's ``tick_output`` would see a
        newly enqueued record -- so first-flit timing matches exactly."""
        self._tx_dirty = False
        pool = self._tx_pool
        for row, adapter in enumerate(self.adapters):
            if self.a_busy[row] or not adapter._tx or adapter.wire_out is None:
                continue
            record = adapter._tx[0]
            flits = record.flits
            n = len(flits)
            if n > pool.shape[1]:
                pool = np.zeros(
                    (pool.shape[0], _pow2(n)), dtype=np.int64
                )
                pool[:, : self._tx_pool.shape[1]] = self._tx_pool
                self._tx_pool = pool
            pool[row, :n] = np.fromiter(
                (encode_flit(f) for f in flits), dtype=np.int64, count=n
            )
            self.a_pos[row] = 0
            self.a_len[row] = n
            self.a_wid[row] = record.wid
            self.a_busy[row] = True
            self._tx_records[row] = record

    def _tx_drop_front(self, row: int) -> None:
        """Retire the loaded record (tail pushed, or aborted after a
        flush); the next queued record loads on the next tick's
        ``_tx_load``, matching the dense one-action-per-tick cadence."""
        adapter = self.adapters[row]
        adapter._tx.popleft()
        adapter._tx_pos = 0
        self.a_busy[row] = False
        self._tx_records[row] = None
        if adapter._tx:
            self._tx_dirty = True

    def _tx_abort_killed(self) -> bool:
        """Abort loaded records whose worm was flushed; the network's
        retransmit callback re-enqueues a fresh record."""
        aborted = self.a_busy & self._killed_mask(self.a_wid)
        if not np.count_nonzero(aborted):
            return False
        for i in aborted.nonzero()[0]:
            self._tx_drop_front(int(i))
        return True

    def _emit_ready(self, now, prows, front_p, arows) -> bool:
        """One shared emit pass over the candidate rows: ``prows`` (< P)
        pop their slack front (pre-gathered into ``front_p``), ``arows``
        push the next pre-encoded flit of their adapter's loaded record.
        Candidates arrive as ascending row indices rather than a
        full-width mask, so the wire-readiness test and all bookkeeping
        stay proportional to the active set.  Ascending row order keeps
        the dense callback order (switches, then hosts)."""
        P = self._P
        n_pc = prows.size
        if n_pc:
            rows_all = (
                np.concatenate((prows, arows + P)) if arows.size else prows
            )
        elif arows.size:
            rows_all = arows + P
        else:
            return False
        lastp = self.w_last_push
        wr0 = self._e_wire[rows_all]
        ok = (lastp[wr0] != now) & ~self.w_stop[wr0]
        n_ok = int(np.count_nonzero(ok))
        if not n_ok:
            return False
        if n_ok != rows_all.size:
            rows_all = rows_all[ok]
            wr = wr0[ok]
        else:
            wr = wr0
        n_p = int(np.searchsorted(rows_all, P))
        prows_s = rows_all[:n_p]
        arows_s = rows_all[n_p:] - P
        if n_p:
            codes = front_p if n_p == n_pc else front_p[ok[:n_pc]]
            self.s_head[prows_s] += 1
            self.s_len[prows_s] -= 1
        if arows_s.size:
            pos = self.a_pos[arows_s]
            for i in arows_s[pos == 0]:
                record = self._tx_records[i]
                if record.injected_at is None:
                    record.injected_at = now
                    self.network._note_injection(record)
            codes_a = self._tx_pool[arows_s, pos]
            codes = np.concatenate((codes, codes_a)) if n_p else codes_a
        lastp[wr] = now
        if self._any_dead:
            # Dead wires swallow the flit after the push is recorded; the
            # per-port stats below still use the unfiltered idleness.
            alive = self.w_alive[wr]
            idle_all = ((codes >> 10) & 7) == K_IDLE
            lw = wr[alive]
            lf = codes[alive]
            lidle = idle_all[alive]
            pidle = idle_all[:n_p]
        else:
            lw = wr
            lf = codes
            lidle = ((lf >> 10) & 7) == K_IDLE
            pidle = lidle[:n_p]
        self._w_flat[
            (lw << self._dbits) + ((now + self.w_delay[lw]) & self.dmask)
        ] = lf
        self.w_carried[lw] += 1
        self.w_idles[lw] += lidle
        # First flit of a worm on a wire: site tracking (rare).
        fwids = lf >> _WID_SHIFT
        fresh = self.w_tracked[lw] != fwids
        if np.count_nonzero(fresh):
            for j in fresh.nonzero()[0]:
                wire = self.wires[int(lw[j])]
                if wire.track is not None:
                    wire.track(int(fwids[j]), wire)
            self.w_tracked[lw[fresh]] = fwids[fresh]
        if n_p:
            op = self.p_out_port[prows_s]
            self.o_sent[op] += 1
            self.o_idle_run[op] = np.where(pidle, self.o_idle_run[op] + 1, 0)
        if arows_s.size:
            self.a_pos[arows_s] = pos + 1
            for i in arows_s[pos + 1 >= self.a_len[arows_s]]:
                self._tx_drop_front(int(i))
        return True

    # -- the tick --------------------------------------------------------------
    def tick(self, now: int) -> bool:
        timer = self.timer
        t0 = perf_counter() if timer is not None else 0.0
        moved = False
        col = now & self.dmask
        P = self._P

        # Phase 1: reverse STOP/GO drain (eager, see module docstring).
        # Skipped outright while no symbols are in flight.
        if self._rsig_pending:
            rsig = self.w_rsig[:, col]
            due = rsig >= 0
            n_due = int(np.count_nonzero(due))
            if n_due:
                self.w_stop[due] = rsig[due] != 0
                rsig[due] = -1
                self._rsig_pending -= n_due

        # Phase 2+3: deliver + absorb, switch input ports and adapter
        # receive sides in one fused gather (ports occupy rows [0, P)
        # of ``_in_rows``, matching the dense order: switches first).
        # After the gather everything runs on the due-row index set, so
        # the per-tick cost tracks activity rather than network size.
        w_flat = self._w_flat
        in_cols = self._in_cols
        in_idx = in_cols[col] if in_cols is not None else self._in_rows_s + col
        inc_all = w_flat[in_idx]
        rows_act = inc_all.nonzero()[0]
        if rows_act.size:
            moved = True
            w_flat[in_idx[rows_act]] = 0  # consumed
            inc_act = inc_all[rows_act]
            wids_act = inc_act >> _WID_SHIFT
            if self.network.killed:
                kmask = self._killed_mask(wids_act)
                if kmask.any():
                    keepm = ~kmask
                    rows_act = rows_act[keepm]
                    inc_act = inc_act[keepm]
                    wids_act = wids_act[keepm]
            n_sw = int(np.searchsorted(rows_act, P))
            if n_sw:
                rows_p = rows_act[:n_sw]
                inc = inc_act[:n_sw]
                wids = wids_act[:n_sw]
                # First flit of a worm at this port: register the switch
                # in the per-worm site index, in dense port order.
                fresh = wids != self.p_site_wid[rows_p]
                if fresh.any():
                    register = self.network._register_site
                    port_switch = self.port_switch
                    for j in fresh.nonzero()[0]:
                        register(int(wids[j]), port_switch[rows_p[j]])
                    self.p_site_wid[rows_p[fresh]] = wids[fresh]
                slen = self.s_len[rows_p]
                full = slen >= self.s_cap[rows_p]
                if full.any():
                    self.s_ov[rows_p[full]] += 1
                    keepm = ~full
                    rows_p = rows_p[keepm]
                    inc = inc[keepm]
                    slen = slen[keepm]
                if rows_p.size:
                    self._s_flat[
                        (rows_p << self._cbits)
                        + ((self.s_head[rows_p] + slen) & self.cmask)
                    ] = inc
                    slen = slen + 1
                    self.s_len[rows_p] = slen
                    self.s_peak[rows_p] = np.maximum(
                        self.s_peak[rows_p], slen
                    )
            # Adapter receive (dense order: after switch inputs).
            # ROUTE/IDLE flits are stripped without counting as progress
            # (deadlocked IDLE fills must not look like motion); killed
            # worms drain silently; TAILs complete worms through the
            # object-path delivery bookkeeping.
            if n_sw < rows_act.size:
                arows_r = rows_act[n_sw:] - P
                inc_a = inc_act[n_sw:]
                kind_a = (inc_a >> 10) & 7
                payload = kind_a >= K_DATA
                n_payload = int(np.count_nonzero(payload))
                if n_payload:
                    self.a_rx_flits[arows_r[payload]] += 1
                    self.network._progress_events += n_payload
                    tails = payload & (kind_a == K_TAIL)
                    if tails.any():
                        wids_a = wids_act[n_sw:]
                        adapters = self.adapters
                        record_delivery = self.network.record_delivery
                        for j in tails.nonzero()[0]:
                            adapter = adapters[arows_r[j]]
                            wid = int(wids_a[j])
                            adapter.received_worms.append(wid)
                            record_delivery(wid, adapter.host_id, now)
        # Figure-1 hysteresis for every port, then scatter the changed
        # STOP/GO symbols into the input wires' reverse rings.
        occ = self.s_len
        new_stop = np.where(
            self.s_stopping, occ > self.s_go_mark, occ >= self.s_stop_mark
        )
        self.s_stopping[:] = new_stop
        changed = new_stop != self.p_last_stop
        if np.count_nonzero(changed):
            rows = changed.nonzero()[0]
            wr = self.p_wire[rows]
            self.w_rsig[wr, (now + self.w_delay[wr]) & self.dmask] = new_stop[
                rows
            ]
            self.p_last_stop[rows] = new_stop[rows]
            self._rsig_pending += rows.size
        if timer is not None:
            t1 = perf_counter()
            timer.add("deliver", t1 - t0)
            t0 = t1

        # Phase 4+5: advance + transmit.  Bulk-stream the single-branch
        # STREAMING ports whose front is plain payload, fused with the
        # adapter transmit push into one emit pass; everything else
        # (headers, grants, multicast replication, teardown) goes through
        # the object path in dense port order.  Scheme 3 runs its advance
        # fully scalar (mid-tick flushes are ordering- and RNG-sensitive)
        # and transmits only after the flush pass, as the dense engine
        # does.
        if self._tx_dirty:
            self._tx_load()
        slen_pos = self.s_len > 0
        busy = (self.p_state != S_IDLE) | slen_pos
        if self._flush:
            srows = busy.nonzero()[0]
            if srows.size:
                ports = self.ports
                for p in srows:
                    port = ports[p]
                    if port.switch._advance(port, now):
                        moved = True
            if timer is not None:
                t1 = perf_counter()
                timer.add("contend", t1 - t0)
                t0 = t1
            # Transmit after the flush pass: a flush may have killed the
            # very worm an adapter is mid-injecting.
            if self.network.killed and self._tx_abort_killed():
                moved = True
            if self._emit_ready(
                now, _EMPTY_I64, _EMPTY_I64, self.a_busy.nonzero()[0]
            ):
                moved = True
            if timer is not None:
                timer.add("inject", perf_counter() - t0)
            return moved

        # Killed worms cannot appear mid-tick outside scheme 3, so the
        # abort check can run before the fused emit.
        if self.network.killed and self._tx_abort_killed():
            moved = True
        # Bulk-streamable candidates: occupied single-branch STREAMING
        # ports whose front is plain payload.  Gather the fronts for the
        # (few) occupied bulk rows only; the kind test runs on the raw
        # codes (see ``_KIND_FIELD``).
        qrows = (self.p_bulk & slen_pos).nonzero()[0]
        if qrows.size:
            front_q = self._s_flat[
                (qrows << self._cbits) + (self.s_head[qrows] & self.cmask)
            ]
            stream = (front_q & _KIND_FIELD) < _FTAIL_FIELD
            prows = qrows[stream]
            front_p = front_q[stream]
        else:
            prows = qrows
            front_p = _EMPTY_I64
        if self._emit_ready(now, prows, front_p, self.a_busy.nonzero()[0]):
            moved = True
        if timer is not None:
            t1 = perf_counter()
            timer.add("advance", t1 - t0)
            t0 = t1

        # ``busy`` is a per-tick temporary, so the bulk rows can be
        # cleared in place instead of building a second full-width mask.
        scalar = busy
        if prows.size:
            scalar[prows] = False
        srows = scalar.nonzero()[0]
        if srows.size:
            ports = self.ports
            wait = self.p_wait
            p_state = self.p_state
            # Parked ports stay in the iteration (not pre-filtered) so a
            # grant released by an *earlier* port in this very loop clears
            # the flag in time for the woken port's same-tick advance --
            # the exact timing of the dense in-order poll.
            for p in srows.tolist():
                if wait[p]:
                    continue
                port = ports[p]
                if port.switch._advance(port, now):
                    moved = True
                elif p_state[p] == S_REQUESTING:
                    # Pure poll from here on: every branch request is
                    # queued; park until OutputPort._grant wakes us.
                    wait[p] = True
        if timer is not None:
            timer.add("contend", perf_counter() - t0)
        return moved

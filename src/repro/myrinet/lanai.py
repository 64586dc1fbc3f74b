"""LANai network-interface timing model.

Time unit in this module: **microseconds** (the natural unit for host
software overheads; 1 byte on a 640 Mb/s link is 0.0125 us).

The adapter implements the paper's Hamiltonian-circuit multicast firmware
(Section 8): multicast packets are recognized by group id, copied to the
host, and retransmitted to the next hop entirely within the NIC,
store-and-forward, stopping at the previous node in the circuit.  There is
no backpressure from the adapter into the network: a packet arriving to a
full input buffer is dropped and counted (Figure 13's loss).

Each card's work runs as small callback state machines, :class:`_LanaiJob`,
each its own event-queue entry: one per sending card (the greedy send
loop) and one per admitted packet (drain into SRAM, host copy, optional
store-and-forward).  A card's link, LANai and host CPU are each a
:class:`_Unit`: a holder plus a first-come-first-served queue of jobs.  A
packet crossing the switch path is a :class:`_HandOff` entry.  Every entry
lands where a process-per-packet model's event would, with the same
instant and key, so same-instant order and every result are that model's:

* process bootstrap: the job, enqueued urgent at the current instant;
* a timed wait of ``d``: the job, enqueued at ``now + d``;
* a unit taken while free: nothing, the job goes on in place;
* a unit taken while busy: nothing until the holder releases it; the
  release hands the unit to the first waiter and enqueues that job at the
  release instant;
* the path latency to the successor: one :class:`_HandOff` entry at
  ``now + path_latency_us``.

A finished job enqueues nothing (a finished process would enqueue an entry
nobody waits on).  The jobs push onto the kernel's heap themselves
(:meth:`Simulator.entry_queue`), so :class:`MyrinetAdapter` checks every
delay its configuration can produce when it is built.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Deque, Optional

from repro.sim.engine import URGENT_KEY, Simulator
from repro.sim.resources import Container


@dataclass
class LanaiConfig:
    """Calibration constants for the testbed model.

    ``host_send_overhead_us`` dominates: it covers the application-space
    interface handing the packet to the NIC on a 70 MHz SPARCstation 5
    (the paper notes these hosts have low IP throughput relative to the
    network, which is why the app-space tool was used at all).
    """

    link_mbps: float = 640.0
    host_send_overhead_us: float = 350.0
    #: Host-side per-byte copy cost (app-space interface moves the packet
    #: through the 70 MHz SPARCstation's memory system).
    host_copy_us_per_byte: float = 0.025
    nic_forward_overhead_us: float = 25.0
    nic_rx_overhead_us: float = 5.0
    input_buffer_bytes: int = 25 * 1024
    path_latency_us: float = 1.0
    #: Host-side cost of taking one received packet off the NIC (DMA into
    #: host memory + application read).  In the all-send pattern this work
    #: competes with packet *origination* for the 70 MHz host CPU, which is
    #: what pulls the all-send curve of Figure 12 below the single-sender
    #: curve.
    host_recv_overhead_us: float = 323.0
    host_recv_us_per_byte: float = 0.0363
    #: The LANai is a single 16-bit processor: draining an arrived packet
    #: into SRAM, originating, and forwarding all compete for it.  This is
    #: what makes loss appear only when hosts originate *and* forward
    #: (Section 8.2's observation).
    cpu_bound_rx: bool = True

    def wire_time_us(self, size_bytes: int) -> float:
        """Transmission time of ``size_bytes`` on the link."""
        return size_bytes * 8.0 / self.link_mbps

    def host_send_us(self, size_bytes: int) -> float:
        """Host-side cost to hand one packet to the NIC."""
        return self.host_send_overhead_us + self.host_copy_us_per_byte * size_bytes

    def host_recv_us(self, size_bytes: int) -> float:
        """Host-side cost to take one received packet off the NIC."""
        return self.host_recv_overhead_us + self.host_recv_us_per_byte * size_bytes


#: The configuration's delays: each must be a finite number >= 0.
_DELAY_FIELDS = (
    "host_send_overhead_us",
    "host_copy_us_per_byte",
    "nic_forward_overhead_us",
    "nic_rx_overhead_us",
    "path_latency_us",
    "host_recv_overhead_us",
    "host_recv_us_per_byte",
)


def _check_config(config: LanaiConfig) -> None:
    """Reject a configuration that could schedule a negative, NaN or
    infinite delay: with it and a packet size >= 0, every delay a job
    enqueues is a finite number >= 0."""
    for name in _DELAY_FIELDS:
        value = getattr(config, name)
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    if not (config.link_mbps > 0 and math.isfinite(config.link_mbps)):
        raise ValueError(
            f"link_mbps must be a finite number > 0, got {config.link_mbps!r}"
        )


@dataclass
class Packet:
    """One multicast packet on the testbed."""

    origin: int
    size: int
    hop_count: int
    created_us: float


class AdapterStats:
    """Per-adapter counters for the Figure 12/13 metrics."""

    __slots__ = (
        "originated", "received_packets", "received_bytes",
        "arrivals", "drops", "injected_drops", "forwarded",
    )

    def __init__(self) -> None:
        self.originated = 0
        self.received_packets = 0
        self.received_bytes = 0
        self.arrivals = 0
        self.drops = 0
        self.injected_drops = 0
        self.forwarded = 0

    def reset(self) -> None:
        self.__init__()

    @property
    def loss_rate(self) -> float:
        return self.drops / self.arrivals if self.arrivals else 0.0


class _Unit:
    """One of a card's single-server units: its link, LANai or host CPU.

    ``holder`` is the job using it (None while idle); jobs that find it
    busy queue in ``waiters``, first come first served, and the release
    hands it to the first of them (:meth:`_LanaiJob._release`).
    """

    __slots__ = ("holder", "waiters")

    def __init__(self) -> None:
        self.holder: Optional[_LanaiJob] = None
        self.waiters: Deque[_LanaiJob] = deque()


class _HandOff:
    """A packet crossing the switch path: hands it to the next card."""

    __slots__ = ("card", "packet")

    def __init__(self, card: "MyrinetAdapter", packet: Packet) -> None:
        self.card = card
        self.packet = packet

    def _process(self) -> None:
        self.card.receive(self.packet)


class _LanaiJob:
    """One card's greedy send loop, or one admitted packet, as a callback
    state machine that is its own queue entry.

    ``step`` is the function :meth:`_process` runs next.  A timed wait
    (:meth:`_after`) sets it and pushes the job at ``now + delay``; a unit
    taken while busy (:meth:`_acquire`) sets it and queues the job on the
    unit, whose release pushes the job at the release instant.  The steps
    run in the order of the model's timeline:

    * send loop: take the host CPU, hand the packet to the NIC
      (``host_send_us``), release the host CPU, transmit, count it
      ``originated``, loop;
    * admitted packet: drain it into SRAM (``nic_rx_overhead_us``, plus
      the wire time on the LANai when ``cpu_bound_rx``), copy it to the
      host on the host CPU when that costs anything, count it received,
      and, while hops remain, wait ``nic_forward_overhead_us``, transmit a
      copy and count it ``forwarded``; finally return its input-buffer
      bytes;
    * transmit: take the LANai (when ``cpu_bound_rx``), then the link, hold
      both for the wire time, release the link and then the LANai, and
      enqueue the :class:`_HandOff` to the successor.
    """

    __slots__ = (
        "card", "config", "sim", "queue", "next_eid", "sending", "packet",
        "size", "hop_count", "step",
    )

    def __init__(
        self,
        card: "MyrinetAdapter",
        packet: Optional[Packet] = None,
        size: int = 0,
        hop_count: int = 0,
    ) -> None:
        self.card = card
        self.config = card.config
        self.sim = sim = card.sim
        self.queue = card._queue
        self.next_eid = card._next_eid
        #: True for the send loop, False for an admitted packet.
        self.sending = sending = packet is None
        #: The packet the job carries: the admitted one, then its forwarded
        #: copy; for the send loop, the one it last handed to the NIC.
        self.packet = packet
        #: Send loop only: what each originated packet looks like.
        self.size = size
        self.hop_count = hop_count
        self.step = _LanaiJob._send if sending else _LanaiJob._drain
        heappush(self.queue, (sim.now, self.next_eid() - URGENT_KEY, self))

    def _process(self) -> None:
        self.step(self)

    # -- scheduling ------------------------------------------------------------
    def _after(self, delay: float, step: Callable[["_LanaiJob"], None]) -> None:
        """Go on at ``step`` once ``delay`` has passed."""
        self.step = step
        heappush(self.queue, (self.sim.now + delay, self.next_eid(), self))

    def _acquire(self, unit: _Unit, step: Callable[["_LanaiJob"], None]) -> None:
        """Take ``unit`` and go on at ``step``: in place if it is free,
        else once its holder hands it over."""
        if unit.holder is None:
            unit.holder = self
            step(self)
        else:
            self.step = step
            unit.waiters.append(self)

    def _release(self, unit: _Unit) -> None:
        """Let go of ``unit``: its first waiter takes it and is enqueued at
        this instant, behind the entries already due."""
        waiters = unit.waiters
        if waiters:
            unit.holder = nxt = waiters.popleft()
            heappush(self.queue, (self.sim.now, self.next_eid(), nxt))
        else:
            unit.holder = None

    # -- the greedy send loop --------------------------------------------------
    def _send(self) -> None:
        # Host-side per-packet work (app -> driver -> NIC SRAM); the host
        # CPU is shared with the receive path.
        self._acquire(self.card.host_cpu, _LanaiJob._host_send)

    def _host_send(self) -> None:
        self._after(self.config.host_send_us(self.size), _LanaiJob._handed_to_nic)

    def _handed_to_nic(self) -> None:
        card = self.card
        self._release(card.host_cpu)
        self.packet = Packet(
            origin=card.host_id,
            size=self.size,
            hop_count=self.hop_count,
            created_us=self.sim.now,
        )
        self._transmit()

    # -- an admitted packet ----------------------------------------------------
    def _drain(self) -> None:
        if self.config.cpu_bound_rx:
            # Drain the packet from the input port into SRAM: the LANai
            # moves the bytes itself, so the drain waits for the processor.
            self._acquire(self.card.cpu, _LanaiJob._drain_on_lanai)
        else:
            self._after(self.config.nic_rx_overhead_us, _LanaiJob._drained)

    def _drain_on_lanai(self) -> None:
        config = self.config
        self._after(
            config.nic_rx_overhead_us + config.wire_time_us(self.packet.size),
            _LanaiJob._drained,
        )

    def _drained(self) -> None:
        config = self.config
        if config.cpu_bound_rx:
            self._release(self.card.cpu)
        if config.host_recv_overhead_us or config.host_recv_us_per_byte:
            self._acquire(self.card.host_cpu, _LanaiJob._host_copy)
        else:
            self._received()

    def _host_copy(self) -> None:
        self._after(
            self.config.host_recv_us(self.packet.size), _LanaiJob._host_copied
        )

    def _host_copied(self) -> None:
        self._release(self.card.host_cpu)
        self._received()

    def _received(self) -> None:
        card = self.card
        packet = self.packet
        stats = card.stats
        stats.received_packets += 1
        stats.received_bytes += packet.size
        if card.obs is not None:
            now = self.sim.now
            card.obs.myrinet_received(
                now, card.host_id, packet.size, now - packet.created_us
            )
        if packet.hop_count > 1:
            # Store-and-forward retransmission inside the NIC.
            self._after(self.config.nic_forward_overhead_us, _LanaiJob._forward)
        else:
            card.input_buffer.put(packet.size)

    def _forward(self) -> None:
        packet = self.packet
        self.packet = Packet(
            origin=packet.origin,
            size=packet.size,
            hop_count=packet.hop_count - 1,
            created_us=packet.created_us,
        )
        self._transmit()

    # -- transmission ----------------------------------------------------------
    def _transmit(self) -> None:
        if self.config.cpu_bound_rx:
            self._acquire(self.card.cpu, _LanaiJob._take_link)
        else:
            self._take_link()

    def _take_link(self) -> None:
        self._acquire(self.card.tx, _LanaiJob._on_wire)

    def _on_wire(self) -> None:
        self._after(
            self.config.wire_time_us(self.packet.size), _LanaiJob._transmitted
        )

    def _transmitted(self) -> None:
        card = self.card
        self._release(card.tx)
        if self.config.cpu_bound_rx:
            self._release(card.cpu)
        successor = card.successor
        if successor is not None:
            heappush(self.queue, (
                self.sim.now + self.config.path_latency_us,
                self.next_eid(),
                _HandOff(successor, self.packet),
            ))
        if self.sending:
            card.stats.originated += 1
            self._send()
        else:
            card.stats.forwarded += 1
            card.input_buffer.put(self.packet.size)


class MyrinetAdapter:
    """One host's LANai card on the measurement testbed.

    The card's link (``tx``), LANai (``cpu``) and host CPU (``host_cpu``)
    are units (:class:`_Unit`) its jobs take in turn; the input buffer is a
    :class:`~repro.sim.resources.Container` counted in bytes.  Building an
    adapter checks ``config``'s delays (:func:`_check_config`), since its
    jobs enqueue themselves without the kernel's check.
    """

    def __init__(
        self, sim: Simulator, host_id: int, config: LanaiConfig, obs=None
    ) -> None:
        _check_config(config)
        self.sim = sim
        self.host_id = host_id
        self.config = config
        self.tx = _Unit()  # the single outgoing link
        self.cpu = _Unit()  # the single LANai processor
        self.host_cpu = _Unit()  # the SPARCstation CPU
        self.input_buffer = Container(sim, capacity=config.input_buffer_bytes)
        #: The kernel's heap and eid source: the jobs push their entries.
        self._queue, self._next_eid = sim.entry_queue()
        self.successor: Optional["MyrinetAdapter"] = None
        self.stats = AdapterStats()
        self.obs = obs
        self._sending = False
        self._pending_buffer_faults = 0

    # -- fault injection -----------------------------------------------------
    def inject_buffer_fault(self, count: int = 1) -> None:
        """Force the next ``count`` arriving packets to be dropped as if the
        input buffer had no room (transient SRAM/buffer fault).  Counted in
        both ``stats.drops`` and ``stats.injected_drops``."""
        if count < 0:
            raise ValueError("fault count must be non-negative")
        self._pending_buffer_faults += count

    # -- origination ---------------------------------------------------------
    def start_greedy_sender(self, size: int, hop_count: int) -> None:
        """'The application simply sent as many packets as possible out to
        the network' (Section 8.2)."""
        if self._sending:
            raise RuntimeError("sender already running")
        if not (size >= 0 and math.isfinite(size)):
            raise ValueError(f"packet size must be a finite number >= 0, got {size!r}")
        self._sending = True
        _LanaiJob(self, size=size, hop_count=hop_count)

    # -- reception / forwarding -----------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Packet fully arrived at the input port: admit or drop."""
        if packet.size < 0:
            raise ValueError(f"packet size must be >= 0, got {packet.size!r}")
        self.stats.arrivals += 1
        if self.obs is not None:
            self.obs.myrinet_arrival(self.sim.now, self.host_id)
        if self._pending_buffer_faults:
            self._pending_buffer_faults -= 1
            self.stats.drops += 1
            self.stats.injected_drops += 1
            if self.obs is not None:
                self.obs.myrinet_drop(self.sim.now, self.host_id, True)
            return
        if not self.input_buffer.try_get(packet.size):
            self.stats.drops += 1  # the only loss point (Section 8.2)
            if self.obs is not None:
                self.obs.myrinet_drop(self.sim.now, self.host_id, False)
            return
        _LanaiJob(self, packet)

    def close(self) -> None:
        """Unlink from the ring and drop the jobs holding or queued on this
        card's units once the run is over: each job points back at the
        card, so a held one would keep the run a reference cycle."""
        self.successor = None
        for unit in (self.tx, self.cpu, self.host_cpu):
            unit.holder = None
            unit.waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MyrinetAdapter h{self.host_id}>"

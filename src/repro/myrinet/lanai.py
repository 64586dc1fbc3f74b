"""LANai network-interface timing model.

Time unit in this module: **microseconds** (the natural unit for host
software overheads; 1 byte on a 640 Mb/s link is 0.0125 us).

The adapter implements the paper's Hamiltonian-circuit multicast firmware
(Section 8): multicast packets are recognized by group id, copied to the
host, and retransmitted to the next hop entirely within the NIC,
store-and-forward, stopping at the previous node in the circuit.  There is
no backpressure from the adapter into the network: a packet arriving to a
full input buffer is dropped and counted (Figure 13's loss).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.resources import Container, Resource

_packet_ids = itertools.count(1)


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


@dataclass
class Packet:
    """One multicast packet on the testbed."""

    origin: int
    size: int
    hop_count: int
    created_us: float
    pid: int = field(default_factory=lambda: next(_packet_ids))


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


class MyrinetAdapter:
    """One host's LANai card on the measurement testbed."""

    def __init__(
        self, sim: Simulator, host_id: int, config: LanaiConfig, obs=None
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.config = config
        self.tx = Resource(sim, capacity=1)  # the single outgoing link
        self.cpu = Resource(sim, capacity=1)  # the single LANai processor
        self.host_cpu = Resource(sim, capacity=1)  # the SPARCstation CPU
        self.input_buffer = Container(sim, capacity=config.input_buffer_bytes)
        self.successor: Optional["MyrinetAdapter"] = None
        self.stats = AdapterStats()
        self.obs = obs
        self._greedy_proc = None
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
        if self._greedy_proc is not None:
            raise RuntimeError("sender already running")
        self._greedy_proc = self.sim.process(
            self._greedy_sender(size, hop_count), name=f"sender-h{self.host_id}"
        )

    def _greedy_sender(self, size: int, hop_count: int):
        config = self.config
        while True:
            # Host-side per-packet work (app -> driver -> NIC SRAM); the
            # host CPU is shared with the receive path.
            host_req = self.host_cpu.request()
            yield host_req
            yield self.sim.timeout(config.host_send_us(size))
            self.host_cpu.release(host_req)
            packet = Packet(
                origin=self.host_id,
                size=size,
                hop_count=hop_count,
                created_us=self.sim.now,
            )
            yield from self._transmit(packet)
            self.stats.originated += 1

    def _transmit(self, packet: Packet):
        """Occupy the LANai and the outgoing link for the packet's wire
        time, then hand it to the successor after the switch path latency."""
        cpu_req = self.cpu.request() if self.config.cpu_bound_rx else None
        if cpu_req is not None:
            yield cpu_req
        request = self.tx.request()
        yield request
        yield self.sim.timeout(self.config.wire_time_us(packet.size))
        self.tx.release(request)
        if cpu_req is not None:
            self.cpu.release(cpu_req)
        successor = self.successor
        if successor is None:
            return
        delay = self.sim.timeout(self.config.path_latency_us)
        delay.callbacks.append(lambda _ev: successor.receive(packet))

    # -- reception / forwarding -----------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Packet fully arrived at the input port: admit or drop."""
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
        self.sim.process(
            self._handle(packet), name=f"rx-h{self.host_id}-p{packet.pid}"
        )

    def _handle(self, packet: Packet):
        config = self.config
        if config.cpu_bound_rx:
            # Drain the packet from the input port into SRAM: the LANai
            # moves the bytes itself, so the drain waits for the processor.
            cpu_req = self.cpu.request()
            yield cpu_req
            yield self.sim.timeout(
                config.nic_rx_overhead_us + config.wire_time_us(packet.size)
            )
            self.cpu.release(cpu_req)
        else:
            yield self.sim.timeout(config.nic_rx_overhead_us)
        if config.host_recv_overhead_us or config.host_recv_us_per_byte:
            host_req = self.host_cpu.request()
            yield host_req
            yield self.sim.timeout(config.host_recv_us(packet.size))
            self.host_cpu.release(host_req)
        self.stats.received_packets += 1
        self.stats.received_bytes += packet.size
        if self.obs is not None:
            self.obs.myrinet_received(
                self.sim.now, self.host_id, packet.size,
                self.sim.now - packet.created_us,
            )
        if packet.hop_count > 1:
            # Store-and-forward retransmission inside the NIC.
            yield self.sim.timeout(config.nic_forward_overhead_us)
            forwarded = Packet(
                origin=packet.origin,
                size=packet.size,
                hop_count=packet.hop_count - 1,
                created_us=packet.created_us,
            )
            yield from self._transmit(forwarded)
            self.stats.forwarded += 1
        self.input_buffer.put(packet.size)

    def close(self) -> None:
        """Unlink from the ring and drop the claims held or queued on this
        card's resources once the run is over: each claim points back at
        its resource, so a live one would keep the run a reference cycle."""
        self.successor = None
        for resource in (self.tx, self.cpu, self.host_cpu):
            resource.users.clear()
            resource.queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MyrinetAdapter h{self.host_id}>"

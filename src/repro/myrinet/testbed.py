"""The 4-switch / 8-host measurement testbed (Section 8.2).

Hosts are arranged on a Hamiltonian circuit in host-id order, matching the
implementation: multicast packets stop at the previous node in the circuit
(hop count ``n_hosts - 1``), and all retransmission happens inside the
NICs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.myrinet.lanai import LanaiConfig, MyrinetAdapter
from repro.sim.engine import Simulator


@dataclass
class TestbedResult:
    """One (packet size, sender pattern) measurement."""

    packet_size: int
    all_send: bool
    duration_us: float
    #: Mb/s of multicast data received, per host (mean over hosts).
    throughput_mbps_per_host: float
    #: Mb/s injected by each sending host.
    sent_mbps_per_sender: float
    #: input-buffer loss rate per host (drops / arrivals), mean over hosts.
    loss_rate_per_host: float
    per_host_throughput: Dict[int, float] = field(default_factory=dict)
    per_host_loss: Dict[int, float] = field(default_factory=dict)
    #: Observability snapshot (see :mod:`repro.obs`) when run with a
    #: bundle attached, else None.
    obs: Optional[Dict] = None


def build_testbed(
    n_hosts: int = 8, config: Optional[LanaiConfig] = None, obs=None
) -> tuple:
    """Simulator + adapters wired in a Hamiltonian circuit (id order)."""
    sim = Simulator(obs=obs)
    config = config or LanaiConfig()
    adapters = [
        MyrinetAdapter(sim, host_id, config, obs=obs)
        for host_id in range(n_hosts)
    ]
    for index, adapter in enumerate(adapters):
        adapter.successor = adapters[(index + 1) % n_hosts]
    return sim, adapters


def run_throughput_experiment(
    packet_size: int,
    all_send: bool = False,
    n_hosts: int = 8,
    config: Optional[LanaiConfig] = None,
    warmup_us: float = 50_000.0,
    measure_us: float = 500_000.0,
    obs=None,
) -> TestbedResult:
    """Regenerate one point of Figure 12 (and 13).

    ``all_send=False`` is the figure's solid line (one host multicasting to
    the other seven); ``all_send=True`` the dashed line (every host
    multicasting to every other host).  ``obs`` optionally attaches an
    :class:`~repro.obs.Observability` bundle (reset at the end of warm-up).
    """
    if packet_size <= 0:
        raise ValueError("packet size must be positive")
    sim, adapters = build_testbed(n_hosts, config, obs=obs)
    try:
        hop_count = n_hosts - 1  # stop at the previous node in the circuit
        senders = adapters if all_send else adapters[:1]
        for adapter in senders:
            adapter.start_greedy_sender(packet_size, hop_count)

        sim.run(until=warmup_us)
        for adapter in adapters:
            adapter.stats.reset()
        if obs is not None:
            obs.reset(sim.now)
        sim.run(until=warmup_us + measure_us)

        receivers = [a for a in adapters if all_send or a is not adapters[0]]
        per_host_throughput = {
            a.host_id: a.stats.received_bytes * 8.0 / measure_us for a in receivers
        }
        per_host_loss = {a.host_id: a.stats.loss_rate for a in adapters}
        throughput = sum(per_host_throughput.values()) / len(per_host_throughput)
        sent = sum(a.stats.originated for a in senders) * packet_size * 8.0
        sent_per_sender = sent / len(senders) / measure_us
        loss = sum(per_host_loss.values()) / len(per_host_loss)
        obs_snapshot = None
        if obs is not None:
            obs.snapshot_testbed(per_host_throughput, per_host_loss)
            obs_snapshot = obs.snapshot(sim.now)
        return TestbedResult(
            packet_size=packet_size,
            all_send=all_send,
            duration_us=measure_us,
            throughput_mbps_per_host=throughput,
            sent_mbps_per_sender=sent_per_sender,
            loss_rate_per_host=loss,
            per_host_throughput=per_host_throughput,
            per_host_loss=per_host_loss,
            obs=obs_snapshot,
        )
    finally:
        # Free the run by reference counting: the queue first, then the
        # adapter ring and the jobs held or queued on each card's units.
        sim.close()
        for adapter in adapters:
            adapter.close()


def run_loss_experiment(
    packet_sizes: List[int],
    n_hosts: int = 8,
    config: Optional[LanaiConfig] = None,
    **kwargs,
) -> List[TestbedResult]:
    """Figure 13: per-host input-buffer loss in the all-send pattern."""
    return [
        run_throughput_experiment(
            size, all_send=True, n_hosts=n_hosts, config=config, **kwargs
        )
        for size in packet_sizes
    ]

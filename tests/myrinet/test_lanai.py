"""Tests for the LANai timing model."""

import pytest

from repro.myrinet import LanaiConfig, MyrinetAdapter, Packet
from repro.myrinet.testbed import build_testbed
from repro.sim import Simulator


def test_wire_time():
    config = LanaiConfig(link_mbps=640.0)
    # 8192 bytes at 640 Mb/s = 102.4 us
    assert config.wire_time_us(8192) == pytest.approx(102.4)


def test_host_costs_scale_with_size():
    config = LanaiConfig()
    assert config.host_send_us(8192) > config.host_send_us(1024)
    assert config.host_recv_us(8192) > config.host_recv_us(1024)


@pytest.mark.parametrize("field", [
    "host_send_overhead_us", "host_copy_us_per_byte", "nic_forward_overhead_us",
    "nic_rx_overhead_us", "path_latency_us", "host_recv_overhead_us",
    "host_recv_us_per_byte",
])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_bad_delay_rejected_when_the_adapter_is_built(field, value):
    config = LanaiConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        MyrinetAdapter(Simulator(), 0, config)


@pytest.mark.parametrize("value", [0.0, -640.0, float("nan"), float("inf")])
def test_bad_link_rate_rejected_when_the_adapter_is_built(value):
    with pytest.raises(ValueError, match="link_mbps"):
        build_testbed(n_hosts=2, config=LanaiConfig(link_mbps=value))


@pytest.mark.parametrize("size", [-1, float("nan"), float("inf")])
def test_bad_sender_packet_size_rejected(size):
    sim, adapters = build_testbed(n_hosts=2)
    with pytest.raises(ValueError, match="packet size"):
        adapters[0].start_greedy_sender(size=size, hop_count=1)


def test_negative_packet_size_rejected_on_arrival():
    sim = Simulator()
    adapter = MyrinetAdapter(sim, 0, LanaiConfig())
    with pytest.raises(ValueError, match="packet size"):
        adapter.receive(Packet(origin=1, size=-4000, hop_count=1, created_us=0.0))
    assert adapter.stats.arrivals == 0
    assert adapter.input_buffer.level == adapter.input_buffer.capacity


def test_single_hop_delivery():
    sim, adapters = build_testbed(n_hosts=2)
    adapters[0].start_greedy_sender(size=1024, hop_count=1)
    sim.run(until=10_000)
    assert adapters[1].stats.received_packets > 0
    assert adapters[1].stats.forwarded == 0  # hop count exhausted
    assert adapters[1].stats.drops == 0


def test_hop_count_stops_at_predecessor():
    """hop_count = n-1: the packet visits every host except back to the
    originator (Section 8's 'stop at the previous node')."""
    sim, adapters = build_testbed(n_hosts=4)
    adapters[0].start_greedy_sender(size=1024, hop_count=3)
    sim.run(until=20_000)
    assert adapters[1].stats.received_packets > 0
    assert adapters[2].stats.received_packets > 0
    assert adapters[3].stats.received_packets > 0
    assert adapters[0].stats.arrivals == 0  # never returns to the origin
    # the last member forwards nothing
    assert adapters[3].stats.forwarded == 0


def test_forward_counts():
    sim, adapters = build_testbed(n_hosts=4)
    adapters[0].start_greedy_sender(size=1024, hop_count=3)
    sim.run(until=50_000)
    sent = adapters[0].stats.originated
    # intermediate hosts forward everything they received (no loss here)
    assert adapters[1].stats.forwarded >= sent - 2
    assert adapters[2].stats.forwarded >= sent - 2


def test_input_buffer_overflow_drops():
    sim = Simulator()
    config = LanaiConfig(input_buffer_bytes=2048)
    adapter = MyrinetAdapter(sim, 0, config)
    for _ in range(3):
        adapter.receive(Packet(origin=1, size=1024, hop_count=1, created_us=0.0))
    assert adapter.stats.arrivals == 3
    assert adapter.stats.drops == 1


def test_oversized_packet_always_dropped():
    sim = Simulator()
    config = LanaiConfig(input_buffer_bytes=1024)
    adapter = MyrinetAdapter(sim, 0, config)
    adapter.receive(Packet(origin=1, size=2048, hop_count=1, created_us=0.0))
    assert adapter.stats.drops == 1


def test_double_sender_start_rejected():
    sim, adapters = build_testbed(n_hosts=2)
    adapters[0].start_greedy_sender(size=1024, hop_count=1)
    with pytest.raises(RuntimeError):
        adapters[0].start_greedy_sender(size=1024, hop_count=1)


def test_stats_reset():
    sim, adapters = build_testbed(n_hosts=2)
    adapters[0].start_greedy_sender(size=1024, hop_count=1)
    sim.run(until=10_000)
    adapters[1].stats.reset()
    assert adapters[1].stats.received_packets == 0
    assert adapters[1].stats.loss_rate == 0.0


def test_injected_buffer_fault_discards_next_arrivals():
    sim = Simulator()
    adapter = MyrinetAdapter(sim, 0, LanaiConfig())
    adapter.inject_buffer_fault(count=2)
    for _ in range(3):
        adapter.receive(Packet(origin=1, size=512, hop_count=1, created_us=0.0))
    assert adapter.stats.arrivals == 3
    assert adapter.stats.drops == 2
    assert adapter.stats.injected_drops == 2
    sim.run(until=10_000)
    # The third packet survived the fault window and was processed.
    assert adapter.stats.received_packets == 1


def test_injected_buffer_fault_validates_count():
    sim = Simulator()
    adapter = MyrinetAdapter(sim, 0, LanaiConfig())
    with pytest.raises(ValueError):
        adapter.inject_buffer_fault(count=-1)

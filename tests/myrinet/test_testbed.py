"""Tests for the Figure 12/13 measurement reproduction."""

import pytest

from repro.myrinet import run_loss_experiment, run_throughput_experiment
from repro.obs import Observability

#: Short measurement windows keep the suite fast; shapes already emerge.
FAST = dict(warmup_us=20_000.0, measure_us=150_000.0)


def test_invalid_packet_size():
    with pytest.raises(ValueError):
        run_throughput_experiment(0)


def test_result_fields():
    result = run_throughput_experiment(2048, all_send=False, **FAST)
    assert result.packet_size == 2048
    assert not result.all_send
    assert result.throughput_mbps_per_host > 0
    assert len(result.per_host_throughput) == 7  # receivers only
    assert len(result.per_host_loss) == 8


def test_fig12_throughput_rises_with_packet_size():
    """Overhead amortization: bigger packets, higher throughput."""
    small = run_throughput_experiment(1024, all_send=False, **FAST)
    large = run_throughput_experiment(8192, all_send=False, **FAST)
    assert large.throughput_mbps_per_host > 2 * small.throughput_mbps_per_host


def test_fig12_single_sender_magnitude():
    """The paper measures roughly 20 Mb/s at 1 KB and over 100 Mb/s at
    8 KB for a single sender; the model must land in those bands."""
    small = run_throughput_experiment(1024, all_send=False, **FAST)
    large = run_throughput_experiment(8192, all_send=False, **FAST)
    assert 10 < small.throughput_mbps_per_host < 40
    assert 80 < large.throughput_mbps_per_host < 160


def test_fig12_all_send_below_single_sender():
    """The all-send per-host receive rate sits below the single-sender
    curve (the paper's lower dashed curve)."""
    for size in (1024, 4096, 8192):
        single = run_throughput_experiment(size, all_send=False, **FAST)
        allsend = run_throughput_experiment(size, all_send=True, **FAST)
        assert (
            allsend.throughput_mbps_per_host < single.throughput_mbps_per_host
        ), size


def test_fig13_no_loss_single_sender():
    """'In the single source case no loss of packets due to input buffer
    overflow was observed' (Section 8.2)."""
    for size in (1024, 8192):
        result = run_throughput_experiment(size, all_send=False, **FAST)
        assert result.loss_rate_per_host == 0.0


def test_fig13_loss_only_when_originating_and_forwarding():
    """'Packet loss was only significant if hosts were originating
    multicast packets as well as forwarding.'"""
    result = run_throughput_experiment(8192, all_send=True, **FAST)
    assert result.loss_rate_per_host > 0.05


def test_fig13_loss_grows_with_packet_size():
    results = run_loss_experiment([1024, 4096, 8192], **FAST)
    losses = [r.loss_rate_per_host for r in results]
    assert losses[0] <= losses[1] <= losses[2]
    assert losses[2] > losses[0]


def test_loss_at_input_buffer_only():
    """Drops happen at reception (the only loss point in this scheme)."""
    result = run_throughput_experiment(8192, all_send=True, **FAST)
    # every drop was recorded as an arrival first
    assert all(loss <= 1.0 for loss in result.per_host_loss.values())


def test_larger_buffer_reduces_loss():
    from repro.myrinet import LanaiConfig

    small = run_throughput_experiment(
        8192, all_send=True, config=LanaiConfig(input_buffer_bytes=25 * 1024), **FAST
    )
    big = run_throughput_experiment(
        8192, all_send=True, config=LanaiConfig(input_buffer_bytes=250 * 1024), **FAST
    )
    assert big.loss_rate_per_host < small.loss_rate_per_host


def test_sent_rate_reported():
    result = run_throughput_experiment(4096, all_send=False, **FAST)
    assert result.sent_mbps_per_sender > 0
    # receivers cannot receive more than was sent
    assert (
        result.throughput_mbps_per_host
        <= result.sent_mbps_per_sender * 1.05
    )


def test_obs_snapshots_reproducible_within_one_process():
    """Two identical runs in one process report the same snapshot, kernel
    section included: nothing in it depends on what ran before."""
    first, second = (
        run_throughput_experiment(
            1024, all_send=True, obs=Observability(),
            warmup_us=5_000.0, measure_us=20_000.0,
        ).obs
        for _ in range(2)
    )
    assert first["kernel"]["events"] > 0
    assert first == second

"""Tests for statistics collectors."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.monitor import (
    Histogram,
    RateMeter,
    TallyStat,
    TimeWeightedStat,
    batch_means_ci,
)


def test_tally_empty_is_nan():
    t = TallyStat()
    assert math.isnan(t.mean)
    assert t.count == 0


def test_tally_basic_moments():
    t = TallyStat()
    for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        t.add(v)
    assert t.count == 8
    assert t.mean == pytest.approx(5.0)
    assert t.variance == pytest.approx(32.0 / 7.0)
    assert t.minimum == 2.0
    assert t.maximum == 9.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
def test_tally_matches_direct_computation(values):
    t = TallyStat()
    for v in values:
        t.add(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert t.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
    assert t.variance == pytest.approx(var, rel=1e-6, abs=1e-6)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
)
def test_tally_merge_equals_combined(a, b):
    combined = TallyStat()
    for v in a + b:
        combined.add(v)
    ta, tb = TallyStat(), TallyStat()
    for v in a:
        ta.add(v)
    for v in b:
        tb.add(v)
    ta.merge(tb)
    assert ta.count == combined.count
    assert ta.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
    if ta.count >= 2:
        assert ta.variance == pytest.approx(combined.variance, rel=1e-6, abs=1e-6)


def test_tally_merge_into_empty():
    a, b = TallyStat(), TallyStat()
    b.add(3.0)
    b.add(5.0)
    a.merge(b)
    assert a.count == 2
    assert a.mean == 4.0


def test_time_weighted_mean():
    tw = TimeWeightedStat(now=0.0, value=0.0)
    tw.update(10.0, 5.0)   # value 0 during [0,10)
    tw.update(20.0, 0.0)   # value 5 during [10,20)
    assert tw.mean(now=20.0) == pytest.approx(2.5)


def test_time_weighted_add_delta():
    tw = TimeWeightedStat(now=0.0, value=1.0)
    tw.add(5.0, +2.0)
    assert tw.value == 3.0
    assert tw.mean(now=10.0) == pytest.approx((1 * 5 + 3 * 5) / 10)


def test_time_weighted_backwards_time_raises():
    tw = TimeWeightedStat(now=5.0)
    with pytest.raises(ValueError):
        tw.update(4.0, 1.0)


def test_rate_meter():
    m = RateMeter(start=0.0)
    m.add(100)
    m.add(300)
    assert m.total == 400
    assert m.events == 2
    assert m.rate(now=8.0) == pytest.approx(50.0)


def test_rate_meter_reset_discards_warmup():
    m = RateMeter(start=0.0)
    m.add(1000)
    m.reset(now=10.0)
    m.add(50)
    assert m.rate(now=20.0) == pytest.approx(5.0)


def test_rate_meter_zero_window_nan():
    m = RateMeter(start=3.0)
    assert math.isnan(m.rate(now=3.0))


def test_histogram_binning():
    h = Histogram(0.0, 10.0, bins=10)
    for v in [0.5, 1.5, 1.6, 9.9]:
        h.add(v)
    h.add(-1.0)   # underflow
    h.add(10.0)   # overflow boundary
    assert h.counts[0] == 1
    assert h.counts[1] == 1
    assert h.counts[2] == 2
    assert h.counts[10] == 1
    assert h.counts[-1] == 1
    assert h.total == 6


def test_histogram_quantile_monotone():
    h = Histogram(0.0, 100.0, bins=100)
    for v in range(100):
        h.add(v + 0.5)
    q50 = h.quantile(0.5)
    q90 = h.quantile(0.9)
    assert 45 <= q50 <= 55
    assert 85 <= q90 <= 95
    assert q50 <= q90


def test_histogram_invalid_bounds():
    with pytest.raises(ValueError):
        Histogram(5.0, 5.0, bins=10)
    with pytest.raises(ValueError):
        Histogram(0.0, 1.0, bins=0)


def test_batch_means_ci_constant_series():
    result = batch_means_ci([5.0] * 100, batches=10)
    assert result["mean"] == 5.0
    assert result["half_width"] == pytest.approx(0.0)


def test_batch_means_ci_empty():
    result = batch_means_ci([])
    assert math.isnan(result["mean"])


def test_batch_means_ci_covers_true_mean():
    import random

    rng = random.Random(7)
    samples = [rng.gauss(10.0, 2.0) for _ in range(2000)]
    result = batch_means_ci(samples, batches=20)
    assert abs(result["mean"] - 10.0) < 3 * result["half_width"] + 0.5


def test_batch_means_ci_half_width():
    # Batch means 1..5: grand mean 3, sample variance 2.5, so the 95 %
    # half-width is z * sqrt(2.5 / 5) with z = 1.96 (1.64 gives 1.1597).
    result = batch_means_ci([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], batches=5)
    assert result["batches"] == 5
    assert result["mean"] == pytest.approx(3.0)
    assert result["half_width"] == pytest.approx(1.96 * math.sqrt(2.5 / 5))
    assert result["half_width"] == pytest.approx(1.3859, abs=1e-4)


def test_batch_means_ci_folds_remainder_into_last_batch():
    # 11 samples, 2 batches: size 5, remainder 1.  The tail sample (the
    # only non-zero one) must contribute -- dropping it would report 0.
    samples = [0.0] * 10 + [100.0]
    result = batch_means_ci(samples, batches=2)
    assert result["batches"] == 2
    # batch means: [0]*5 -> 0, [0]*5+[100] -> 100/6; grand mean 100/12
    assert result["mean"] == pytest.approx(100.0 / 12.0)


def test_batch_means_ci_uses_every_sample():
    samples = list(range(103))  # 103 % 10 == 3 remainder samples
    result = batch_means_ci(samples, batches=10)
    assert result["batches"] == 10
    # Remainder folds into the final batch: batches 0-8 are size 10, the
    # last is size 13, so the grand mean is the mean of those batch means.
    means = [sum(samples[b * 10 : b * 10 + 10]) / 10 for b in range(9)]
    means.append(sum(samples[90:]) / 13)
    assert result["mean"] == pytest.approx(sum(means) / 10)


def test_histogram_edge_rounding_stays_in_range():
    # (value - low) / width can round *up* to bins exactly at a bin edge:
    # nextafter(3.3, 0) / (3.3 / 3) computes to 3.0 in floats even though
    # the value is strictly below high.  It must land in the last real
    # bin, not the overflow tail.
    h = Histogram(0.0, 3.3, bins=3)
    v = math.nextafter(3.3, 0.0)
    assert v < h.high
    h.add(v)
    assert h.counts[-1] == 0, "in-range value misclassified as overflow"
    assert h.counts[h.bins] == 1
    assert h.total == 1


@given(
    st.floats(min_value=0.125, max_value=1000.0),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_histogram_in_range_never_overflows(high, bins, fraction):
    h = Histogram(0.0, high, bins=bins)
    value = min(fraction * high, math.nextafter(high, 0.0))
    h.add(value)
    assert h.counts[0] == 0
    assert h.counts[-1] == 0


def test_time_weighted_reset_discards_warmup_window():
    s = TimeWeightedStat(now=0.0, value=2.0)
    s.update(10.0, 4.0)  # warm-up: 2.0 over [0, 10)
    s.reset(now=10.0)
    # The signal value persists across the reset...
    assert s.value == 4.0
    # ...but the mean covers only the post-reset window.
    s.update(20.0, 0.0)
    assert s.mean(20.0) == pytest.approx(4.0)  # 4.0 over [10, 20)
    assert s.mean(30.0) == pytest.approx(2.0)  # + 0.0 over [20, 30)


def test_time_weighted_reset_rejects_time_travel():
    s = TimeWeightedStat(now=0.0, value=1.0)
    s.update(5.0, 2.0)
    with pytest.raises(ValueError):
        s.reset(now=4.0)


def test_time_weighted_mean_nan_immediately_after_reset():
    s = TimeWeightedStat(now=0.0, value=1.0)
    s.update(5.0, 3.0)
    s.reset(now=5.0)
    assert math.isnan(s.mean(5.0))

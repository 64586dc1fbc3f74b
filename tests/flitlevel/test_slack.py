"""Tests for slack buffers and STOP/GO watermarks (Figure 1), filled
through ``InputPort.absorb``, the step that moves a switch's arriving
flits into its slack buffer."""

import pytest

from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.flitlevel.slack import SlackBuffer

from .test_wire import _link


def _data(wid=1):
    return Flit(FlitKind.DATA, wid)


class _Feed:
    """One input port of a two-switch line, with a ``capacity``-slot
    slack buffer (Ks = 3/4, Kg = 1/4 of it), fed over its one-tick wire
    by the other switch's output port."""

    def __init__(self, capacity=8):
        self.out, self.port = _link(slack_capacity=capacity)
        self.slack = self.port.slack
        self.now = 0

    def push(self, flit=None):
        """Send one flit down the wire and absorb it as it arrives."""
        self.out.emit(flit or _data(), self.now)
        self.now += 1
        assert self.port.absorb(self.now)

    def pop(self):
        """Drain one flit, then absorb on the next tick with nothing
        arriving, as the switch's ticks do."""
        self.slack.pop()
        self.now += 1
        self.port.absorb(self.now)

    def stopped_upstream(self):
        """Whether the sender reads STOP once this tick's symbol is due."""
        return not self.out.ready(self.now + 1)


def test_default_watermarks():
    buf = SlackBuffer(capacity=32)
    assert buf.stop_mark == 24
    assert buf.go_mark == 8


def test_invalid_watermarks():
    with pytest.raises(ValueError):
        SlackBuffer(capacity=8, stop_mark=2, go_mark=4)  # Kg >= Ks
    with pytest.raises(ValueError):
        SlackBuffer(capacity=8, stop_mark=10, go_mark=2)  # Ks > capacity
    with pytest.raises(ValueError):
        SlackBuffer(capacity=1)


def test_push_pop_fifo():
    feed = _Feed(capacity=8)
    a, b = Flit(FlitKind.DATA, 1), Flit(FlitKind.TAIL, 1)
    feed.push(a)
    feed.push(b)
    assert feed.slack.front() is a
    assert feed.slack.pop() is a
    assert feed.slack.pop() is b
    assert len(feed.slack) == 0


def test_fig1_stop_asserted_above_high_watermark():
    """Figure 1(b): filling past Ks sends a STOP upstream."""
    feed = _Feed(capacity=8)  # Ks 6, Kg 2
    for _ in range(5):
        feed.push()
    assert not feed.stopped_upstream()
    feed.push()             # occupancy 6 == Ks
    assert feed.stopped_upstream()


def test_fig1_go_hysteresis():
    """Figure 1(c): STOP stays asserted until occupancy drains to Kg."""
    feed = _Feed(capacity=8)
    for _ in range(6):
        feed.push()
    assert feed.stopped_upstream()
    feed.pop()              # 5: between marks, still stopping
    assert feed.stopped_upstream()
    feed.pop(); feed.pop()  # 3
    assert feed.stopped_upstream()
    feed.pop()              # 2 == Kg: GO
    assert not feed.stopped_upstream()


def test_no_retrigger_between_marks_on_refill():
    feed = _Feed(capacity=8)
    for _ in range(6):
        feed.push()
    for _ in range(4):
        feed.pop()          # down to 2 -> GO
    assert not feed.stopped_upstream()
    feed.push()             # 3: between marks, no STOP yet
    assert not feed.stopped_upstream()


def test_overflow_counted_and_dropped():
    feed = _Feed(capacity=2)
    feed.push()
    feed.push()
    feed.push()             # overflow
    assert len(feed.slack) == 2
    assert feed.slack.overflows == 1


def test_peak_tracking():
    feed = _Feed(capacity=8)
    for _ in range(5):
        feed.push()
    feed.pop()
    assert feed.slack.peak == 5


def test_drop_worm_removes_only_that_worm():
    feed = _Feed(capacity=8)
    feed.push(_data(wid=1))
    feed.push(_data(wid=2))
    feed.push(_data(wid=1))
    dropped = feed.slack.drop_worm(1)
    assert dropped == 2
    assert len(feed.slack) == 1
    assert feed.slack.front().wid == 2

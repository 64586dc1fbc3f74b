"""Tests for wires and reverse STOP/GO signalling, driven through the
per-byte steps the engines run on one switch-to-switch wire:
``OutputPort.emit`` and ``OutputPort.ready`` at the sending switch,
``InputPort.absorb`` at the receiving one."""

import pytest

from repro.net import line
from repro.net.flitlevel import FlitNetwork
from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.flitlevel.wire import Wire


def _flit(wid=1, kind=FlitKind.DATA):
    return Flit(kind, wid)


def _link(delay=1, slack_capacity=32):
    """The output port that sends on, and the input port that receives
    from, the ``delay``-tick wire between the two switches of a line."""
    topo = line(2)
    net = FlitNetwork(topo, engine="dense", wire_delay=delay,
                      slack_capacity=slack_capacity)
    a, _b = topo.switches
    out = net.switches[a].outputs[net._port_at(a, topo.links[0])]
    return out, out.wire.receiver


def test_delay_one_delivery():
    out, port = _link(delay=1)
    out.emit(_flit(), now=5)
    assert not port.absorb(5)
    assert port.absorb(6)
    assert not port.absorb(7)
    assert len(port.slack) == 1


def test_longer_delay():
    out, port = _link(delay=10)
    out.emit(_flit(), now=0)
    for t in range(1, 10):
        assert not port.absorb(t)
    assert port.absorb(10)


def test_one_flit_per_tick():
    out, _port = _link()
    out.emit(_flit(), now=3)
    with pytest.raises(RuntimeError):
        out.emit(_flit(), now=3)
    out.emit(_flit(), now=4)
    assert not out.ready(4)
    assert out.ready(5)


def test_invalid_delay():
    with pytest.raises(ValueError):
        Wire(delay=0)


def test_fifo_delivery_order():
    out, port = _link(delay=2)
    a, b = _flit(wid=1), _flit(wid=2)
    out.emit(a, now=0)
    out.emit(b, now=1)
    assert port.absorb(2)
    assert port.absorb(3)
    assert port.slack.pop() is a
    assert port.slack.pop() is b


def test_stop_signal_propagates_with_delay():
    out, port = _link(delay=3)
    assert out.ready(0)
    port.wire.signal_stop(True, now=0)
    assert out.ready(1)
    assert out.ready(2)
    assert not out.ready(3)
    port.wire.signal_stop(False, now=3)
    assert not out.ready(5)
    assert out.ready(6)


def test_drop_worm_in_flight():
    out, port = _link(delay=5)
    out.emit(_flit(wid=7), now=0)
    out.emit(_flit(wid=8), now=1)
    assert out.wire.drop_worm(7) == 1
    assert not port.absorb(5)
    assert port.absorb(6)
    assert port.slack.front().wid == 8


def test_carried_and_idle_counters():
    out, _port = _link()
    out.emit(_flit(kind=FlitKind.IDLE), now=0)
    out.emit(_flit(), now=1)
    assert out.wire.carried == 2
    assert out.wire.idles == 1

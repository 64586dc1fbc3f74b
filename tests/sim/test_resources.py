"""Tests for Container."""

import math

import pytest

from repro.sim import Container, Simulator


def test_container_get_put_levels():
    sim = Simulator()
    pool = Container(sim, capacity=100)

    def proc():
        yield pool.get(60)
        assert pool.level == 40
        pool.put(10)
        assert pool.level == 50

    sim.run_process(proc())


def test_container_get_blocks_until_put():
    sim = Simulator()
    pool = Container(sim, capacity=100, init=10)

    def taker():
        yield pool.get(50)
        return sim.now

    def giver():
        yield sim.timeout(4)
        pool.put(90)

    t = sim.process(taker())
    sim.process(giver())
    sim.run()
    assert t.value == 4.0
    assert pool.level == 50


def test_container_fifo_no_small_bypass():
    # A small later request must not starve an earlier large one (FIFO
    # semantics prevent convoy reordering of buffer claims).
    sim = Simulator()
    pool = Container(sim, capacity=100, init=0)
    order = []

    def taker(tag, amount, delay):
        yield sim.timeout(delay)
        yield pool.get(amount)
        order.append(tag)

    def giver():
        yield sim.timeout(10)
        pool.put(30)   # not enough for 'big'
        yield sim.timeout(10)
        pool.put(70)   # now big fits, then small

    sim.process(taker("big", 80, 0))
    sim.process(taker("small", 10, 1))
    sim.process(giver())
    sim.run()
    assert order == ["big", "small"]


def test_container_try_get():
    sim = Simulator()
    pool = Container(sim, capacity=100)
    assert pool.try_get(40)
    assert pool.level == 60
    assert not pool.try_get(70)
    assert pool.level == 60


def test_container_try_get_respects_waiters():
    sim = Simulator()
    pool = Container(sim, capacity=100, init=0)

    def waiter():
        yield pool.get(50)

    sim.process(waiter())
    sim.run()
    pool.put(60)
    # waiter got 50, level is 10; try_get beyond level fails
    assert pool.level == 10
    assert not pool.try_get(20)
    assert pool.try_get(10)


def test_container_overfull_put_raises():
    sim = Simulator()
    pool = Container(sim, capacity=10)
    with pytest.raises(RuntimeError):
        pool.put(1)


def test_container_request_exceeding_capacity_rejected():
    sim = Simulator()
    pool = Container(sim, capacity=10)
    with pytest.raises(ValueError):
        pool.get(11)


@pytest.mark.parametrize("amount", [-5, -1e-9, math.nan])
@pytest.mark.parametrize("op", ["get", "put", "try_get"])
def test_container_rejects_negative_and_nan_amounts(op, amount):
    # A negative take would lift the level above capacity, a NaN put would
    # make the level NaN, and a NaN get would queue a waiter no put serves.
    sim = Simulator()
    pool = Container(sim, capacity=10, init=5)
    with pytest.raises(ValueError, match="amount must be non-negative"):
        getattr(pool, op)(amount)
    assert pool.level == 5
    assert not pool._waiters

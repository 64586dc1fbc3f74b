"""Tearing down a finished run: ``Simulator.close`` and the components'
``close`` methods that let reference counting free it."""

from __future__ import annotations

import math

from repro.net import torus
from repro.sim import SimTrace, Simulator
from repro.traffic import TrafficConfig, TrafficGenerator
from repro.traffic.workloads import (
    GroupPlan,
    build_engine,
    close_engine,
    scheme_by_name,
)


def _worker(sim, log, tag, first_wait):
    try:
        yield sim.timeout(first_wait)
        yield sim.event()  # never triggered: suspended for good
    finally:
        log.append(tag)


def test_close_runs_each_suspended_finally_once():
    sim = Simulator()
    log = []
    sim.process(_worker(sim, log, "on-event", 1))
    sim.process(_worker(sim, log, "on-timeout", 100))

    def finishes():
        try:
            yield sim.timeout(2)
        finally:
            log.append("finished")

    sim.process(finishes())
    sim.run(until=10)
    assert log == ["finished"]
    sim.close()
    assert sorted(log) == ["finished", "on-event", "on-timeout"]
    assert sim.peek() == math.inf


def test_second_close_does_nothing():
    sim = Simulator()
    log = []
    sim.process(_worker(sim, log, "a", 1))
    sim.run(until=5)
    sim.close()
    sim.close()
    assert log == ["a"]


def test_close_reaches_processes_waiting_on_processes():
    sim = Simulator()
    log = []
    child = sim.process(_worker(sim, log, "child", 1))

    def parent():
        try:
            yield child
        finally:
            log.append("parent")

    sim.process(parent())
    sim.run(until=5)
    sim.close()
    assert sorted(log) == ["child", "parent"]


def test_close_skips_bodies_that_never_started():
    sim = Simulator()
    log = []
    sim.process(_worker(sim, log, "never-ran", 1))
    sim.close()
    assert log == []
    sim.run()
    assert log == []


def test_clock_and_trace_stay_readable_after_close():
    trace = SimTrace()
    sim = Simulator(trace=trace)
    log = []
    sim.process(_worker(sim, log, "a", 3))
    sim.run(until=7)
    events = trace.events
    sim.close()
    assert sim.now == 7.0
    assert trace.events == events > 0


def test_closed_run_keeps_its_counters():
    """Runners close what they built once the record is built; a caller
    holding a component (e.g. a profiler summing ``delivered_worms``)
    still reads its counters and tallies."""
    sim, net, engine = build_engine(
        torus(3, 3), scheme_by_name("hamiltonian-ct"), GroupPlan(2, 4), seed=2
    )
    TrafficGenerator(sim, engine, TrafficConfig(offered_load=0.1)).start()
    sim.run(until=100_000)
    before = (
        net.delivered_worms, net.hop_latency.mean, engine.messages_completed,
        engine.delivery_latency.count, sim.now,
    )
    close_engine(sim, net, engine)
    after = (
        net.delivered_worms, net.hop_latency.mean, engine.messages_completed,
        engine.delivery_latency.count, sim.now,
    )
    assert before == after
    assert net.delivered_worms > 0
    assert engine.adapters == {}
    assert not any(channel.busy for channel in net.channels)

"""Tests for the kernel's profiling trace, scheduled calls and hot paths."""

import pytest

from repro.sim import Container, SimTrace, Simulator
from repro.sim.events import URGENT


# -- SimTrace ----------------------------------------------------------------

def test_trace_counts_events_and_wakeups():
    trace = SimTrace()
    sim = Simulator(trace=trace)

    def ticker():
        for _ in range(5):
            yield sim.timeout(1)

    sim.process(ticker(), name="ticker")
    sim.run()
    assert sim.trace is trace
    assert trace.events >= 5
    assert trace.by_type.get("Timeout") == 5
    assert trace.wakeups["ticker"] == 6  # initial start + 5 timeouts
    assert trace.total_wakeups == 6


def test_trace_summary_ranks_largest_first():
    trace = SimTrace()
    sim = Simulator(trace=trace)

    def busy():
        for _ in range(3):
            yield sim.timeout(1)

    def lazy():
        yield sim.timeout(10)

    sim.process(busy(), name="busy")
    sim.process(lazy(), name="lazy")
    sim.run()
    summary = trace.summary()
    wakeups = list(summary["wakeups"])
    assert wakeups[0] == "busy"
    assert summary["events"] == trace.events


def test_trace_reset():
    trace = SimTrace()
    sim = Simulator(trace=trace)
    sim.process((sim.timeout(1) for _ in range(1)), name="p")
    sim.run()
    trace.reset()
    assert trace.events == 0
    assert trace.by_type == {}
    assert trace.wakeups == {}


def test_trace_does_not_change_results():
    def workload(sim):
        pool = Container(sim, capacity=1)
        log = []

        def proc(name):
            yield pool.get(1)
            log.append((name, sim.now))
            yield sim.timeout(2)
            pool.put(1)

        sim.process(proc("a"), name="a")
        sim.process(proc("b"), name="b")
        sim.run()
        return log, sim.now

    plain = workload(Simulator())
    traced = workload(Simulator(trace=SimTrace()))
    assert traced == plain == ([("a", 0.0), ("b", 2.0)], 4.0)


# -- run_process starvation --------------------------------------------------

def test_run_process_starvation_names_the_process():
    sim = Simulator()

    def starved():
        yield sim.event()  # never triggered

    with pytest.raises(RuntimeError, match="'starved' starved"):
        sim.run_process(starved())


def test_run_process_normal_completion_unaffected():
    sim = Simulator()

    def fine():
        yield sim.timeout(3)
        return 42

    assert sim.run_process(fine()) == 42


# -- schedule_call -----------------------------------------------------------

def test_schedule_call_fires_at_the_right_time():
    sim = Simulator()
    fired = []
    sim.schedule_call(5.0, lambda: fired.append(sim.now))
    sim.schedule_call(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0, 5.0]
    assert sim.now == 5.0


def test_schedule_call_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative delay"):
        sim.schedule_call(-1.0, lambda: None)


def test_schedule_call_interleaves_with_processes():
    sim = Simulator()
    order = []

    def proc():
        yield sim.timeout(1)
        order.append("proc")

    sim.process(proc(), name="p")
    sim.schedule_call(1.0, lambda: order.append("call"))
    sim.run()
    # Both fire at t=1.  The call was enqueued before the process even
    # started (its timeout is only pushed once it first resumes at t=0),
    # so FIFO puts the call first.
    assert order == ["call", "proc"]


# -- urgent ordering ---------------------------------------------------------

def test_urgent_events_precede_normal_at_equal_time():
    # At t=1 the queue holds: succeeder's timeout, other's timeout (both
    # NORMAL, pushed at t=0 in that order).  Succeeder then succeeds ``ev``
    # with URGENT priority (t=1, highest eid).  Urgent ordering must resume
    # the waiter ahead of other's already-queued NORMAL timeout.
    sim = Simulator()
    order = []
    ev = sim.event()

    def succeeder():
        yield sim.timeout(1)
        ev.succeed(priority=URGENT)
        order.append("succeeder")

    def other():
        yield sim.timeout(1)
        order.append("other")

    def waiter():
        yield ev
        order.append("urgent-waiter")

    sim.process(succeeder(), name="s")
    sim.process(other(), name="o")
    sim.process(waiter(), name="w")
    sim.run()
    assert order == ["succeeder", "urgent-waiter", "other"]

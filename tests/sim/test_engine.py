"""Tests for the DES engine and process model."""

import math
from heapq import heappush

import pytest

from repro.sim import Simulator
from repro.sim.engine import URGENT_KEY, EmptySchedule, Infinity
from repro.sim.events import URGENT


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=42.0)
    assert sim.now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    sim.process(proc())
    sim.run()
    assert sim.now == 5.0


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return "finished"

    p = sim.process(proc())
    sim.run()
    assert p.value == "finished"
    assert not p.is_alive


def test_run_until_stops_at_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=10)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator(start_time=5)
    with pytest.raises(ValueError):
        sim.run(until=1)


def test_events_ordered_by_time():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(3, "c"))
    sim.process(proc(1, "a"))
    sim.process(proc(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in ("x", "y", "z"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["x", "y", "z"]


def test_process_waits_for_process():
    sim = Simulator()

    def child():
        yield sim.timeout(7)
        return 99

    def parent():
        value = yield sim.process(child())
        return value

    p = sim.process(parent())
    sim.run()
    assert p.value == 99
    assert sim.now == 7.0


def test_zero_delay_timeout():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_nested_processes_chain():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1)
            return 0
        value = yield sim.process(level(n - 1))
        return value + 1

    p = sim.process(level(10))
    sim.run()
    assert p.value == 10
    assert sim.now == 1.0


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(bad())
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    def parent():
        try:
            yield sim.process(bad())
        except RuntimeError:
            return "rejected"

    p = sim.process(parent())
    sim.run()
    assert p.value == "rejected"


def test_run_process_convenience():
    sim = Simulator()

    def proc():
        yield sim.timeout(3)
        return "ok"

    assert sim.run_process(proc()) == "ok"
    assert sim.now == 3.0


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(4)

    sim.process(proc())
    sim.step()  # bootstrap event at t=0
    assert sim.peek() == 4.0


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(i % 17)
        done.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert len(done) == 500


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        value = yield gate
        return (value, sim.now)

    def opener():
        yield sim.timeout(9)
        gate.succeed("open")

    w = sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert w.value == ("open", 9.0)


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except KeyError:
            return "failed as expected"

    def failer():
        yield sim.timeout(1)
        gate.fail(KeyError("nope"))

    w = sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert w.value == "failed as expected"


def test_yield_already_processed_event_continues_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")

    def late_waiter():
        yield sim.timeout(5)
        value = yield gate  # processed long ago
        return (value, sim.now)

    w = sim.process(late_waiter())
    sim.run()
    assert w.value == ("early", 5.0)


def test_internal_schedule_rejects_negative_delay():
    # Timeout and schedule_call validate their own delays; schedule_entry
    # must also refuse, so no code path can move an event into the past
    # and break clock monotonicity.
    sim = Simulator()
    with pytest.raises(ValueError, match="negative delay"):
        sim.schedule_entry(sim.event(), -0.5, 1)
    with pytest.raises(ValueError, match="negative delay"):
        sim.timeout(-1)
    with pytest.raises(ValueError, match="negative delay"):
        sim.schedule_call(-2.0, lambda: None)


@pytest.mark.parametrize(
    "until", [Infinity, math.inf, float("inf")],
    ids=["Infinity", "math.inf", "float-inf"],
)
def test_run_until_any_infinity_stops_at_last_event(until):
    # An infinite horizon means "drain the queue", whichever float object
    # spells it: the clock stays on the last event instead of jumping to inf.
    sim = Simulator()
    sim.schedule_call(3, lambda: None)
    sim.run(until=until)
    assert sim.now == 3.0


def test_now_is_a_plain_attribute():
    sim = Simulator(start_time=2.5)
    assert "now" in vars(sim)
    assert sim.now == 2.5
    sim.schedule_call(1.5, lambda: None)
    sim.run()
    assert sim.now == 4.0


def test_urgent_preempts_mid_drain():
    # Four normal entries wait at t=1.  The first triggers an URGENT event
    # at the same instant while t=1 is being drained; the urgent waiter
    # must run before the remaining normals.
    sim = Simulator()
    order = []
    ev = sim.event()

    def head():
        yield sim.timeout(1)
        order.append("head")
        ev.succeed(priority=URGENT)

    def tail(i):
        yield sim.timeout(1)
        order.append(f"tail{i}")

    def waiter():
        yield ev
        order.append("urgent")

    sim.process(waiter(), name="w")
    sim.process(head(), name="h")
    for i in range(3):
        sim.process(tail(i), name=f"t{i}")
    sim.run()
    assert order == ["head", "urgent", "tail0", "tail1", "tail2"]


def test_unhandled_failure_raises_and_queue_resumes():
    sim = Simulator()
    seen = []

    def boomer():
        yield sim.timeout(1)
        raise RuntimeError("boom")

    def survivor():
        for _ in range(3):
            yield sim.timeout(1)
            seen.append(sim.now)

    sim.process(survivor(), name="ok")
    sim.process(boomer(), name="boom")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # The failure propagated mid-drain; the rest of the queue is intact
    # and a second run finishes the survivor.
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_step_and_peek_walk_the_queue():
    sim = Simulator()
    fired = []
    sim.schedule_call(1.0, lambda: fired.append(1))
    sim.schedule_call(1.0, lambda: fired.append(2))
    sim.schedule_call(3.0, lambda: fired.append(3))
    assert sim.peek() == 1.0
    sim.step()
    assert (sim.now, fired) == (1.0, [1])
    assert sim.peek() == 1.0
    sim.step()
    assert fired == [1, 2]
    assert sim.peek() == 3.0
    sim.step()
    assert fired == [1, 2, 3]
    assert sim.peek() == math.inf
    with pytest.raises(EmptySchedule):
        sim.step()


class _Entry:
    """A self-rescheduling queue entry, like the worm runs of wormnet."""

    __slots__ = ("sim", "log", "name", "left", "delay")

    def __init__(self, sim, log, name, left, delay):
        self.sim, self.log, self.name = sim, log, name
        self.left, self.delay = left, delay

    def _process(self):
        self.log.append((self.name, self.sim.now))
        if self.left:
            self.left -= 1
            self.sim.schedule_entry(self, self.delay)


def test_schedule_entry_order():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1)
        log.append(("proc", sim.now))
        yield sim.timeout(0.5)
        log.append(("proc", sim.now))

    def push_urgent():
        # Enqueued mid-drain of t=1: runs before the normals still
        # waiting at t=1.
        sim.schedule_entry(_Entry(sim, log, "urgent", 0, 0.0), 0.0, URGENT)

    sim.process(proc(), name="p")
    sim.schedule_call(1.0, push_urgent)
    sim.schedule_entry(_Entry(sim, log, "a", 3, 0.5), 1.0)
    sim.schedule_entry(_Entry(sim, log, "b", 2, 0.25), 1.0)
    sim.run()
    assert log == [
        ("urgent", 1.0), ("a", 1.0), ("b", 1.0), ("proc", 1.0),
        ("b", 1.25), ("a", 1.5), ("proc", 1.5), ("b", 1.5),
        ("a", 2.0), ("a", 2.5),
    ]
    assert sim.now == 2.5


def test_kernel_delay_checks_reject_nan():
    # NaN compares false against everything, so `delay < 0` let it through
    # and the entry landed at a NaN instant; every check is `not delay >= 0`.
    sim = Simulator()
    with pytest.raises(ValueError, match="delay"):
        sim.schedule_entry(sim.event(), math.nan)
    with pytest.raises(ValueError, match="delay"):
        sim.schedule_call(math.nan, lambda: None)
    with pytest.raises(ValueError, match="delay"):
        sim.timeout(math.nan)
    assert sim.peek() == Infinity


def test_run_until_nan_rejected():
    sim = Simulator()
    sim.schedule_call(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run(until=math.nan)
    assert sim.now == 0.0


def test_entry_queue_pushes_keep_schedule_entry_order():
    """Entries pushed through entry_queue() interleave with scheduled ones
    in the order they were enqueued, urgent ones first at their instant."""
    sim = Simulator()
    queue, next_eid = sim.entry_queue()
    log = []

    class Entry:
        def __init__(self, tag):
            self.tag = tag

        def _process(self):
            log.append((sim.now, self.tag))

    sim.schedule_entry(Entry("a"), 1.0)
    heappush(queue, (sim.now + 1.0, next_eid(), Entry("b")))
    sim.schedule_entry(Entry("c"), 1.0)
    heappush(queue, (sim.now + 1.0, next_eid() - URGENT_KEY, Entry("urgent")))
    heappush(queue, (sim.now + 0.5, next_eid(), Entry("early")))
    sim.run()
    assert log == [
        (0.5, "early"), (1.0, "urgent"), (1.0, "a"), (1.0, "b"), (1.0, "c"),
    ]

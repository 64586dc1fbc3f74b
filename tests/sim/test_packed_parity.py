"""Parity suite: ``Simulator(engine="packed")`` vs the stock heap engine.

Mirrors the kernel trace tests and pins every ordering rule the packed
core's bucketed queue and inlined dispatch loop must preserve: FIFO within
a priority class, urgent preemption at the same instant (including
mid-drain), exception propagation leaving the queue resumable, interrupts,
composite conditions, and the batched ``schedule_many``/``pop_ready`` API.
"""

import pytest

from repro.sim import Resource, SimTrace, Simulator
from repro.sim.engine import EmptySchedule
from repro.sim.events import URGENT, Interrupt
from repro.sim.packed import PackedSimulator

ENGINES = ("heap", "packed")


# -- construction and dispatch -----------------------------------------------

def test_engine_flag_dispatches_to_packed():
    sim = Simulator(engine="packed")
    assert type(sim) is PackedSimulator
    assert sim.engine == "packed"
    assert Simulator().engine == "heap"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown simulator engine"):
        Simulator(engine="vectorized")


def test_direct_construction_matches_flag():
    assert type(PackedSimulator()) is PackedSimulator
    assert PackedSimulator().engine == "packed"


# -- trace parity ------------------------------------------------------------

def _ticker_workload(sim):
    def ticker():
        for _ in range(5):
            yield sim.timeout(1)

    sim.process(ticker(), name="ticker")
    sim.run()


def test_trace_counts_match_heap_engine():
    counts = {}
    for engine in ENGINES:
        trace = SimTrace()
        sim = Simulator(trace=trace, engine=engine)
        _ticker_workload(sim)
        counts[engine] = (
            trace.events,
            trace.by_type.get("Timeout"),
            trace.wakeups["ticker"],
            trace.total_wakeups,
        )
    assert counts["packed"] == counts["heap"]
    # The packed process must report as "Process" in by_type, not leak its
    # implementation class name.
    assert counts["packed"][1] == 5
    assert counts["packed"][2] == 6  # initial start + 5 timeouts


def test_trace_does_not_change_results():
    def workload(sim):
        res = Resource(sim)
        log = []

        def proc(name):
            req = res.request()
            yield req
            log.append((name, sim.now))
            yield sim.timeout(2)
            res.release(req)

        sim.process(proc("a"), name="a")
        sim.process(proc("b"), name="b")
        sim.run()
        return log, sim.now

    plain = workload(Simulator(engine="packed"))
    traced = workload(Simulator(trace=SimTrace(), engine="packed"))
    heap = workload(Simulator())
    assert traced == plain == heap


# -- ordering rules ----------------------------------------------------------

def test_schedule_call_interleaves_fifo():
    sim = Simulator(engine="packed")
    order = []

    def proc():
        yield sim.timeout(1)
        order.append("proc")

    sim.process(proc(), name="p")
    sim.schedule_call(1.0, lambda: order.append("call"))
    sim.run()
    # FIFO within the t=1 bucket: the call was enqueued before the process
    # first resumed and pushed its timeout.
    assert order == ["call", "proc"]


def test_urgent_events_precede_normal_at_equal_time():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
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
        assert order == ["succeeder", "urgent-waiter", "other"], engine


def test_urgent_preempts_mid_drain():
    # Five normals sit in the t=1 bucket.  The first one triggers an URGENT
    # event at the same instant while the bucket is being drained; the
    # urgent waiter must run before the remaining normals.
    for engine in ENGINES:
        sim = Simulator(engine=engine)
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
        assert order == ["head", "urgent", "tail0", "tail1", "tail2"], engine


def test_same_instant_spawning_matches_heap():
    # Events scheduled *while* their instant is being drained (timeout(0),
    # grant cascades) must run in the same order as on the heap engine.
    def workload(sim):
        log = []

        def spawner(depth):
            log.append(("spawn", depth, sim.now))
            if depth < 3:
                yield sim.timeout(0)
                sim.process(spawner(depth + 1), name=f"s{depth + 1}")
                yield sim.timeout(0)
                log.append(("after", depth, sim.now))
            else:
                yield sim.timeout(1)
                log.append(("leaf", depth, sim.now))

        sim.process(spawner(0), name="s0")

        def ticker():
            for _ in range(4):
                yield sim.timeout(0.5)
                log.append(("tick", sim.now))

        sim.process(ticker(), name="tick")
        sim.run()
        return log, sim.now

    assert workload(Simulator(engine="packed")) == workload(Simulator())


def test_run_until_parity():
    def workload(sim):
        seen = []

        def proc():
            while True:
                yield sim.timeout(1.5)
                seen.append(sim.now)

        sim.process(proc(), name="p")
        sim.run(until=10.0)
        return seen, sim.now

    assert workload(Simulator(engine="packed")) == workload(Simulator())
    sim = Simulator(engine="packed")
    sim.run(until=4.0)  # empty queue: clock still advances
    assert sim.now == 4.0


# -- resources, interrupts, conditions ---------------------------------------

def test_uncontended_request_leaves_queue_empty():
    sim = Simulator(engine="packed")
    res = Resource(sim)
    req = res.request()
    assert req.processed  # granted immediately, no scheduling round-trip
    assert req.ok
    assert sim.pending_count == 0


def test_contended_grant_cascade_parity():
    def workload(sim):
        res = Resource(sim, capacity=2)
        log = []

        def proc(name, hold):
            req = res.request()
            yield req
            log.append((name, "got", sim.now))
            yield sim.timeout(hold)
            res.release(req)
            log.append((name, "rel", sim.now))

        for i, hold in enumerate([3, 1, 2, 1, 4, 2]):
            sim.process(proc(f"p{i}", hold), name=f"p{i}")
        sim.run()
        return log, sim.now

    assert workload(Simulator(engine="packed")) == workload(Simulator())


def test_interrupt_parity():
    def workload(sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
                log.append("slept")
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, sim.now))

        def poker(victim):
            yield sim.timeout(2)
            victim.interrupt("wake up")
            log.append(("poked", sim.now))

        victim = sim.process(sleeper(), name="sleeper")
        sim.process(poker(victim), name="poker")
        sim.run()
        return log, sim.now

    assert workload(Simulator(engine="packed")) == workload(Simulator())


def test_conditions_parity():
    def workload(sim):
        log = []

        def proc():
            t1 = sim.timeout(1, value="a")
            t2 = sim.timeout(2, value="b")
            got = yield sim.any_of([t1, t2])
            log.append(("any", sorted(got.values()), sim.now))
            t3 = sim.timeout(1, value="c")
            got = yield sim.all_of([t2, t3])
            log.append(("all", sorted(got.values()), sim.now))

        sim.process(proc(), name="p")
        sim.run()
        return log, sim.now

    assert workload(Simulator(engine="packed")) == workload(Simulator())


# -- failure and resumability ------------------------------------------------

def test_unhandled_failure_raises_and_queue_resumes():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
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
        # The failure propagated mid-drain; the queue must remain
        # consistent and the remaining events dispatchable.
        sim.run()
        assert seen == [1.0, 2.0, 3.0], engine


def test_run_process_starvation_names_the_process():
    sim = Simulator(engine="packed")

    def starved():
        yield sim.event()  # never triggered

    with pytest.raises(RuntimeError, match="'starved' starved"):
        sim.run_process(starved())


def test_run_process_normal_completion():
    sim = Simulator(engine="packed")

    def fine():
        yield sim.timeout(3)
        return 42

    assert sim.run_process(fine()) == 42


def test_step_and_peek_walk_the_queue():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        fired = []
        sim.schedule_call(1.0, lambda: fired.append(1))
        sim.schedule_call(1.0, lambda: fired.append(2))
        sim.schedule_call(3.0, lambda: fired.append(3))
        assert sim.peek() == 1.0
        sim.step()
        assert (sim.now, fired) == (1.0, [1]), engine
        assert sim.peek() == 1.0
        sim.step()
        assert fired == [1, 2]
        assert sim.peek() == 3.0
        sim.step()
        assert fired == [1, 2, 3]
        with pytest.raises(EmptySchedule):
            sim.step()


# -- batched API -------------------------------------------------------------

def test_schedule_many_pop_ready_parity():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        events = [sim.event() for _ in range(5)]
        sim.schedule_many(events[:3], delay=2.0, value="x")
        sim.schedule_many(events[3:], delay=1.0, value="y")
        assert sim.pending_count == 5
        ready = sim.pop_ready()
        assert sim.now == 1.0
        assert ready == events[3:], engine
        assert all(ev.value == "y" for ev in ready)
        ready = sim.pop_ready()
        assert sim.now == 2.0
        assert ready == events[:3], engine
        assert sim.pop_ready() == []


def test_schedule_many_rejects_triggered_events():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError, match="already been triggered"):
            sim.schedule_many([ev])


def test_schedule_many_urgent_precedes_normal():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        order = []
        normal, urgent = sim.event(), sim.event()
        normal.callbacks.append(lambda ev: order.append("normal"))
        urgent.callbacks.append(lambda ev: order.append("urgent"))
        sim.schedule_many([normal], delay=1.0)
        sim.schedule_many([urgent], delay=1.0, priority=URGENT)
        sim.run()
        assert order == ["urgent", "normal"], engine


def test_pop_ready_mid_run_returns_current_instant():
    # pop_ready while events remain at the current instant must hand them
    # over before advancing the clock (both engines).
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        a, b = sim.event(), sim.event()
        sim.schedule_many([a, b], delay=1.0)
        first = sim.pop_ready()
        assert (sim.now, first) == (1.0, [a, b]), engine


def test_timeout_rejects_negative_delay():
    sim = Simulator(engine="packed")
    with pytest.raises(ValueError, match="negative delay"):
        sim.timeout(-1)
    with pytest.raises(ValueError, match="negative delay"):
        sim.schedule_call(-1.0, lambda: None)


# -- pre-built entries (schedule_entry) ----------------------------------------

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


def test_schedule_entry_parity():
    def workload(sim):
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
        return log, sim.now

    heap = workload(Simulator())
    assert workload(Simulator(engine="packed")) == heap
    assert heap[0][:4] == [
        ("urgent", 1.0), ("a", 1.0), ("b", 1.0), ("proc", 1.0),
    ]


def test_schedule_entry_rejects_negative_delay():
    for engine in ENGINES:
        sim = Simulator(engine=engine)
        with pytest.raises(ValueError, match="negative delay"):
            sim.schedule_entry(_Entry(sim, [], "x", 0, 0.0), -1.0)


def test_now_is_a_plain_attribute():
    for engine in ENGINES:
        sim = Simulator(start_time=2.5, engine=engine)
        assert "now" in vars(sim)
        assert sim.now == 2.5
        sim.schedule_call(1.5, lambda: None)
        sim.run()
        assert sim.now == 4.0


# -- worm-level network ----------------------------------------------------------

def _worm_timelines(engine):
    """Contended torus traffic plus a link failure: per-transfer timelines
    and the network counters."""
    import random

    from repro.net import Worm, WormholeNetwork, torus

    sim = Simulator(engine=engine)
    topo = torus(4, 4)
    net = WormholeNetwork(sim, topo, loss_rate=0.1, loss_seed=3)
    rng = random.Random(5)
    transfers = []

    def send(src, dst, length):
        transfers.append(net.send(Worm(source=src, dest=dst, length=length)))

    for _ in range(80):
        src, dst = rng.sample(topo.hosts, 2)
        when = rng.randrange(0, 3000, 25)
        length = rng.choice([8, 120, 700])
        sim.schedule_call(when, lambda s=src, d=dst, n=length: send(s, d, n))

    def fail():
        link = net.channel(topo.switches[0], topo.switches[1]).link
        topo.fail_link(link.id)
        net.refresh_topology()

    sim.schedule_call(1500, fail)
    sim.run()
    timeline = [
        (t.start_time, t.head_time, t.finish_time, t.blocked_time,
         t.blocked_hops, t.dropped)
        for t in transfers
    ]
    counters = (
        net.delivered_worms, net.dropped_worms, net.orphaned_worms,
        net.mean_utilization(), sim.now,
    )
    return timeline, counters


def test_worm_level_timelines_match():
    heap = _worm_timelines("heap")
    packed = _worm_timelines("packed")
    assert packed == heap
    timeline, (delivered, dropped, orphaned, _, _) = heap
    assert delivered and dropped  # loss fired, most worms still arrived
    assert any(row[4] for row in timeline)  # some hops queued

"""Golden timelines of the worm-level transfer engine.

Every value below was recorded from the engine and is compared exactly:
per-transfer ``(start_time, head_time, finish_time, blocked_time,
blocked_hops, dropped)``, the order in which same-instant callbacks fire,
and the network counters.  The scenarios drive every branch of a worm's
trip: uncontended and queued channel grants, random loss, a forced drop,
an adapter receive fault, a destination that dies mid-flight, a link that
fails while one worm holds it and another waits for it, a failed channel
met on the way, and a send with no route at all.

A tailgating scenario sends worms one behind another along one path
behind a blocker whose channels come free at staggered times, so channel
releases and acquisitions tie at the same instant.  Each scenario's run
also pins the order in which the kernel processes the worm runs' steps
(:class:`_StepLog`): same-instant order is what byte-identical records
rest on, and some reorderings change no timeline or counter here (the
``loss`` scenario's order moves, its records do not, if a tail release
stops re-checking while its worm is blocked).  The queue entries per
class are pinned too, so an entry that changes nothing cannot creep back
in unnoticed; a change that only removes such entries re-pins those
counts and nothing else.

The sweep pins hash whole records of the paper's grids (one Fig-10 point
per scheme, a Fig-11 point, a fault and a repair campaign point) and the
ROADMAP reference point.  A change to the engine must keep all of them:
any shift in same-instant event order shows up here first.

Re-pin after a change that is meant to change the physics::

    PYTHONPATH=src python tests/net/test_wormnet_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.net import Topology, Worm, WormholeNetwork, torus
from repro.net.wormnet import _WormRun
from repro.sim import Simulator, SimTrace


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _ObsLog:
    """Duck-typed observability hooks that log every worm event."""

    def __init__(self, log, tags):
        self.log = log
        self.tags = tags

    def worm_injected(self, now, wid, src, dst, length, kind):
        self.log.append([now, "obs.inject", self.tags[wid]])

    def worm_head(self, now, wid, dst):
        self.log.append([now, "obs.head", self.tags[wid]])

    def worm_delivered(self, now, wid, latency, blocked, length):
        self.log.append([now, "obs.delivered", self.tags[wid], latency, blocked])

    def worm_dropped(self, now, wid, reason):
        self.log.append([now, "obs." + reason, self.tags[wid]])


class _StepLog(SimTrace):
    """A kernel trace that also logs every worm-run step it processes.

    Passed as ``Simulator(trace=...)``, it sees each queue entry just
    before the kernel processes it; for a worm run it logs ``[now, worm
    tag, step, hop]``, so :attr:`steps` is the kernel's processing order
    of the runs' steps.
    """

    __slots__ = ("sim", "steps")

    def __init__(self):
        super().__init__()
        self.sim = None
        self.steps = []

    def _record(self, entry):
        SimTrace._record(self, entry)
        if type(entry) is _WormRun:
            self.steps.append(
                [self.sim.now, entry.transfer.worm.payload, entry.step, entry.hop]
            )


def _simulator():
    trace = _StepLog()
    sim = Simulator(trace=trace)
    trace.sim = sim
    return sim


class _Harness:
    """A network plus logging receivers; worms are tagged by send order."""

    def __init__(self, sim, topo, **net_kwargs):
        self.sim = sim
        self.topo = topo
        self.log = []
        self.tags = {}
        self.transfers = []
        self.net = WormholeNetwork(
            sim, topo, obs=_ObsLog(self.log, self.tags), **net_kwargs
        )
        for host in topo.hosts:
            self.net.set_receiver(host, self._received)
            self.net.set_head_watcher(host, self._head)

    def _received(self, worm, transfer):
        self.log.append([self.sim.now, "recv", worm.payload])

    def _head(self, worm, transfer):
        self.log.append([self.sim.now, "watch", worm.payload])

    def send(self, src, dst, length):
        tag = len(self.tags)
        worm = Worm(source=src, dest=dst, length=length, payload=tag)
        self.tags[worm.wid] = tag
        transfer = self.net.send(worm)
        self.transfers.append(transfer)
        log, sim = self.log, self.sim
        transfer.head_arrived.callbacks.append(
            lambda ev: log.append([sim.now, "head", tag])
        )
        transfer.completed.callbacks.append(
            lambda ev: log.append([sim.now, "done", tag])
        )
        return transfer

    def send_at(self, when, src, dst, length):
        self.sim.schedule_call(when, lambda: self.send(src, dst, length))

    def at(self, when, fn):
        self.sim.schedule_call(when, fn)

    def timeline(self):
        return [
            [t.start_time, t.head_time, t.finish_time, t.blocked_time,
             t.blocked_hops, t.dropped]
            for t in self.transfers
        ]

    def counters(self):
        net = self.net
        return {
            "delivered": net.delivered_worms,
            "bytes": net.delivered_bytes,
            "dropped": net.dropped_worms,
            "orphaned": net.orphaned_worms,
            "hop_latency": [net.hop_latency.count, net.hop_latency._mean],
            "block_time": [net.block_time.count, net.block_time._mean],
            "utilization": net.mean_utilization(),
            "now": self.sim.now,
            "busy": sum(ch.busy for ch in net.channels),
        }

    def result(self):
        return {
            "timeline": self.timeline(),
            "log": self.log,
            "counters": self.counters(),
        }

    def steps(self):
        """The worm-run steps in kernel processing order."""
        return self.sim.trace.steps

    def by_type(self):
        """Processed queue entries per class."""
        return dict(sorted(self.sim.trace.by_type.items()))


# -- scenarios ------------------------------------------------------------------

def _torus_traffic(loss_rate=0.0, drop_filter=False):
    """120 worms between random host pairs of a 4x4 torus, injected on a
    coarse time grid so many land on the same instant and contend."""
    sim = _simulator()
    h = _Harness(sim, torus(4, 4), loss_rate=loss_rate, loss_seed=7)
    if drop_filter:
        h.net.drop_filter = lambda worm: worm.payload % 7 == 3
    hosts = h.topo.hosts
    rng = random.Random(12)
    for _ in range(120):
        src, dst = rng.sample(hosts, 2)
        h.send_at(rng.randrange(0, 6000, 50), src, dst, rng.choice([8, 64, 400, 900]))
    sim.run()
    return h


def _line(n=3, prop_delay=0.0):
    sim = _simulator()
    topo = Topology()
    switches = [topo.add_switch() for _ in range(n)]
    for a, b in zip(switches, switches[1:]):
        topo.add_link(a, b, prop_delay)
    hosts = [topo.add_host(s) for s in switches]
    return _Harness(sim, topo), switches, hosts


def _faults():
    """Hand-timed fault branches on a three-switch line (hosts h0..h2)."""
    h, switches, hosts = _line()
    topo, net = h.topo, h.net
    h0, h1, h2 = hosts
    s0, s1, s2 = switches
    link_s1_s2 = net.channel(s1, s2).link.id
    # Adapter receive fault: the first worm into h1 drains but is lost.
    net.inject_receive_fault(h1, 1)
    h.send(h0, h1, 50)
    h.send_at(10, h0, h1, 50)
    # A long worm h1 -> h2 holds s1->s2; a worm h0 -> h2 queues behind it.
    # The link fails (and the tables refresh) while one holds and the
    # other waits: the holder still delivers, the waiter is cut on grant.
    h.send_at(200, h1, h2, 500)
    h.send_at(201, h0, h2, 60)

    def fail_link():
        topo.fail_link(link_s1_s2)
        net.refresh_topology()

    h.at(300, fail_link)
    # A worm injected just before the failure meets the dead channel.
    h.send_at(299, h0, h2, 40)
    h.send_at(900, h0, h1, 30)
    return h


def _dead_destination():
    """h2 dies (unnoticed by the channel tables) while a worm queues for its
    last hop; that worm reaches a dead host.  Then a worm is sent to the
    dead host: no route, so it orphans at the source."""
    h, switches, hosts = _line()
    h0, h1, h2 = hosts
    h.send(h0, h2, 100)
    h.send(h1, h2, 20)  # queues behind the first on s2->h2
    h.at(3.5, lambda: h.topo.fail_node(h2))
    h.send_at(50, h0, h2, 70)
    h.send_at(50, h1, h0, 70)
    h.sim.run()
    return h


def _fault_run():
    h = _faults()
    h.sim.run()
    return h


def _tailgate():
    """Worms tailgate each other along one path behind a blocker.

    On a four-switch line a blocker h2 -> h3 holds s2->s3 and s3->h3; its
    tail frees its channels at staggered times (44, 45, 46).  Worm A
    (h0 -> h3) waits for s2->s3 from 4 to 45 while holding h0->s0, s0->s1
    and s1->s2, so their tail releases re-check the stall as it grows; C
    and D queue behind A on h0->s0.  B is injected so that its head
    reaches s1->s2 at 65, the instant A's tail leaves it: a release and
    an acquisition tie.  E follows D: it waits for s1->s2 until D's tail
    leaves it at 120 and reaches s2->h2 at 121, the instant D's tail
    drains into h2.
    """
    h, switches, hosts = _line(4)
    h0, h1, h2, h3 = hosts
    h.send(h2, h3, 43)  # the blocker
    h.send_at(1, h0, h3, 20)  # A
    h.send_at(2, h0, h3, 30)  # C
    h.send_at(3, h0, h2, 12)  # D
    h.send_at(64, h1, h3, 10)  # B
    h.send_at(116, h1, h2, 8)  # E
    h.sim.run()
    return h


SCENARIOS = {
    "contended": _torus_traffic,
    "loss": lambda: _torus_traffic(loss_rate=0.2),
    "drop_filter": lambda: _torus_traffic(drop_filter=True),
    "faults": _fault_run,
    "dead_destination": _dead_destination,
    "tailgate": _tailgate,
}

#: sha256 of each scenario's full result (timeline + callback log + counters).
GOLDEN_DIGESTS = {
    "contended": "66b6829d2d30e92379009567b4d631c7332f00a62eeadca56dd677af3c7b6d77",
    "loss": "84ba0339ce6bf44b3cb440849f13631ab6125418a381d07557ec156ee4af1690",
    "drop_filter": "ff2a71538dca8bc6139ab561df6ba4ae564895b03675f2cb28a079c4b54e2af7",
    "faults": "f477aeafd74054cf984e6509ad164e224344eb1cc92e16aef28fd1d454ea0d8d",
    "dead_destination": "e6840b5419417e4bc1e13bf8834267104b5512d9016c88681aff4b73bd8fd51b",
    "tailgate": "05ad73ac048e7b59c4fe5255eff8826cf8c83658423085dd43f6446c1141e0ed",
}

#: Network counters per scenario (also inside the digests; spelled out so a
#: mismatch reads as numbers).
GOLDEN_COUNTERS = {
    "contended": {
        "delivered": 120, "bytes": 42680.0, "dropped": 0, "orphaned": 0,
        "hop_latency": [120, 1103.308333333333],
        "block_time": [120, 743.4666666666667],
        "utilization": 0.2319697994140185, "now": 8874.0, "busy": 0,
    },
    "loss": {
        "delivered": 95, "bytes": 32928.0, "dropped": 25, "orphaned": 0,
        "hop_latency": [95, 1125.842105263158],
        "block_time": [95, 775.0842105263158],
        "utilization": 0.19781749684409847, "now": 9506.0, "busy": 0,
    },
    "drop_filter": {
        "delivered": 103, "bytes": 36680.0, "dropped": 17, "orphaned": 0,
        "hop_latency": [103, 956.1359223300973],
        "block_time": [103, 595.8640776699029],
        "utilization": 0.19103270399812955, "now": 8554.0, "busy": 0,
    },
    "faults": {
        "delivered": 3, "bytes": 580.0, "dropped": 0, "orphaned": 3,
        "hop_latency": [3, 210.0], "block_time": [3, 13.666666666666668],
        "utilization": 0.3309217577706324, "now": 933.0, "busy": 0,
    },
    "dead_destination": {
        "delivered": 2, "bytes": 90.0, "dropped": 0, "orphaned": 2,
        "hop_latency": [2, 48.0], "block_time": [2, 0.0],
        "utilization": 0.6330645161290323, "now": 124.0, "busy": 0,
    },
    "tailgate": {
        "delivered": 6, "bytes": 123.0, "dropped": 0, "orphaned": 0,
        "hop_latency": [6, 60.833333333333336],
        "block_time": [6, 36.333333333333336],
        "utilization": 0.44871794871794873, "now": 130.0, "busy": 0,
    },
}

#: The hand-timed scenarios' transfer timelines, spelled out.
GOLDEN_TIMELINES = {
    "faults": [
        [0.0, None, 53.0, 0.0, 0, True],  # receive fault
        [10.0, 54.0, 104.0, 41.0, 1, False],
        [200.0, 203.0, 703.0, 0.0, 0, False],  # held the link as it failed
        [201.0, None, 762.0, 499.0, 1, True],  # cut when granted the dead link
        [299.0, None, 803.0, 462.0, 1, True],  # met the dead channel
        [900.0, 903.0, 933.0, 0.0, 0, False],
    ],
    "dead_destination": [
        [0.0, None, 124.0, 20.0, 1, True],  # arrived after h2 died
        [0.0, 3.0, 23.0, 0.0, 0, False],
        [50.0, None, 120.0, 0.0, 0, True],  # no route to the dead host
        [50.0, 53.0, 123.0, 0.0, 0, False],
    ],
    "tailgate": [
        [0.0, 3.0, 46.0, 0.0, 0, False],  # the blocker
        [1.0, 47.0, 67.0, 41.0, 1, False],  # A
        [2.0, 79.0, 109.0, 72.0, 2, False],  # C
        [3.0, 109.0, 121.0, 102.0, 1, False],  # D
        [64.0, 68.0, 78.0, 0.0, 1, False],  # B: queued and granted at 65
        [116.0, 122.0, 130.0, 3.0, 1, False],  # E
    ],
}

#: sha256 of each scenario's worm-run steps in kernel processing order
#: (:class:`_StepLog`).  Recorded before the queue diet that dropped the
#: no-op entries: the steps that remain keep their instants and order.
GOLDEN_ORDER = {
    "contended": "29074f8d60d17307b51f1ffad3f491465b6f5bf20b7c86d0d56b6015537f3702",
    "loss": "a70e151935a193da3d3bcb87186f3b102e27026d6d5bd59cb457449e34ae7dd7",
    "drop_filter": "984c2d29b5e7f25c57f3225248a89e86711c4b64edbed112d2120851eaf68aba",
    "faults": "6204880844475ccc7a4d186d364b7d09e4e60a17ded13be5e5c87293b5f0b642",
    "dead_destination": "1372e551d17a5a8d9766a6b37121013b6ff3cf1de2031a00d4d435488bcc182d",
    "tailgate": "114834514a92581f294442bd19b795532413064848cac9166437b575b3851443",
}

#: Queue entries each scenario's kernel processes, per class (a
#: ``Channel`` entry is a tail release).  Every entry changes model state:
#: no tail release for the last channel a worm crosses (its final step
#: releases it), and a transfer's events only because the harness
#: subscribes to them.  A no-op entry added back shows up here.
GOLDEN_BY_TYPE = {
    "contended": {"Channel": 2278, "Event": 240, "_DeferredCall": 120, "_WormRun": 866},
    "loss": {"Channel": 1835, "Event": 215, "_DeferredCall": 120, "_WormRun": 828},
    "drop_filter": {"Channel": 1705, "Event": 223, "_DeferredCall": 120, "_WormRun": 792},
    "faults": {"Channel": 29, "Event": 9, "_DeferredCall": 6, "_WormRun": 31},
    "dead_destination": {"Channel": 9, "Event": 6, "_DeferredCall": 3, "_WormRun": 19},
    "tailgate": {"Channel": 30, "Event": 12, "_DeferredCall": 5, "_WormRun": 42},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_counters(name):
    assert SCENARIOS[name]().result()["counters"] == GOLDEN_COUNTERS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TIMELINES))
def test_scenario_timeline(name):
    assert SCENARIOS[name]().timeline() == GOLDEN_TIMELINES[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_digest(name):
    assert _digest(SCENARIOS[name]().result()) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_step_order(name):
    assert _digest(SCENARIOS[name]().steps()) == GOLDEN_ORDER[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_entries_by_type(name):
    assert SCENARIOS[name]().by_type() == GOLDEN_BY_TYPE[name]


def test_scenarios_cover_every_branch():
    """Each branch of a worm's trip is taken somewhere above."""
    contended = SCENARIOS["contended"]().result()
    assert any(row[4] > 0 for row in contended["timeline"])  # queued grants
    assert any(row[4] == 0 for row in contended["timeline"])  # uncontended
    assert SCENARIOS["loss"]().result()["counters"]["dropped"] > 0
    assert SCENARIOS["drop_filter"]().result()["counters"]["dropped"] > 0
    faults = SCENARIOS["faults"]().result()
    kinds = {entry[1] for entry in faults["log"]}
    assert "obs.orphaned" in kinds and "obs.delivered" in kinds
    # receive fault, cut-on-grant, dead channel on the way: three orphans.
    assert faults["counters"]["orphaned"] == 3
    # arrival at the dead host, and a send with no route to it.
    dead = SCENARIOS["dead_destination"]().result()
    assert dead["counters"]["orphaned"] == 2


# -- sweep record pins ------------------------------------------------------------

def _sweep_points():
    from repro.sweep.figures import (
        faults_spec,
        fig10_spec,
        fig11_spec,
        repair_spec,
    )

    points = {}
    for scheme in ("hamiltonian-sf", "hamiltonian-ct", "tree-sf"):
        spec = fig10_spec(loads=[0.08], schemes=[scheme], scale=0.2, seed=1)
        points[f"fig10/{scheme}"] = spec.points()[0]
    spec = fig11_spec(
        loads=[0.05], fractions=[0.1], schemes=["hamiltonian"], scale=0.2, seed=1
    )
    points["fig11/hamiltonian"] = spec.points()[0]
    spec = faults_spec(loads=[0.06], link_failures=[1], scale=0.2, seed=1)
    points["faults/1-link"] = spec.points()[0]
    points["repair/3-drops"] = repair_spec(drops=[3], seed=1).points()[0]
    return points


def _record_digest(point) -> str:
    from repro.sweep.points import execute_point

    return _digest(execute_point(point.kind, point.executor_params()))


#: sha256 of each point's canonical-JSON record.
GOLDEN_RECORDS = {
    "fig10/hamiltonian-sf": "01fce78009209674678d228bdf4fe81b8574d74d39c0f6532db37cac1864826a",
    "fig10/hamiltonian-ct": "7dd9f68128c86a6cb9335a8f58db72fe53445b5012a0108e84f6c8d2dba0d4d5",
    "fig10/tree-sf": "07bcc32e637fa3ae0a852b5c86423a39e0d5aaa82bc66dc6f67540a093eca195",
    "fig11/hamiltonian": "d9a3b1c3c18d37c09cd95cdb5b87ec5d34eb27e91439dd6f0c7c48503e77c181",
    "faults/1-link": "0e05b5f518fb01a1f5d59c993a7be01d1645e6a52f80f0512843cf97a1fc1a1c",
    "repair/3-drops": "7cae3965f03086d503abad84a086885f33ed99695de63acdb037ae52a8b531ac",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS))
def test_sweep_record_pins(name):
    assert _record_digest(_sweep_points()[name]) == GOLDEN_RECORDS[name]


def test_roadmap_reference_point():
    """Fig-10 hamiltonian-sf at load 0.06, full effort, seed 1."""
    from repro.sweep.figures import fig10_spec
    from repro.sweep.points import execute_point

    point = fig10_spec(loads=[0.06], schemes=["hamiltonian-sf"]).points()[0]
    record = execute_point(point.kind, point.executor_params())
    assert round(record["mean_multicast_latency"], 2) == 3850.44
    assert round(record["mean_channel_utilization"], 6) == 0.128399


if __name__ == "__main__":
    runs = {n: f() for n, f in SCENARIOS.items()}
    print("GOLDEN_DIGESTS =", {n: _digest(h.result()) for n, h in runs.items()})
    print("GOLDEN_COUNTERS =", {n: h.result()["counters"] for n, h in runs.items()})
    print("GOLDEN_TIMELINES =", {
        n: runs[n].timeline() for n in ("faults", "dead_destination", "tailgate")
    })
    print("GOLDEN_ORDER =", {n: _digest(h.steps()) for n, h in runs.items()})
    print("GOLDEN_BY_TYPE =", {n: h.by_type() for n, h in runs.items()})
    print("GOLDEN_RECORDS =", {n: _record_digest(p) for n, p in _sweep_points().items()})

"""Golden records of the flit-level engines.

Both engines share every per-port method: ``InputPort.absorb`` (wire
delivery, the slack push and the STOP/GO hysteresis),
``CrossbarSwitch._advance`` and ``_stream``,
``OutputPort.ready``/``emit``, ``FlitAdapter.tick_input``/``tick_output``
and ``Wire.push``.  So the engine crosscheck (dense vs active) cannot see
a change to that shared code: both sides of the comparison move
together.  These pins can.  The active engine alone also lets a
worm's circuit sleep through steady spans (payload or IDLE streams,
frozen ports and sources, IDLE fill) while other circuits tick,
applying its counters in bulk when it wakes (``network._apply_span``);
a change there shows in the crosscheck and in the active half of these
pins.
Each scenario pins two sha256 digests:

* ``timeline`` -- :func:`~repro.net.flitlevel.crosscheck.timeline_digest`
  of the canonical worm timeline (status, clock, per-worm injection and
  delivery ticks, flushes, losses, per-host arrival order);
* ``counters`` -- the fabric counters the timeline leaves out: wire
  ``carried``/``idles``, output ``sent_flits``/``idle_run``, switch
  ``forwarded_worms`` and slack ``peak``/``overflows``.

The scenarios cover the Figure 3 race for all four schemes at two
offsets (at (0, 5) the base scheme deadlocks and scheme 3 flushes), the
base scheme at two lanes, the ``vc_lanes`` traffic for every multicast
mode, lane count and allocation policy on a small torus and a 2-ary
4-fly, a link failed and repaired mid-worm, a link cut (and a link cut
then repaired) ahead of a queued worm on a 2-ary 5-fly at one and two
lanes, three-tick wires on a torus with roomy and with undersized slack
buffers at one and two lanes, a broadcast and a host-adapter
(Hamiltonian) multicast.  The active engine builds a switch on first
touch, so on the 5-fly the cut link's wires do not exist yet when it
fails.  No other scenario overflows a slack buffer, and all but
``span/long_wires/L2`` use one-tick wires; the long-wire ones pin a flit
that is not yet due, STOP/GO symbols that take three ticks to act, and
the slack overflow count (16 dropped flits at one lane, 13 at two).
Four ``span/*`` scenarios sit at the edges of a steady streaming span:
scheme 3 on the Figure 3 fabric with worms of assorted sizes (the
crosscheck's ``streaming_spans`` smoke scenario), where a one-tick gap
in front of an idle destination adapter must close before a span may
start; long worms over three-tick wires at two lanes with 32-slot slack;
a span that a scheduled injection cuts off mid-payload; and a run whose
``max_ticks`` ends mid-payload.  Five more sit at the edges of the
spans in which some components are frozen (waiting for a grant, or
held by STOP) while others stream payload or IDLE fill: the base race
at (1, 5) cut by ``max_ticks=1_500`` inside its 3,000-tick quiet
window, and run with ``quiet_limit=None`` to ``max_ticks=6_000`` (both
time out); a third worm injected at tick 150, inside the base race at
(1, 1)'s grant wait (ticks 70-401); the D-E crosslink that race's
unicast crosses, cut at tick 200 inside the same wait; and scheme 3 at
(1, 5) with ``mc_idle_threshold=200``, whose one flush comes later than
at the default threshold (delivered at 1,058, not 874).  Each runs on
the active and dense engines, and both must read the same pins.
``ticks_executed`` is deliberately not pinned: it counts the ticks an
engine chose to execute, not the physics.

Re-pin after a change that is meant to change the physics::

    PYTHONPATH=src python tests/flitlevel/test_flit_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.switch_mcast import SwitchScheme, build_switch_multicast_network
from repro.net.flitlevel.crosscheck import (
    _smoke_scenarios,
    timeline_digest,
    worm_timeline,
)
from repro.net.flitlevel.network import FlitNetwork
from repro.net.topology import butterfly, fig3_topology, ring, torus

ENGINES = ("active", "dense")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _counters(net) -> dict:
    """Per-component counters in creation order.  Every live wire is the
    output wire of exactly one sender (a switch output or a host
    adapter), so each is counted once."""
    switches = list(net.switches.values())
    wires = [o.wire for s in switches for o in s.outputs]
    wires += [a.wire_out for a in net.adapters.values()]
    return {
        "wire_carried": [w.carried for w in wires],
        "wire_idles": [w.idles for w in wires],
        "sent_flits": [[o.sent_flits for o in s.outputs] for s in switches],
        "idle_run": [[o.idle_run for o in s.outputs] for s in switches],
        "forwarded_worms": [s.forwarded_worms for s in switches],
        "slack_peak": [[p.slack.peak for p in s.inputs] for s in switches],
        "slack_overflows": [
            [p.slack.overflows for p in s.inputs] for s in switches
        ],
    }


def _pins(net, status) -> dict:
    return {
        "status": status,
        "now": net.now,
        "timeline": timeline_digest(worm_timeline(net, status)),
        "counters": _digest(_counters(net)),
    }


# -- scenarios ------------------------------------------------------------------

def _fig3(scheme, mc_delay, uc_delay, lanes=1, max_ticks=100_000,
          quiet_limit=3_000, drive=None, **network):
    """The Figure 3 race, exactly as ``run_fig3_scenario`` drives it.
    ``max_ticks``, ``quiet_limit`` and ``network`` (extra
    :class:`FlitNetwork` keywords) vary it; ``drive(net, names)``, if
    given, adds traffic or faults before the run."""

    def run(engine):
        topology = fig3_topology()
        names = {topology.node(h).name: h for h in topology.hosts}
        net = build_switch_multicast_network(
            topology, scheme, seed=3, engine=engine, lanes=lanes, **network
        )
        net.send_multicast(
            names["srcM"], [names["host_b"], names["host_c"]],
            payload_bytes=400, start_delay=mc_delay,
        )
        net.send_unicast(
            names["host_y"], names["host_b"], payload_bytes=400,
            start_delay=uc_delay,
        )
        if drive is not None:
            drive(net, names)
        status = net.run(
            max_ticks=max_ticks, quiet_limit=quiet_limit,
            raise_on_deadlock=False,
        )
        return net, status

    return run


def _third_worm(net, names):
    """A unicast from the multicast's switch to ``host_c``, injected at
    tick 150: inside the grant wait of the base race at (1, 1), which
    lasts from tick 70 to tick 401."""
    net.send_unicast(
        names["srcU"], names["host_c"], payload_bytes=120, start_delay=150,
    )


def _cut_crosslink(net, names):
    """Cut the D-E crosslink, which the unicast crosses, at tick 200:
    inside the grant wait of the base race at (1, 1)."""
    link = net.routing.route(names["host_y"], names["host_b"])[2][2].id
    net.schedule(200, lambda: net.fail_link(link))


def _vc(make_topology, mode, lanes, vc_policy):
    """The ``vc_lanes`` point's traffic shape, loaded harder: a multicast
    from the first host to four spread-out destinations plus eight
    closely staggered cross-traffic unicasts, so IDLE fills, interrupts,
    flushes and lane choices all show up in the pins."""

    def run(engine):
        topo = make_topology()
        net = FlitNetwork(
            topo, mode=mode, lanes=lanes, vc_policy=vc_policy, seed=1,
            engine=engine,
        )
        hosts = topo.hosts
        n = len(hosts)
        stride = max(1, n // 5)
        dests = []
        for i in range(1, n):
            cand = hosts[(i * stride) % n]
            if cand != hosts[0] and cand not in dests:
                dests.append(cand)
            if len(dests) == 4:
                break
        net.send_multicast(hosts[0], dests, payload_bytes=240)
        for i in range(8):
            net.send_unicast(
                hosts[(2 * i + 1) % n], hosts[(2 * i + 1 + n // 2) % n],
                payload_bytes=160, start_delay=2 * i,
            )
        status = net.run(max_ticks=200_000, raise_on_deadlock=False)
        return net, status

    return run


def _link_fail_repair(engine):
    """A fabric link fails while worms stream across it, then comes back
    and carries a multicast."""
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine, seed=5)
    hosts = topo.hosts
    for i, src in enumerate(hosts):
        net.send_unicast(
            src, hosts[(i + 4) % len(hosts)], payload_bytes=400,
            start_delay=i * 7,
        )
    for _ in range(60):
        net.tick()
    dead = next(
        l.id for l in topo.links
        if topo.node(l.a).is_switch and topo.node(l.b).is_switch
    )
    net.fail_link(dead)
    for _ in range(40):
        net.tick()
    net.repair_link(dead)
    net.send_multicast(hosts[1], [hosts[5], hosts[8]], payload_bytes=80)
    status = net.run(max_ticks=80_000, quiet_limit=3_000,
                     raise_on_deadlock=False)
    return net, status


def _broadcast(engine):
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine, seed=2)
    hosts = topo.hosts
    net.send_broadcast(hosts[4], payload_bytes=90)
    net.send_unicast(hosts[0], hosts[8], payload_bytes=70, start_delay=3)
    status = net.run(max_ticks=60_000)
    return net, status


def _host_multicast(engine):
    topo = ring(6)
    net = FlitNetwork(topo, engine=engine, seed=3)
    hosts = topo.hosts
    net.create_host_group(1, hosts[:5])
    net.send_host_multicast(hosts[0], 1, payload_bytes=72)
    status = net.run(max_ticks=60_000)
    return net, status


def _fly_cut(lanes, repair):
    """A fabric link on a queued worm's route goes down before any flit
    reaches it, on a 2-ary 5-fly whose switches mostly never carry a
    flit.  The worm's head would cross the link at tick 13; the cut comes
    at tick 4 and, with ``repair``, the link is back at tick 8.  A
    multicast and a unicast sent after the fault route around the dead
    link (or over the repaired one)."""

    def run(engine):
        topo = butterfly(k=2, n=5)
        net = FlitNetwork(topo, lanes=lanes, seed=4, engine=engine)
        hosts = topo.hosts
        net.send_unicast(hosts[0], hosts[-1], payload_bytes=96)
        cut = net.routing.route(hosts[0], hosts[-1])[-2][2].id
        for _ in range(4):
            net.tick()
        net.fail_link(cut)
        if repair:
            for _ in range(4):
                net.tick()
            net.repair_link(cut)
        net.send_multicast(
            hosts[1], [hosts[-1], hosts[-5], hosts[20]], payload_bytes=80,
        )
        net.send_unicast(hosts[3], hosts[-2], payload_bytes=64, start_delay=5)
        status = net.run(max_ticks=60_000, quiet_limit=2_000,
                         raise_on_deadlock=False)
        return net, status

    return run


def _long_wires(slack_capacity, lanes):
    """Three-tick wires on a 3x3 torus: nine staggered unicasts and a
    3-way multicast, so several flits are in flight on a wire and STOP/GO
    symbols land three ticks after they are sent.  With 32-slot slack the
    round trip fits and everything is delivered; with 4 slots the STOP
    arrives too late, flits overflow the slack buffers and are dropped,
    and the worms they belonged to never complete (a deadlock)."""

    def run(engine):
        topo = torus(3, 3)
        net = FlitNetwork(
            topo, engine=engine, seed=7, wire_delay=3,
            slack_capacity=slack_capacity, lanes=lanes,
        )
        hosts = topo.hosts
        for i, src in enumerate(hosts):
            net.send_unicast(
                src, hosts[(i + 3) % len(hosts)],
                payload_bytes=40 + 8 * (i % 4), start_delay=i * 17,
            )
        net.send_multicast(
            hosts[0], [hosts[2], hosts[5], hosts[7]],
            payload_bytes=120, start_delay=9,
        )
        status = net.run(max_ticks=80_000, raise_on_deadlock=False)
        return net, status

    return run


def _span_long_wires(engine):
    """Long worms over three-tick wires at two lanes with 32-slot slack:
    three flits in flight on every streaming wire."""
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine, seed=11, wire_delay=3, lanes=2,
                      slack_capacity=32)
    h = topo.hosts
    net.send_multicast(h[0], [h[4], h[8], h[2]], payload_bytes=400)
    net.send_unicast(h[1], h[7], payload_bytes=400, start_delay=3)
    net.send_unicast(h[5], h[3], payload_bytes=300, start_delay=40)
    status = net.run(max_ticks=20_000, raise_on_deadlock=False)
    return net, status


def _span_cut_by_injection(engine):
    """A worm streams steadily until a scheduled injection fires in the
    middle of its payload; the new worm shares part of its path."""
    topo = ring(6)
    net = FlitNetwork(topo, engine=engine, seed=2)
    h = topo.hosts
    net.send_unicast(h[0], h[3], payload_bytes=400)
    net.send_unicast(h[1], h[4], payload_bytes=200, start_delay=150)
    net.send_unicast(h[5], h[2], payload_bytes=120, start_delay=233)
    status = net.run(max_ticks=20_000)
    return net, status


def _span_max_ticks(engine):
    """The tick budget runs out while two worms are mid-payload."""
    topo = torus(3, 3)
    net = FlitNetwork(topo, engine=engine, seed=4)
    h = topo.hosts
    net.send_multicast(h[2], [h[6], h[7]], payload_bytes=400)
    net.send_unicast(h[3], h[5], payload_bytes=400, start_delay=7)
    status = net.run(max_ticks=181)
    return net, status


def _fly():
    return butterfly(k=2, n=4)


def _small_torus():
    return torus(4, 4)


SCENARIOS = {}
for _scheme in SwitchScheme:
    for _mc, _uc in ((0, 5), (2, 2)):
        SCENARIOS[f"fig3/{_scheme.value}/{_mc},{_uc}"] = _fig3(_scheme, _mc, _uc)
SCENARIOS["fig3/base/0,5/lanes=2"] = _fig3(SwitchScheme.BASE, 0, 5, lanes=2)
SCENARIOS["fig3/base/1,5/max_ticks=1500"] = _fig3(
    SwitchScheme.BASE, 1, 5, max_ticks=1_500
)
SCENARIOS["fig3/base/1,5/no_quiet_limit"] = _fig3(
    SwitchScheme.BASE, 1, 5, max_ticks=6_000, quiet_limit=None
)
SCENARIOS["fig3/base/1,1/third_worm"] = _fig3(
    SwitchScheme.BASE, 1, 1, drive=_third_worm
)
SCENARIOS["fig3/base/1,1/cut_crosslink"] = _fig3(
    SwitchScheme.BASE, 1, 1, drive=_cut_crosslink
)
SCENARIOS["fig3/s3_idle_flush/1,5/threshold=200"] = _fig3(
    SwitchScheme.S3_IDLE_FLUSH, 1, 5, mc_idle_threshold=200
)
for _family, _make in (("torus", _small_torus), ("fly", _fly)):
    for _mode in ("idle_fill", "interrupt", "idle_flush"):
        for _lanes in (1, 2, 4):
            for _policy in ("first_free", "round_robin"):
                SCENARIOS[f"vc/{_family}/{_mode}/L{_lanes}/{_policy}"] = _vc(
                    _make, _mode, _lanes, _policy
                )
SCENARIOS["link_fail_repair"] = _link_fail_repair
for _lanes in (1, 2):
    SCENARIOS[f"sparse_fly/cut/L{_lanes}"] = _fly_cut(_lanes, repair=False)
    SCENARIOS[f"sparse_fly/cut_repair/L{_lanes}"] = _fly_cut(_lanes, repair=True)
for _slack in (32, 4):
    for _lanes in (1, 2):
        SCENARIOS[f"long_wires/slack{_slack}/L{_lanes}"] = _long_wires(
            _slack, _lanes
        )
SCENARIOS["broadcast"] = _broadcast
SCENARIOS["host_multicast"] = _host_multicast
# Scheme 3 on the Figure 3 fabric with worms of assorted sizes: a
# destination adapter sits idle while a one-tick gap on its wire closes,
# so a streaming span must not start until the adapter receives.
SCENARIOS["span/idle_dest_gap"] = _smoke_scenarios()["streaming_spans"]
SCENARIOS["span/long_wires/L2"] = _span_long_wires
SCENARIOS["span/cut_by_injection"] = _span_cut_by_injection
SCENARIOS["span/max_ticks"] = _span_max_ticks


def _run(name, engine):
    net, status = SCENARIOS[name](engine)
    return _pins(net, status)


#: Per scenario: run status, final clock, and the two sha256 pins.
GOLDEN = {
    'broadcast': {
        "status": 'delivered', "now": 174,
        "timeline": '42c1b936059deba2bd546ee52435e7354ceaf9440db25ce1893a52f8efcbc1c1',
        "counters": '904280fcf8d1cd646886f5f19126fdcef0ae05de079730d6f3711428f43daaa3',
    },
    'fig3/base/0,5': {
        "status": 'deadlock', "now": 3044,
        "timeline": '36c19ef4590157c67bb51138914541150235c63329907e2d0f3665dc54f4f9f9',
        "counters": 'fd4c037fb09d13e563ac9f852dc5f5475b6d0e6e9ca1ea384a08a38e55471283',
    },
    'fig3/base/0,5/lanes=2': {
        "status": 'delivered', "now": 824,
        "timeline": '5fb813a037a2b2dfaa8e3d295cf68a437041750e48bbdf1cdd023af28aba86f9',
        "counters": '1cc536c123ee3f79bdd5279a07985b582fd40b2f42384942bcb3f23e3e7568c1',
    },
    'fig3/base/1,1/cut_crosslink': {
        "status": 'delivered', "now": 632,
        "timeline": '44170e4032ca8914cd434a816539b82f8a7b177ed35ea9393f19b95220b04cc5',
        "counters": '627f7f7d8b45313958fad8b8d895990ca79dfc359a456f60c90ed3b10d83592e',
    },
    'fig3/base/1,1/third_worm': {
        "status": 'delivered', "now": 960,
        "timeline": '4433d949ebfcfecff53c9721b40ec4e428d1c59a14dc1d2d665bc9f6f49986c1',
        "counters": 'd9fd29b5061ca99b63a2569c7b7ef475d1b5b5098e230fe5d341a39e7636a1e6',
    },
    'fig3/base/1,5/max_ticks=1500': {
        "status": 'timeout', "now": 1500,
        "timeline": 'edd17f07eed11ff8ef081cbac5f28671759396c24ae07078bbb3fe592fedbf66',
        "counters": 'cb0e2174d6f526f9b8b532322e04b52e2fa43426fde47b42c6fd8a86e714cc8f',
    },
    'fig3/base/1,5/no_quiet_limit': {
        "status": 'timeout', "now": 6000,
        "timeline": 'fa0f45eaf5372666920e2f82cd9eb9ad823bc2d36b128e75315669e5e7da1ddc',
        "counters": '52d3451276f2bb4db6caf6c7a14ea5768ff447352230166780b873f70df1e02f',
    },
    'fig3/base/2,2': {
        "status": 'delivered', "now": 843,
        "timeline": '36034dd9f84eee3e8e2a70a16614013ba2a6a06245174aaf589f63e0a9bb1cac',
        "counters": 'e35988404c27427d5bb7d5287ea7d0fd706e9f4382e5c8b3068ef595739d42b4',
    },
    'fig3/s1_tree_restricted/0,5': {
        "status": 'delivered', "now": 829,
        "timeline": '23b9d086f18fd36d1d57f87f9e3ac2f6c600da56ddc7c4dd9ce8b23e47a88e3f',
        "counters": 'fa5d86186667de810cb26d4427094ecd5c643b955180bdbe9bc395e10bed6029',
    },
    'fig3/s1_tree_restricted/2,2': {
        "status": 'delivered', "now": 830,
        "timeline": '0f8be6c6dc58a02032ca6930670af74a28ce15c3d96ecadae9fe8d6cf6ba7d18',
        "counters": 'fa5d86186667de810cb26d4427094ecd5c643b955180bdbe9bc395e10bed6029',
    },
    'fig3/s2_interrupt/0,5': {
        "status": 'delivered', "now": 844,
        "timeline": 'a935d34254e143f9e174b8a55572a69ba6e937c6e882cbc0ae91b3b67d10d60c',
        "counters": '453194c05dbc4d0ed5d5d427c219f21729666f0b7c4e9079d9ab7377fee00839',
    },
    'fig3/s2_interrupt/2,2': {
        "status": 'delivered', "now": 822,
        "timeline": 'd11c23cd7adb1b487ab9bb4f6824d5230c27d876f56f69aed624b880aef1f84c',
        "counters": '281008f930bbe87749eb10653b696defb6a5be52883a4ae8bc080838d5ace9e0',
    },
    'fig3/s3_idle_flush/0,5': {
        "status": 'delivered', "now": 874,
        "timeline": 'da7cdbbda7349f592805a227fe24271c7d2a0dcfbea4f373875d0a52e56b77c7',
        "counters": '1fe544a16a9b53336a701caf48b5e231b7212d649f33cd99a82ca76edee24463',
    },
    'fig3/s3_idle_flush/1,5/threshold=200': {
        "status": 'delivered', "now": 1058,
        "timeline": '9868db1301eb00f78051ec1b51a07d024f7f95e79b2d965751ec4c89b4a626bc',
        "counters": 'db319d3a90cf538e5d05685d05993664ca74c96a31e2bbd6250f4dda5efefa9a',
    },
    'fig3/s3_idle_flush/2,2': {
        "status": 'delivered', "now": 843,
        "timeline": '36034dd9f84eee3e8e2a70a16614013ba2a6a06245174aaf589f63e0a9bb1cac',
        "counters": 'e35988404c27427d5bb7d5287ea7d0fd706e9f4382e5c8b3068ef595739d42b4',
    },
    'host_multicast': {
        "status": 'delivered', "now": 313,
        "timeline": '11480362385b619c504be27386e6686851172679f096ddd1219cfcc168b641ba',
        "counters": '8580be27726f15f96ffe538d42eac85dbf9aa2cabaeee681e84e8000abcaa8c9',
    },
    'link_fail_repair': {
        "status": 'deadlock', "now": 3913,
        "timeline": '44920bf3ce2bf8b9711561c0a39de620a7a7fe9b4a6b22c49c289b81b67aae88',
        "counters": 'a5779a481ad3b1881e9e7b93085cfcaf26382d02f25f35bcb7ec724b64c27c7c',
    },
    'long_wires/slack32/L1': {
        "status": 'delivered', "now": 269,
        "timeline": 'a9f37505a9e243697c2fb4b8767e88032032ece2ddcf57faa3e448ceb05c823f',
        "counters": '978bc2f229c8ce473ce4fe4d1f1069fecdf2f85cc34c5d8e008bb0c826279ed3',
    },
    'long_wires/slack32/L2': {
        "status": 'delivered', "now": 265,
        "timeline": 'fd13ce7f41a7e8ab1fde8f366f0fd5a851dae278079238761d5c6e28275d6bac',
        "counters": 'b6be99763a71469f98576c7dd6ab2431306cee8769077bb047460d6a5e0c905a',
    },
    'long_wires/slack4/L1': {
        "status": 'deadlock', "now": 2195,
        "timeline": '9862fec924270e08b31341bcd88e5eff6e0d0983b86d1ee25ab96550e8baf19c',
        "counters": '0edd8f06f5f497e3331a06d7c0b9a169847a03e4145e58d1ddd378491e5f0ff5',
    },
    'long_wires/slack4/L2': {
        "status": 'deadlock', "now": 2195,
        "timeline": '9862fec924270e08b31341bcd88e5eff6e0d0983b86d1ee25ab96550e8baf19c',
        "counters": 'f9da329ce58dd18e8746af0417182873f617389d6c74ff33e3677f9c88d1a6ea',
    },
    'span/cut_by_injection': {
        "status": 'delivered', "now": 534,
        "timeline": '93cbf7d09016a412a6e89784017171b59703b7aa8e40efe20f686cb65c070e61',
        "counters": 'ad74b060a7ae52fd474ffd73385babcfc2391bf0515c102938860b3ae4e2f292',
    },
    'span/idle_dest_gap': {
        "status": 'delivered', "now": 964,
        "timeline": '942bf379a80bed0c3ff330055b8ce2def52ce8e7db559ae250fa6b7369d1273d',
        "counters": '50fa6b805288d6babe9bbb4705119ec2c99342e2edc997485118458e71bb4bb1',
    },
    'span/long_wires/L2': {
        "status": 'delivered', "now": 437,
        "timeline": '62261b77e73dd0389f583df6ce37f3058e0edf983fa39fb2682d2d044548e931',
        "counters": '77db24c47e477ef7b5729033653a3342df93e4fc952e6ba344f789e711342f3b',
    },
    'span/max_ticks': {
        "status": 'timeout', "now": 181,
        "timeline": '5b8c4bf615fcbc18477322507caaaa4fa7f378304c5965fca6c2ec6642a6afc1',
        "counters": '0e23a30eaaeed183eccd188a51144b605d62fde58ce1fc0734cebc0572998040',
    },
    'sparse_fly/cut/L1': {
        "status": 'deadlock', "now": 2138,
        "timeline": '7b4aece9ca89101b3232e8d8cb1f8497db7116afad4b97127a07cea4f103f2de',
        "counters": 'd6f308ac703d570467067a2ff84e5552057756a306c8dfa1a4eebe90a1c6db95',
    },
    'sparse_fly/cut/L2': {
        "status": 'deadlock', "now": 2138,
        "timeline": '7b4aece9ca89101b3232e8d8cb1f8497db7116afad4b97127a07cea4f103f2de',
        "counters": '740f2619a5783c77c55198ea18232e11e35afa7005f33c66ab2bb75e10c547fa',
    },
    'sparse_fly/cut_repair/L1': {
        "status": 'delivered', "now": 195,
        "timeline": 'f6d292623f1c78e7fec8979718cfdbaff51297be8c05d00f2fffd1946a5b1780',
        "counters": 'c5b64c16bbd83384d69fb3bc9cb60f1570c45db657e6aa91a46f3c94f1767618',
    },
    'sparse_fly/cut_repair/L2': {
        "status": 'delivered', "now": 195,
        "timeline": 'f6d292623f1c78e7fec8979718cfdbaff51297be8c05d00f2fffd1946a5b1780',
        "counters": 'b09c5d9fa4bd2876939a718c7f9dcf717096ff03e3d3be6cc346d22fd6127261',
    },
    'vc/fly/idle_fill/L1/first_free': {
        "status": 'delivered', "now": 476,
        "timeline": '85818f7ef6256f6588042017892afc0fe74605a20aeb4142bdd0b8e2f7d38b2d',
        "counters": '26adc04327a265532989ae405405038661b61333ad28974087e8945cb4018fd7',
    },
    'vc/fly/idle_fill/L1/round_robin': {
        "status": 'delivered', "now": 476,
        "timeline": '85818f7ef6256f6588042017892afc0fe74605a20aeb4142bdd0b8e2f7d38b2d',
        "counters": '26adc04327a265532989ae405405038661b61333ad28974087e8945cb4018fd7',
    },
    'vc/fly/idle_fill/L2/first_free': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '8beb181a87cb0f38121c71d8a6908592b413e034b22b714c2be961a2d1387520',
    },
    'vc/fly/idle_fill/L2/round_robin': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '8beb181a87cb0f38121c71d8a6908592b413e034b22b714c2be961a2d1387520',
    },
    'vc/fly/idle_fill/L4/first_free': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '59ea59e84a033c0e2f24cc98036b175f4d885a2e8b66ee76ed8b5f9ad6dee140',
    },
    'vc/fly/idle_fill/L4/round_robin': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '59ea59e84a033c0e2f24cc98036b175f4d885a2e8b66ee76ed8b5f9ad6dee140',
    },
    'vc/fly/idle_flush/L1/first_free': {
        "status": 'delivered', "now": 476,
        "timeline": '85818f7ef6256f6588042017892afc0fe74605a20aeb4142bdd0b8e2f7d38b2d',
        "counters": '26adc04327a265532989ae405405038661b61333ad28974087e8945cb4018fd7',
    },
    'vc/fly/idle_flush/L1/round_robin': {
        "status": 'delivered', "now": 476,
        "timeline": '85818f7ef6256f6588042017892afc0fe74605a20aeb4142bdd0b8e2f7d38b2d',
        "counters": '26adc04327a265532989ae405405038661b61333ad28974087e8945cb4018fd7',
    },
    'vc/fly/idle_flush/L2/first_free': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '8beb181a87cb0f38121c71d8a6908592b413e034b22b714c2be961a2d1387520',
    },
    'vc/fly/idle_flush/L2/round_robin': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '8beb181a87cb0f38121c71d8a6908592b413e034b22b714c2be961a2d1387520',
    },
    'vc/fly/idle_flush/L4/first_free': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '59ea59e84a033c0e2f24cc98036b175f4d885a2e8b66ee76ed8b5f9ad6dee140',
    },
    'vc/fly/idle_flush/L4/round_robin': {
        "status": 'delivered', "now": 500,
        "timeline": '46f9df57a3add1e9891ab06f80ca3cf1ce92eae41d40ae0017c73449da8ef167',
        "counters": '59ea59e84a033c0e2f24cc98036b175f4d885a2e8b66ee76ed8b5f9ad6dee140',
    },
    'vc/fly/interrupt/L1/first_free': {
        "status": 'delivered', "now": 438,
        "timeline": '1ddd012962b36da72f35f16d9951066b8f0c26da3855f23c10347d492215a6f3',
        "counters": '781a03651d6352a36f76848bdfc118ce4b3e911604a7ba97d024d50cd5afce2f',
    },
    'vc/fly/interrupt/L1/round_robin': {
        "status": 'delivered', "now": 438,
        "timeline": '1ddd012962b36da72f35f16d9951066b8f0c26da3855f23c10347d492215a6f3',
        "counters": '781a03651d6352a36f76848bdfc118ce4b3e911604a7ba97d024d50cd5afce2f',
    },
    'vc/fly/interrupt/L2/first_free': {
        "status": 'delivered', "now": 432,
        "timeline": 'ef6b0e83589659b8c8c548d2e4773e65f48571354779a37d3e798f781d71e700',
        "counters": '40ed66640cdcb9ede20eba63d7152019848b0759b3da16ecca9507e1a325f556',
    },
    'vc/fly/interrupt/L2/round_robin': {
        "status": 'delivered', "now": 432,
        "timeline": 'ef6b0e83589659b8c8c548d2e4773e65f48571354779a37d3e798f781d71e700',
        "counters": '664fd43e770c5873675f5b6b3457ce054acb76303dd1d95b8065342308241b2e',
    },
    'vc/fly/interrupt/L4/first_free': {
        "status": 'delivered', "now": 432,
        "timeline": 'ef6b0e83589659b8c8c548d2e4773e65f48571354779a37d3e798f781d71e700',
        "counters": 'bf70962896fb57e35ef4d1b14645403b9b2a26322a78092dd7e73b62637523d4',
    },
    'vc/fly/interrupt/L4/round_robin': {
        "status": 'delivered', "now": 432,
        "timeline": 'ef6b0e83589659b8c8c548d2e4773e65f48571354779a37d3e798f781d71e700',
        "counters": '08d9198aa53483bc72fb187f196caa8362aa9540a41aa53120ab9bfaeaf36bd4',
    },
    'vc/torus/idle_fill/L1/first_free': {
        "status": 'delivered', "now": 731,
        "timeline": '8fe1eb231e23c121861cf48e2420496d9138e7bde6921160f71d0352f4d648d2',
        "counters": 'f981fac5127e14b28f1fa033fc71dd87d06a4d66f64ebdf4496a51af731dbe6b',
    },
    'vc/torus/idle_fill/L1/round_robin': {
        "status": 'delivered', "now": 731,
        "timeline": '8fe1eb231e23c121861cf48e2420496d9138e7bde6921160f71d0352f4d648d2',
        "counters": 'f981fac5127e14b28f1fa033fc71dd87d06a4d66f64ebdf4496a51af731dbe6b',
    },
    'vc/torus/idle_fill/L2/first_free': {
        "status": 'delivered', "now": 569,
        "timeline": 'f37c5314faa7c0e5dd13f3c7da105868d7b65495a9e55b9d30230ca6a80c314e',
        "counters": '1d3b8dc97af47612c86af38028f280335f626aa227588761e7fbf073ffa3e869',
    },
    'vc/torus/idle_fill/L2/round_robin': {
        "status": 'delivered', "now": 569,
        "timeline": 'f37c5314faa7c0e5dd13f3c7da105868d7b65495a9e55b9d30230ca6a80c314e',
        "counters": '0cf5182b1e25ebc1bcb5054db40a63fc4eb7cd64ee012e7dce7a3b65d099b8d9',
    },
    'vc/torus/idle_fill/L4/first_free': {
        "status": 'delivered', "now": 553,
        "timeline": '33bc55d47985ed5efdca9b763e867dd18deade72a4d19f8eec3943250844e87c',
        "counters": 'fee8d5795592fe510b009f127967a75cea1b8a0e245f6669d5d70b1b87d96bca',
    },
    'vc/torus/idle_fill/L4/round_robin': {
        "status": 'delivered', "now": 553,
        "timeline": '33bc55d47985ed5efdca9b763e867dd18deade72a4d19f8eec3943250844e87c',
        "counters": 'fee8d5795592fe510b009f127967a75cea1b8a0e245f6669d5d70b1b87d96bca',
    },
    'vc/torus/idle_flush/L1/first_free': {
        "status": 'delivered', "now": 731,
        "timeline": '123f6b6fdf7cb2559af87d1764b0f8cdfbe9605bf57dd362cfbe0029e7859376',
        "counters": 'b64cb5d7c69fea5195cc3a423b9452307afb0799381abb17e66d49340de741e7',
    },
    'vc/torus/idle_flush/L1/round_robin': {
        "status": 'delivered', "now": 731,
        "timeline": '123f6b6fdf7cb2559af87d1764b0f8cdfbe9605bf57dd362cfbe0029e7859376',
        "counters": 'b64cb5d7c69fea5195cc3a423b9452307afb0799381abb17e66d49340de741e7',
    },
    'vc/torus/idle_flush/L2/first_free': {
        "status": 'delivered', "now": 569,
        "timeline": '27e36ecc2b019761d10bd518e7273c441cae9f7834626204dbe2a381e92be70e',
        "counters": '1c6fdbe1bf6dc01f2094a41e33ff4674a18be2bc0df3d58aa524f538c5b24e91',
    },
    'vc/torus/idle_flush/L2/round_robin': {
        "status": 'delivered', "now": 569,
        "timeline": '27e36ecc2b019761d10bd518e7273c441cae9f7834626204dbe2a381e92be70e',
        "counters": 'aedea4780f2a9cc458e834ca469e160b36c89bd781dec718885f6aef1f579c4c',
    },
    'vc/torus/idle_flush/L4/first_free': {
        "status": 'delivered', "now": 553,
        "timeline": 'ffb407d31eddfd0c9a266db9f1fa320d962c2d608a011394c35c3549d8b611ce',
        "counters": '064447cf1efb8b448d86be5a0cd5191f414fd4bfa45ce2090e519f359f2f35e2',
    },
    'vc/torus/idle_flush/L4/round_robin': {
        "status": 'delivered', "now": 553,
        "timeline": 'ffb407d31eddfd0c9a266db9f1fa320d962c2d608a011394c35c3549d8b611ce',
        "counters": '6ad645990c0e8f8c246823333c92757b80b81462b9a375fd9f63e8d37112bf4d',
    },
    'vc/torus/interrupt/L1/first_free': {
        "status": 'delivered', "now": 582,
        "timeline": 'ee5f0006b86d382bc746216f790804b7080ae92e56dfd0c573e447cfeaa1f2d7',
        "counters": '6a67d0cd21f9e1b06dbb17f88305fb0eb93dcbc71ffed4332eed61138b6aadde',
    },
    'vc/torus/interrupt/L1/round_robin': {
        "status": 'delivered', "now": 582,
        "timeline": 'ee5f0006b86d382bc746216f790804b7080ae92e56dfd0c573e447cfeaa1f2d7',
        "counters": '6a67d0cd21f9e1b06dbb17f88305fb0eb93dcbc71ffed4332eed61138b6aadde',
    },
    'vc/torus/interrupt/L2/first_free': {
        "status": 'delivered', "now": 461,
        "timeline": '01b8742f7241688b463e104aaec58eada642079aac12005248a509de73a39018',
        "counters": '773512b36e98cf435cbb71d6050d77fdd0e0f8c97df6e5755dac99fc44976b99',
    },
    'vc/torus/interrupt/L2/round_robin': {
        "status": 'delivered', "now": 461,
        "timeline": '01b8742f7241688b463e104aaec58eada642079aac12005248a509de73a39018',
        "counters": '5813b02b6499f3b71f79bdfe6b39e96ca63087df144bda844b9b29ce95b3630e',
    },
    'vc/torus/interrupt/L4/first_free': {
        "status": 'delivered', "now": 461,
        "timeline": 'cfb7ac993cd9c28689bbe4da92bef223edb553c80dc77ff5c335faa9824ad1c9',
        "counters": 'f5fa1a8899fdb00bc3a9e9eab6234c4dd575e322cac94a37541dee4f181d7629',
    },
    'vc/torus/interrupt/L4/round_robin': {
        "status": 'delivered', "now": 461,
        "timeline": 'cfb7ac993cd9c28689bbe4da92bef223edb553c80dc77ff5c335faa9824ad1c9',
        "counters": 'f2f7b8de99e4f7de811ba48e16bd2b4a35e67ebcd33ca619def79a7ace32512f',
    },
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flit_golden(name, engine):
    assert _run(name, engine) == GOLDEN[name]


def test_scenarios_cover_the_paper_outcomes():
    """The pins include a deadlock, scheme-3 flushes, IDLE fills,
    interrupts, lane choices that change the timeline, a lost worm, a
    completed host-adapter multicast and slack overflows on long
    wires."""
    assert GOLDEN["fig3/base/0,5"]["status"] == "deadlock"
    assert GOLDEN["fig3/base/0,5/lanes=2"]["status"] == "delivered"
    net, status = SCENARIOS["fig3/s3_idle_flush/0,5"]("dense")
    assert status == "delivered" and net.flushes > 0
    net, status = SCENARIOS["vc/torus/idle_flush/L1/first_free"]("dense")
    assert status == "delivered" and net.flushes > 0
    net, _ = SCENARIOS["vc/fly/idle_fill/L2/first_free"]("dense")
    assert sum(_counters(net)["wire_idles"]) > 0
    for family in ("torus", "fly"):
        timelines = {
            (mode, lanes): GOLDEN[f"vc/{family}/{mode}/L{lanes}/first_free"][
                "timeline"
            ]
            for mode in ("idle_fill", "interrupt")
            for lanes in (1, 2)
        }
        assert len(set(timelines.values())) == 4, family
    net, _ = SCENARIOS["link_fail_repair"]("dense")
    assert net.worms_lost > 0 and net.link_faults == 1
    net, status = SCENARIOS["host_multicast"]("dense")
    assert status == "delivered" and all(m.complete for m in net.messages.values())
    for lanes, overflows in ((1, 16), (2, 13)):
        net, status = SCENARIOS[f"long_wires/slack4/L{lanes}"]("dense")
        assert status == "deadlock"
        assert sum(map(sum, _counters(net)["slack_overflows"])) == overflows
    net, status = SCENARIOS["long_wires/slack32/L1"]("dense")
    assert status == "delivered" and net.now == 269
    assert not any(map(any, _counters(net)["slack_overflows"]))


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name in sorted(SCENARIOS):
        print(f"    {_name!r}: {_run(_name, 'dense')!r},")
    print("}")

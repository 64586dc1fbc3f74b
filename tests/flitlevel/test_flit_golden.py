"""Golden records of the flit-level engines.

Both engines share ``InputPort.absorb``, ``CrossbarSwitch._stream`` and
``Wire.push``, so the engine crosscheck (dense vs active) cannot see a
change to that shared code: both sides of the comparison move
together.  These pins can.  Each scenario pins two sha256 digests:

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
4-fly, a link failed and repaired mid-worm, a broadcast and a
host-adapter (Hamiltonian) multicast.  Each runs on the active and dense
engines, and both must read the same pins.  ``ticks_executed`` is
deliberately not pinned: it counts the ticks an engine chose to execute,
not the physics.

Re-pin after a change that is meant to change the physics::

    PYTHONPATH=src python tests/flitlevel/test_flit_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.switch_mcast import SwitchScheme, build_switch_multicast_network
from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
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

def _fig3(scheme, mc_delay, uc_delay, lanes=1):
    """The Figure 3 race, exactly as ``run_fig3_scenario`` drives it."""

    def run(engine):
        topology = fig3_topology()
        names = {topology.node(h).name: h for h in topology.hosts}
        net = build_switch_multicast_network(
            topology, scheme, seed=3, engine=engine, lanes=lanes,
        )
        net.send_multicast(
            names["srcM"], [names["host_b"], names["host_c"]],
            payload_bytes=400, start_delay=mc_delay,
        )
        net.send_unicast(
            names["host_y"], names["host_b"], payload_bytes=400,
            start_delay=uc_delay,
        )
        status = net.run(
            max_ticks=100_000, quiet_limit=3_000, raise_on_deadlock=False
        )
        return net, status

    return run


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


def _fly():
    return butterfly(k=2, n=4)


def _small_torus():
    return torus(4, 4)


SCENARIOS = {}
for _scheme in SwitchScheme:
    for _mc, _uc in ((0, 5), (2, 2)):
        SCENARIOS[f"fig3/{_scheme.value}/{_mc},{_uc}"] = _fig3(_scheme, _mc, _uc)
SCENARIOS["fig3/base/0,5/lanes=2"] = _fig3(SwitchScheme.BASE, 0, 5, lanes=2)
for _family, _make in (("torus", _small_torus), ("fly", _fly)):
    for _mode in ("idle_fill", "interrupt", "idle_flush"):
        for _lanes in (1, 2, 4):
            for _policy in ("first_free", "round_robin"):
                SCENARIOS[f"vc/{_family}/{_mode}/L{_lanes}/{_policy}"] = _vc(
                    _make, _mode, _lanes, _policy
                )
SCENARIOS["link_fail_repair"] = _link_fail_repair
SCENARIOS["broadcast"] = _broadcast
SCENARIOS["host_multicast"] = _host_multicast


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
    interrupts, lane choices that change the timeline, a lost worm and a
    completed host-adapter multicast."""
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name in sorted(SCENARIOS):
        print(f"    {_name!r}: {_run(_name, 'dense')!r},")
    print("}")

"""Cross-engine crosscheck harness.

The active-set engine
(:class:`~repro.net.flitlevel.network.FlitNetwork` with ``engine="active"``)
promises *byte-identical semantics* to the dense polling loop, its
oracle: the same per-worm delivery ticks, the same retransmission
counts, the same final run status, across all multicast modes and under
fault injection.  This module turns that promise into something checkable.

Usage::

    from repro.net.flitlevel.crosscheck import crosscheck

    def scenario(engine):
        net = FlitNetwork(torus(3, 3), engine=engine, seed=11)
        net.send_multicast(0, [4, 7], payload_bytes=96)
        status = net.run(max_ticks=50_000)
        return net, status

    report = crosscheck(scenario)                          # dense vs active
    assert report.ok, report.describe()

Worm ids come from a process-global counter, so the dense and active runs
of the same scenario observe *disjoint* wid ranges.  The timelines are
therefore keyed by **creation ordinal** (the k-th worm ever created inside
one run), recovered by sorting the observed wids -- the counter is
monotonic, so sorted order is creation order, and byte-identical runs
create worms in the same order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "worm_timeline",
    "timeline_digest",
    "crosscheck",
    "CrosscheckReport",
]


def worm_timeline(net, status: str) -> Dict[str, Any]:
    """Reduce a finished run to an engine-independent canonical dict.

    Every field that the paper's metrics depend on is captured: global
    counters, per-worm injection/delivery ticks and retransmission counts,
    per-host arrival sequences, and host-multicast message completion.
    Two runs agree on the byte level iff their timelines compare equal.
    """
    # All wids ever created: records holds live + delivered worms, killed
    # holds flushed ones (whose records lose_worm() may have forgotten).
    all_wids = sorted(set(net.records) | set(net.killed))
    ordinal = {wid: i for i, wid in enumerate(all_wids)}
    worms: Dict[int, Dict[str, Any]] = {}
    for wid, record in net.records.items():
        worms[ordinal[wid]] = {
            "src": record.src,
            "dests": sorted(record.dests),
            "injected_at": record.injected_at,
            "delivered_at": dict(sorted(record.delivered_at.items())),
            "retransmissions": record.retransmissions,
            "payload_bytes": record.payload_bytes,
            "hop_count": record.hop_count,
            "killed": record.wid in net.killed,
        }
    messages: Dict[int, Dict[str, Any]] = {}
    for i, mid in enumerate(sorted(net.messages)):
        message = net.messages[mid]
        messages[i] = {
            "gid": message.gid,
            "origin": message.origin,
            "created": message.created,
            "expected": sorted(message.expected),
            "deliveries": dict(sorted(message.deliveries.items())),
        }
    # An adapter never built (the active engine builds on first use)
    # received nothing; reading it here would build it.
    received: Dict[int, List[Any]] = {}
    received_flits: Dict[int, int] = {}
    for host in net.adapters:
        adapter = net.adapters.peek(host)
        if adapter is None:
            received[host], received_flits[host] = [], 0
            continue
        received[host] = [
            ordinal.get(wid, f"?{wid}") for wid in adapter.received_worms
        ]
        received_flits[host] = adapter.received_flits
    return {
        "status": status,
        "now": net.now,
        "flushes": net.flushes,
        "worms_lost": net.worms_lost,
        "link_faults": net.link_faults,
        "worms_injected": net.worms_injected,
        "worm_deliveries": net.worm_deliveries,
        "killed": sorted(ordinal[wid] for wid in net.killed),
        "worms": worms,
        "messages": messages,
        "received": received,
        "received_flits": received_flits,
    }


def timeline_digest(timeline: Dict[str, Any]) -> str:
    """A stable content hash of a canonical timeline.

    Two runs are byte-identical iff their digests match; the digest is
    what bench artifacts record so a reviewer can line runs up without
    shipping whole timelines."""
    blob = json.dumps(timeline, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class CrosscheckReport:
    """Comparison result of one scenario run under two engines.

    The first engine is the *baseline* (conventionally ``"dense"``), the
    second the *candidate*; the legacy ``dense``/``active`` attribute and
    parameter names are retained as aliases for the baseline/candidate
    timelines regardless of which engines actually ran (``engines`` names
    them).
    """

    def __init__(self, dense: Dict[str, Any], active: Dict[str, Any],
                 dense_ticks: int, active_ticks: int,
                 engines: Tuple[str, str] = ("dense", "active")) -> None:
        self.engines = engines
        self.dense = self.baseline = dense
        self.active = self.candidate = active
        #: Ticks each engine actually executed -- the active engine may
        #: fast-forward across quiescent gaps, so this is allowed to differ
        #: (it is the point of the optimisation); everything else is not.
        self.dense_ticks = self.baseline_ticks = dense_ticks
        self.active_ticks = self.candidate_ticks = active_ticks
        self.mismatches: List[Tuple[str, Any, Any]] = _diff(dense, active)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        base, cand = self.engines
        if self.ok:
            return (
                f"engines agree: status={self.dense['status']!r} "
                f"now={self.dense['now']} "
                f"({base} ticked {self.dense_ticks}, "
                f"{cand} {self.active_ticks})"
            )
        lines = [f"{len(self.mismatches)} mismatch(es) {base} vs {cand}:"]
        for path, base_val, cand_val in self.mismatches[:20]:
            lines.append(
                f"  {path}: {base}={base_val!r} {cand}={cand_val!r}"
            )
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


def _diff(a: Any, b: Any, path: str = "") -> List[Tuple[str, Any, Any]]:
    """Recursive structural diff producing (path, left, right) triples.
    Leaves differ when their types do, too: ``300`` and ``300.0`` compare
    equal but serialise, and so digest, differently."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[Tuple[str, Any, Any]] = []
        for key in sorted(set(a) | set(b), key=repr):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append((sub, "<missing>", b[key]))
            elif key not in b:
                out.append((sub, a[key], "<missing>"))
            else:
                out.extend(_diff(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(f"{path}.len", len(a), len(b))]
        out = []
        for i, (ai, bi) in enumerate(zip(a, b)):
            out.extend(_diff(ai, bi, f"{path}[{i}]"))
        return out
    if type(a) is not type(b) or a != b:
        return [(path, a, b)]
    return []


def crosscheck(
    scenario: Callable[[str], Tuple[Any, str]],
    engines: Tuple[str, str] = ("dense", "active"),
) -> CrosscheckReport:
    """Run ``scenario`` under two engines and compare canonical timelines.

    ``scenario(engine)`` must build a fresh :class:`FlitNetwork` with the
    given ``engine=`` keyword, drive it (sends, faults, ``run()``), and
    return ``(net, status)``.  It must be deterministic apart from the
    engine choice -- fix the seed.  ``engines`` selects the (baseline,
    candidate) pair; the default reproduces the historical dense-vs-active
    comparison.
    """
    base_net, base_status = scenario(engines[0])
    cand_net, cand_status = scenario(engines[1])
    return CrosscheckReport(
        worm_timeline(base_net, base_status),
        worm_timeline(cand_net, cand_status),
        dense_ticks=base_net.ticks_executed,
        active_ticks=cand_net.ticks_executed,
        engines=engines,
    )


def _smoke_scenarios(lanes: int = 1, vc_policy: str = "first_free"):
    """Eight quick scenarios covering the hot paths: a mixed-traffic torus
    (headers, grants, multicast replication), a saturated shufflenet
    (every port streaming at once), a sparse 2-ary 5-fly (a fabric
    mostly never built by the active engine, with a link cut ahead of a
    queued worm before its wires exist), the mixed traffic again on
    three-tick wires with 4-slot slack buffers (several flits in flight
    per wire, STOP/GO symbols that arrive late, flits dropped by slack
    overflow, and a stall window of ports left frozen), scheme 3 on the
    Figure 3 fabric with worms of assorted sizes (steady streaming spans
    the active engine skips, one of them only once a one-tick gap in
    front of an idle destination closes), the base scheme's Figure 3
    race at offset (1, 5) (at one lane a deadlock: the multicast
    IDLE-fills one branch through the 3,000-tick quiet window while the
    other ports wait for grants or are held by STOP; from two lanes on
    the second lane dissolves it, and the race waits for grants while
    payload streams instead) and staggered circuits on a 2-ary 5-fly (a
    long unicast's circuit asleep while later worms on other paths
    process their headers and stream beside it), and lazy lanes on a
    2-ary 5-fly (two multicast trees leaving switches on the same links,
    so the active engine selects a lane beside lanes it never built, and
    a link cut and repaired before any of its ports exist, then crossed).
    ``lanes``/``vc_policy`` thread the virtual-channel configuration
    through every network, so the same scenarios prove multi-lane runs
    byte-identical across engines."""
    from repro.core.switch_mcast import (
        SwitchScheme,
        build_switch_multicast_network,
    )
    from repro.net.flitlevel.network import FlitNetwork
    from repro.net.topology import (
        bidirectional_shufflenet,
        butterfly,
        fig3_topology,
        torus,
    )

    def mixed_traffic(engine, **wires):
        topo = torus(3, 3)
        net = FlitNetwork(topo, engine=engine, seed=7,
                          lanes=lanes, vc_policy=vc_policy, **wires)
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
        return net

    def mixed(engine):
        net = mixed_traffic(engine)
        return net, net.run(max_ticks=80_000)

    def long_wires(engine):
        # The overflows lose flits, so this run ends in a deadlock.
        net = mixed_traffic(engine, wire_delay=3, slack_capacity=4)
        return net, net.run(max_ticks=80_000, raise_on_deadlock=False)

    def saturated(engine):
        topo = bidirectional_shufflenet(2, 3)
        net = FlitNetwork(topo, engine=engine, seed=21,
                          lanes=lanes, vc_policy=vc_policy)
        hosts = topo.hosts
        for i, src in enumerate(hosts):
            net.send_unicast(src, hosts[(i + 7) % len(hosts)],
                             payload_bytes=150)
        status = net.run(max_ticks=60_000)
        return net, status

    def sparse_fly(engine):
        topo = butterfly(k=2, n=5)
        net = FlitNetwork(topo, engine=engine, seed=4,
                          lanes=lanes, vc_policy=vc_policy)
        hosts = topo.hosts
        net.send_unicast(hosts[0], hosts[-1], payload_bytes=96)
        # Cut the queued worm's last fabric hop before its head gets there.
        cut = net.routing.route(hosts[0], hosts[-1])[-2][2].id
        for _ in range(4):
            net.tick()
        net.fail_link(cut)
        net.send_multicast(
            hosts[1], [hosts[-1], hosts[-5], hosts[20]], payload_bytes=80,
        )
        net.send_unicast(hosts[3], hosts[-2], payload_bytes=64, start_delay=5)
        status = net.run(max_ticks=60_000, quiet_limit=2_000,
                         raise_on_deadlock=False)
        return net, status

    def streaming_spans(engine):
        topo = fig3_topology()
        net = FlitNetwork(topo, engine=engine, mode="idle_flush", seed=3,
                          lanes=lanes, vc_policy=vc_policy)
        h = topo.hosts
        net.send_multicast(h[2], [h[1], h[0]], payload_bytes=5, start_delay=55)
        net.send_multicast(h[4], [h[0], h[2]], payload_bytes=400,
                           start_delay=14)
        net.send_multicast(h[0], [h[3], h[2], h[1], h[4]], payload_bytes=120,
                           start_delay=119)
        net.send_unicast(h[4], h[0], payload_bytes=400, start_delay=161)
        net.send_unicast(h[2], h[3], payload_bytes=5, start_delay=160)
        net.send_unicast(h[1], h[3], payload_bytes=120, start_delay=46)
        net.send_unicast(h[4], h[0], payload_bytes=120, start_delay=26)
        status = net.run(max_ticks=20_000, quiet_limit=1_500,
                         raise_on_deadlock=False)
        return net, status

    def fig3_deadlock(engine):
        topo = fig3_topology()
        names = {topo.node(h).name: h for h in topo.hosts}
        net = build_switch_multicast_network(
            topo, SwitchScheme.BASE, seed=3, engine=engine,
            lanes=lanes, vc_policy=vc_policy,
        )
        net.send_multicast(
            names["srcM"], [names["host_b"], names["host_c"]],
            payload_bytes=400, start_delay=1,
        )
        net.send_unicast(
            names["host_y"], names["host_b"], payload_bytes=400,
            start_delay=5,
        )
        status = net.run(max_ticks=100_000, quiet_limit=3_000,
                         raise_on_deadlock=False)
        return net, status

    def staggered_circuits(engine):
        topo = butterfly(k=2, n=5)
        net = FlitNetwork(topo, engine=engine, seed=5,
                          lanes=lanes, vc_policy=vc_policy)
        hosts = topo.hosts
        net.send_unicast(hosts[0], hosts[-1], payload_bytes=600)
        for i, start in enumerate((40, 90, 140, 190, 240)):
            src = 2 + 5 * i
            net.send_unicast(hosts[src], hosts[(src + 11) % len(hosts)],
                             payload_bytes=48, start_delay=start)
        return net, net.run(max_ticks=20_000)

    def lazy_lanes(engine):
        topo = butterfly(k=2, n=5)
        net = FlitNetwork(topo, engine=engine, seed=6,
                          lanes=lanes, vc_policy=vc_policy)
        hosts = topo.hosts
        # The two trees leave switches 16, 24 and 44 on the same links,
        # so the later header selects a lane beside the earlier one's,
        # where the active engine has built no lane yet.
        net.send_multicast(hosts[0], [hosts[-1], hosts[-5], hosts[20]],
                           payload_bytes=90)
        net.send_multicast(hosts[8], [hosts[-1], hosts[-6]],
                           payload_bytes=70, start_delay=2)
        # A link no worm has reached is cut and repaired; a worm routed
        # while it is down goes around it, one routed after crosses it.
        cut = net.routing.route(hosts[5], hosts[26])[3][2].id
        for _ in range(3):
            net.tick()
        net.fail_link(cut)
        net.send_unicast(hosts[5], hosts[26], payload_bytes=48,
                         start_delay=4)
        net.schedule(40, lambda: net.repair_link(cut))
        net.schedule(60, lambda: net.send_unicast(
            hosts[5], hosts[26], payload_bytes=64))
        return net, net.run(max_ticks=20_000)

    return {
        "mixed_torus": mixed,
        "saturated_shufflenet": saturated,
        "sparse_fly": sparse_fly,
        "long_wires": long_wires,
        "streaming_spans": streaming_spans,
        "fig3_deadlock": fig3_deadlock,
        "staggered_circuits": staggered_circuits,
        "lazy_lanes": lazy_lanes,
    }


def main(argv=None) -> int:
    """``python -m repro.net.flitlevel.crosscheck --engines dense active``

    Runs the smoke scenarios under the given engine pair and exits
    non-zero on any timeline mismatch -- the assertion CI's vc-smoke job
    runs at lanes 1, 2 and 4 under both lane allocation policies.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="byte-identical crosscheck between two flit engines"
    )
    parser.add_argument(
        "--engines", nargs=2, default=("dense", "active"),
        metavar=("BASELINE", "CANDIDATE"),
        help="engine pair to compare (default: dense active)",
    )
    parser.add_argument(
        "--lanes", type=int, nargs="+", default=[1], metavar="L",
        help="virtual-channel lane counts to crosscheck the smoke "
             "scenarios under (default: 1)",
    )
    parser.add_argument(
        "--vc-policy", default="first_free",
        choices=("first_free", "round_robin"),
        help="lane-allocation policy for multi-lane runs",
    )
    args = parser.parse_args(argv)
    engines = tuple(args.engines)
    failed = False
    for lanes in args.lanes:
        scenarios = _smoke_scenarios(lanes=lanes, vc_policy=args.vc_policy)
        for name, scenario in scenarios.items():
            report = crosscheck(scenario, engines=engines)
            tag = f"{name}[lanes={lanes}]" if lanes != 1 else name
            print(("OK   " if report.ok else "FAIL ") + f"{tag}: "
                  + report.describe().splitlines()[0])
            failed |= not report.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    import sys

    sys.exit(main())

"""Stress scenarios: deterministic protocol runs the search perturbs.

A scenario packages (a) a small deterministic workload on one of the
repo's simulators, (b) the *fault vocabulary* the search may inject into
it, (c) *anchors* -- candidate injection times derived from a baseline
run, aligned with protocol phases (just after injection, mid-worm, just
before completion, during reconfiguration) -- and (d) the invariant
oracle evaluated after quiescence.

``execute(schedule)`` builds everything fresh, replays the schedule, and
returns an :class:`Outcome` whose state dicts are keyed purely by per-run
*ordinals* (message index in the send plan), never by worm/message ids:
those come from module-global counters and would differ between runs in
one process, breaking cross-process byte-identity of search reports.

Two scenarios ship today:

``flit_multicast``
    Flit-level switch multicasts (scheme 3 ``idle_flush`` by default) on
    a small ring; vocabulary ``link_fail`` / ``link_repair`` /
    ``worm_drop``.  The classic finding is a link death mid-worm killing
    a worm the flush logic never retransmits.

``worm_recovery``
    Worm-level host-adapter multicast with a :class:`RecoveryManager`
    reconfiguring around faults on a torus; vocabulary adds
    ``node_fail`` / ``node_repair`` / ``recv_fault``, and the oracle adds
    reconvergence bounds and routing-safety (deadlock-freedom) checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.stress.state import Violation, state_digest


@dataclass(frozen=True)
class Candidate:
    """One injectable fault type: a (kind, target, param) triple."""

    kind: str
    target: int
    param: int = 1


@dataclass
class Outcome:
    """Everything the search needs from one scenario run.

    ``frontier_state`` summarizes protocol state at the instant of the
    schedule's last fault (the pruning key); ``final_state`` the state at
    quiescence (the oracle's input).  Both contain only JSON-safe,
    ordinal-keyed values.  ``measures`` carries timing observations
    (delivery ticks) that must *not* enter digests, and ``trace`` is the
    human-readable event narrative.
    """

    status: str
    violations: Tuple[Violation, ...]
    frontier_state: Dict[str, Any]
    final_state: Dict[str, Any]
    measures: Dict[str, Any] = field(default_factory=dict)
    trace: Tuple[str, ...] = ()

    @property
    def frontier_digest(self) -> str:
        return state_digest(self.frontier_state)

    @property
    def final_digest(self) -> str:
        return state_digest(self.final_state)


@dataclass
class Probe:
    """Baseline-derived search inputs: anchors, vocabulary, clean outcome."""

    anchors: Tuple[float, ...]
    candidates: Tuple[Candidate, ...]
    baseline: Outcome


class StressScenario:
    """Base class: parameter plumbing shared by every scenario."""

    name = "?"
    defaults: Dict[str, Any] = {}
    supported_kinds: Tuple[str, ...] = ()

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        merged = dict(self.defaults)
        if params:
            unknown = sorted(set(params) - set(self.defaults))
            if unknown:
                raise ValueError(
                    f"unknown parameters for scenario {self.name!r}: {unknown}"
                )
            merged.update(params)
        for kind in merged["kinds"]:
            if kind not in self.supported_kinds:
                raise ValueError(
                    f"scenario {self.name!r} does not support fault kind "
                    f"{kind!r}; supported: {self.supported_kinds}"
                )
        self.params = merged
        self._probe: Optional[Probe] = None

    def canonical_params(self) -> Dict[str, Any]:
        """JSON-safe echo of the effective parameters (tuples -> lists)."""

        def fix(value):
            if isinstance(value, tuple):
                return [fix(v) for v in value]
            if isinstance(value, list):
                return [fix(v) for v in value]
            if isinstance(value, dict):
                return {str(k): fix(v) for k, v in value.items()}
            return value

        return {key: fix(self.params[key]) for key in sorted(self.params)}

    def probe(self) -> Probe:
        """Baseline run + derived anchors/candidates (cached)."""
        if self._probe is None:
            self._probe = self._build_probe()
        return self._probe

    def execute(self, schedule: FaultSchedule) -> Outcome:
        raise NotImplementedError

    def extension_times(self, event: FaultEvent) -> List[float]:
        """Extra anchors derived from an injected event (phase-relative
        times such as "during the reconfiguration this fault triggers")."""
        return []

    # -- shared helpers -------------------------------------------------------
    def _build_probe(self) -> Probe:
        baseline = self.execute(FaultSchedule())
        if baseline.violations:
            details = "; ".join(
                f"{v.invariant}/{v.subject}" for v in baseline.violations
            )
            raise ValueError(
                f"scenario {self.name!r} baseline violates invariants "
                f"({details}); fix the workload before searching"
            )
        anchors = self.params.get("anchors")
        if anchors is None:
            anchors = self._derive_anchors(baseline)
        anchors = tuple(sorted({float(t) for t in anchors}))
        if not anchors:
            raise ValueError(f"scenario {self.name!r} produced no anchors")
        return Probe(anchors, tuple(self._candidates()), baseline)

    def _derive_anchors(self, baseline: Outcome) -> List[float]:
        raise NotImplementedError

    def _candidates(self) -> List[Candidate]:
        raise NotImplementedError

    def _switch_links(self, topology) -> List[int]:
        switches = set(topology.switches)
        return sorted(
            link.id
            for link in topology.links
            if link.a in switches and link.b in switches
        )


def _resolve_plan(plan, hosts) -> List[Tuple[int, Tuple[int, ...], float]]:
    """Validate a send plan and map host *indices* to host ids."""
    resolved = []
    seen = set()
    for k, item in enumerate(plan):
        src_idx, dest_idxs, start = item[0], item[1], item[2]
        src = hosts[src_idx]
        dests = tuple(sorted(hosts[d] for d in dest_idxs))
        if not dests or src in dests:
            raise ValueError(f"plan entry {k}: bad destinations {dest_idxs}")
        if (src, dests) in seen:
            raise ValueError(
                f"plan entry {k}: duplicate (source, destinations) pair; "
                "the scenario ledger needs each to be unique"
            )
        seen.add((src, dests))
        resolved.append((src, dests, float(start)))
    return resolved


# ---------------------------------------------------------------------------
# Flit-level scenario
# ---------------------------------------------------------------------------


class FlitMulticastScenario(StressScenario):
    """Switch-level multicast worms on the flit simulator.

    The plan sends each message through a scheduled callback, so routes
    are computed *at injection time* against the then-current topology:
    a link death before a launch reroutes it, a death mid-worm kills it.
    That distinction is exactly the timing sensitivity the search probes.
    """

    name = "flit_multicast"
    supported_kinds = ("link_fail", "link_repair", "worm_drop")
    defaults: Dict[str, Any] = {
        "topology": "ring",  # ring | line | torus
        "size": [4],
        "hosts_per_switch": 1,
        "mode": "idle_flush",
        "restrict_to_tree": False,
        "payload": 64,
        # [source host index, [dest host indices], start tick]
        "plan": [[0, [2, 3], 10], [1, [3], 220], [3, [0, 1], 430]],
        "max_ticks": 6000,
        "quiet_limit": 600,
        "seed": 1,
        "engine": "active",
        "kinds": ["link_fail", "link_repair"],
        "link_targets": None,  # None -> every switch-switch link
        "drop_targets": None,  # None -> every plan source
        "anchors": None,  # None -> derive from the baseline run
    }

    # -- construction ---------------------------------------------------------
    def _build_topology(self):
        from repro.net import topology as topo_mod

        kind = self.params["topology"]
        size = list(self.params["size"])
        if kind == "torus":
            return topo_mod.torus(size[0], size[1])
        if kind in ("ring", "line"):
            builder = topo_mod.ring if kind == "ring" else topo_mod.line
            return builder(size[0], self.params["hosts_per_switch"])
        raise ValueError(f"unknown topology kind {kind!r}")

    # -- execution ------------------------------------------------------------
    def execute(self, schedule: FaultSchedule) -> Outcome:
        from repro.net.flitlevel.network import FlitNetwork

        p = self.params
        topology = self._build_topology()
        net = FlitNetwork(
            topology,
            mode=p["mode"],
            restrict_to_tree=p["restrict_to_tree"],
            seed=p["seed"],
            engine=p["engine"],
        )
        plan = _resolve_plan(p["plan"], topology.hosts)
        ledger: List[Dict[str, Any]] = [
            {"src": src, "dests": dests, "sent": False, "start": start,
             "unroutable": False}
            for src, dests, start in plan
        ]
        trace: List[str] = []

        def make_sender(k: int):
            entry = ledger[k]

            def sender() -> None:
                entry["sent"] = True
                src, dests = entry["src"], entry["dests"]
                try:
                    if len(dests) == 1:
                        net.send_unicast(src, dests[0], p["payload"])
                    else:
                        net.send_multicast(src, list(dests), p["payload"])
                except ValueError:
                    # No legal up/down route: faults partitioned the
                    # fabric out from under the sender.  The flit model
                    # has no repair plane, so delivery is impossible --
                    # record it as a partition violation at quiescence.
                    entry["unroutable"] = True
                    trace.append(
                        f"{net.now:6d} send message-{k} {src}->{list(dests)} "
                        "failed: no route (partitioned fabric)"
                    )
                    return
                trace.append(
                    f"{net.now:6d} send message-{k} {src}->{list(dests)}"
                )

            return sender

        # Senders are scheduled before fault events, so at an equal tick a
        # send fires first -- "mid-worm" anchors at the injection tick see
        # the worm already in the fabric.
        for k, (_, _, start) in enumerate(plan):
            net.schedule(max(int(start), 1), make_sender(k))
        for ev in schedule.events:
            net.schedule(
                int(ev.time), lambda ev=ev: self._apply(net, ledger, trace, ev)
            )

        frontier: Dict[str, Any] = {}
        if schedule.events:
            net.schedule(
                int(schedule.events[-1].time),
                lambda: frontier.update(self._snapshot(net, ledger)),
            )

        status = net.run(
            max_ticks=p["max_ticks"],
            quiet_limit=p["quiet_limit"],
            raise_on_deadlock=False,
        )
        final = self._snapshot(net, ledger)
        if not frontier:
            # The run quiesced before the last fault tick; the final state
            # *is* the frontier any later extension would depart from.
            frontier = dict(final)
        violations = self._check(net, ledger, status)
        measures = {
            "messages": [
                {
                    "injected": int(entry["start"]),
                    "delivered": self._delivery_ticks(net, entry),
                }
                for entry in ledger
            ],
            "ticks": net.now,
        }
        return Outcome(
            status=status,
            violations=tuple(sorted(violations, key=Violation.sort_key)),
            frontier_state=frontier,
            final_state=final,
            measures=measures,
            trace=tuple(trace),
        )

    def _find_record(self, net, entry):
        for record in net.records.values():
            if record.src == entry["src"] and tuple(record.dests) == entry["dests"]:
                return record
        return None

    def _delivery_ticks(self, net, entry) -> List[int]:
        record = self._find_record(net, entry)
        if record is None:
            return []
        return sorted(record.delivered_at.values())

    def _apply(self, net, ledger, trace, ev: FaultEvent) -> None:
        topology = net.topology
        if ev.kind == "link_fail":
            if topology.link_alive(ev.target):
                lost = net.fail_link(ev.target)
                trace.append(
                    f"{net.now:6d} fault link_fail link={ev.target} "
                    f"lost_worms={len(lost)}"
                )
            else:
                trace.append(
                    f"{net.now:6d} fault link_fail link={ev.target} (no-op: dead)"
                )
        elif ev.kind == "link_repair":
            if topology.link_alive(ev.target):
                trace.append(
                    f"{net.now:6d} fault link_repair link={ev.target} "
                    "(no-op: alive)"
                )
            else:
                net.repair_link(ev.target)
                trace.append(f"{net.now:6d} fault link_repair link={ev.target}")
        elif ev.kind == "worm_drop":
            dropped = 0
            for k, entry in enumerate(ledger):
                if dropped >= ev.param:
                    break
                if ev.target not in (-1, entry["src"]):
                    continue
                record = self._find_record(net, entry)
                if record is not None and not record.fully_delivered:
                    net.lose_worm(record.wid, reason="stress")
                    trace.append(
                        f"{net.now:6d} fault worm_drop message-{k} "
                        f"src={entry['src']}"
                    )
                    dropped += 1
            if dropped == 0:
                trace.append(
                    f"{net.now:6d} fault worm_drop src={ev.target} "
                    "(no-op: nothing in flight)"
                )
        else:  # pragma: no cover - kinds validated at construction
            raise ValueError(
                f"scenario {self.name!r} cannot apply fault kind {ev.kind!r}"
            )

    # -- state + oracle -------------------------------------------------------
    def _snapshot(self, net, ledger) -> Dict[str, Any]:
        messages = []
        for entry in ledger:
            record = self._find_record(net, entry)
            if record is None:
                messages.append(
                    {
                        "sent": entry["sent"],
                        "unroutable": entry["unroutable"],
                        "lost": entry["sent"] and not entry["unroutable"],
                        "delivered": [],
                        "pending": False,
                        "retx": 0,
                    }
                )
            else:
                messages.append(
                    {
                        "sent": True,
                        "unroutable": False,
                        "lost": False,
                        "delivered": sorted(record.delivered_at),
                        "pending": not record.fully_delivered,
                        "retx": record.retransmissions,
                    }
                )
        return {
            "dead_links": sorted(net.topology.dead_links),
            "messages": messages,
            "worms_lost": net.worms_lost,
            "flushes": net.flushes,
        }

    def _check(self, net, ledger, status: str) -> List[Violation]:
        violations: List[Violation] = []
        if status == "deadlock":
            stuck = sorted(
                k
                for k, entry in enumerate(ledger)
                if self._find_record(net, entry) is not None
                and not self._find_record(net, entry).fully_delivered
            )
            violations.append(
                Violation(
                    "deadlock",
                    "network",
                    f"no progress at quiescence; stuck messages {stuck}",
                )
            )
        for k, entry in enumerate(ledger):
            subject = f"message-{k}"
            record = self._find_record(net, entry)
            if not entry["sent"]:
                violations.append(
                    Violation(
                        "delivery",
                        subject,
                        "never injected before the horizon",
                    )
                )
                continue
            if entry["unroutable"]:
                violations.append(
                    Violation(
                        "partition",
                        subject,
                        "no route left at send time; fabric partitioned",
                    )
                )
                continue
            if record is None:
                violations.append(
                    Violation(
                        "delivery",
                        subject,
                        "worm lost in the fabric and never retransmitted",
                    )
                )
                continue
            delivered = set(record.delivered_at)
            missing = sorted(set(entry["dests"]) - delivered)
            if missing:
                violations.append(
                    Violation(
                        "delivery",
                        subject,
                        f"never delivered to hosts {missing}",
                    )
                )
            extra = sorted(delivered - set(entry["dests"]))
            if extra:
                violations.append(
                    Violation(
                        "phantom",
                        subject,
                        f"delivered to non-members {extra}",
                    )
                )
        return violations

    # -- search inputs --------------------------------------------------------
    def _derive_anchors(self, baseline: Outcome) -> List[float]:
        anchors: List[float] = []
        for info in baseline.measures["messages"]:
            start = info["injected"]
            anchors.append(float(start))
            if info["delivered"]:
                done = max(info["delivered"])
                anchors.append(float((start + done) // 2))  # mid-worm
                anchors.append(float(done - 1))  # just before completion
        return anchors

    def _candidates(self) -> List[Candidate]:
        topology = self._build_topology()
        p = self.params
        link_targets = p["link_targets"]
        if link_targets is None:
            link_targets = self._switch_links(topology)
        hosts = topology.hosts
        drop_targets = p["drop_targets"]
        if drop_targets is None:
            drop_targets = sorted({hosts[item[0]] for item in p["plan"]})
        out: List[Candidate] = []
        for kind in p["kinds"]:
            if kind in ("link_fail", "link_repair"):
                out.extend(Candidate(kind, t) for t in link_targets)
            elif kind == "worm_drop":
                out.extend(Candidate(kind, t) for t in drop_targets)
        return out

    def extension_times(self, event: FaultEvent) -> List[float]:
        lo, hi = 200, 400  # FlitNetwork flush_backoff default
        return [
            float(int(event.time) + 1),
            float(int(event.time) + lo),  # flush retransmission window
            float(int(event.time) + (lo + hi) // 2),
        ]


# ---------------------------------------------------------------------------
# Worm-level scenario with recovery
# ---------------------------------------------------------------------------


class WormRecoveryScenario(StressScenario):
    """Host-adapter multicast + Autonet-style recovery on the worm model.

    Faults flow through the real :class:`FaultInjector`, the
    :class:`RecoveryManager` reconfigures routing around them, and the
    oracle layers reconvergence bounds and post-quiescence routing safety
    (reachability + deadlock-freedom) on top of delivery/phantom checks.
    Delivery is demanded only of *live* expected members; a send whose
    origin is dead or already spliced out of the group at send time is
    skipped (the message never existed).
    """

    name = "worm_recovery"
    supported_kinds = (
        "link_fail",
        "link_repair",
        "node_fail",
        "node_repair",
        "worm_drop",
        "recv_fault",
    )
    defaults: Dict[str, Any] = {
        "topology": "torus",
        "size": [3, 3],
        "scheme": "hamiltonian",
        "group": None,  # None -> every host; else host indices
        "length": 400,
        # [origin host index, send time]
        "plan": [[0, 10.0], [4, 4000.0], [8, 8000.0]],
        "horizon": 15000.0,
        "detection_delay": 100.0,
        "cost_per_switch": 10.0,
        "reconvergence_bound": None,  # None -> detection + cost * switches
        "kinds": ["node_fail", "node_repair"],
        "link_targets": None,  # None -> every switch-switch link
        "node_targets": None,  # None -> every group member host
        "drop_targets": None,  # None -> every plan origin
        "recv_targets": None,  # None -> every plan origin
        "anchors": None,
    }

    def _build_topology(self):
        from repro.net import topology as topo_mod

        kind = self.params["topology"]
        size = list(self.params["size"])
        if kind == "torus":
            return topo_mod.torus(size[0], size[1])
        if kind == "mesh":
            return topo_mod.mesh(size[0], size[1])
        if kind in ("ring", "line"):
            builder = topo_mod.ring if kind == "ring" else topo_mod.line
            return builder(size[0])
        raise ValueError(f"unknown topology kind {kind!r}")

    def _bound(self, topology) -> float:
        bound = self.params["reconvergence_bound"]
        if bound is None:
            bound = self.params["detection_delay"] + self.params[
                "cost_per_switch"
            ] * len(topology.switches)
        return float(bound)

    def execute(self, schedule: FaultSchedule) -> Outcome:
        from repro.core.adapters import MulticastEngine, Scheme
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import RecoveryConfig, RecoveryManager
        from repro.net.wormnet import WormholeNetwork
        from repro.sim.engine import Simulator

        p = self.params
        topology = self._build_topology()
        sim = Simulator()
        net = WormholeNetwork(sim, topology)
        engine = MulticastEngine(sim, net)
        hosts = topology.hosts
        members = (
            list(hosts)
            if p["group"] is None
            else [hosts[i] for i in p["group"]]
        )
        engine.create_group(1, members, Scheme(p["scheme"]))
        manager = RecoveryManager(
            sim,
            net,
            engine=engine,
            config=RecoveryConfig(
                detection_delay=p["detection_delay"],
                cost_per_switch=p["cost_per_switch"],
            ),
        )
        injector = FaultInjector(sim, net, schedule)
        injector.start()

        ledger: List[Dict[str, Any]] = [
            {"origin": hosts[item[0]], "time": float(item[1]), "message": None,
             "skipped": False}
            for item in p["plan"]
        ]
        trace: List[str] = []

        def make_sender(k: int):
            entry = ledger[k]

            def sender() -> None:
                origin = entry["origin"]
                group = engine.group_state(1).group
                if not topology.node_alive(origin) or origin not in group:
                    entry["skipped"] = True
                    trace.append(
                        f"{sim.now:10.3f} skip message-{k}: origin {origin} "
                        "dead or spliced out of group"
                    )
                    return
                entry["message"] = engine.multicast(origin, 1, p["length"])
                trace.append(
                    f"{sim.now:10.3f} send message-{k} origin={origin}"
                )

            return sender

        for k, entry in enumerate(ledger):
            sim.schedule_call(entry["time"], make_sender(k))

        frontier: Dict[str, Any] = {}
        if schedule.events:
            capture_at = schedule.events[-1].time + 0.5
            if capture_at < p["horizon"]:
                sim.schedule_call(
                    capture_at,
                    lambda: frontier.update(
                        self._snapshot(net, engine, manager, ledger)
                    ),
                )
        for ev in schedule.events:
            trace.append(f"{ev.time:10.3f} fault {ev.canonical()}")

        sim.run(until=p["horizon"])
        final = self._snapshot(net, engine, manager, ledger)
        if not frontier:
            frontier = dict(final)
        violations = self._check(net, engine, manager, ledger, topology)
        measures = {
            "messages": [
                {
                    "injected": entry["time"],
                    "delivered": sorted(
                        round(t, 6)
                        for t in entry["message"].deliveries.values()
                    )
                    if entry["message"] is not None
                    else [],
                }
                for entry in ledger
            ],
        }
        return Outcome(
            status="quiesced",
            violations=tuple(sorted(violations, key=Violation.sort_key)),
            frontier_state=frontier,
            final_state=final,
            measures=measures,
            trace=tuple(trace),
        )

    def _snapshot(self, net, engine, manager, ledger) -> Dict[str, Any]:
        topology = net.topology
        messages = []
        for entry in ledger:
            message = entry["message"]
            if message is None:
                messages.append(
                    {"sent": False, "skipped": entry["skipped"],
                     "delivered": [], "complete": False}
                )
            else:
                messages.append(
                    {
                        "sent": True,
                        "skipped": False,
                        "delivered": sorted(message.deliveries),
                        "complete": message.complete,
                    }
                )
        return {
            "dead_links": sorted(topology.dead_links),
            "dead_nodes": sorted(topology.dead_nodes),
            "group": sorted(engine.group_state(1).group.members),
            "messages": messages,
            "reconfigurations": manager.reconfigurations,
            "partitions": manager.partitions_seen,
            "orphaned_worms": net.orphaned_worms,
        }

    def _check(self, net, engine, manager, ledger, topology) -> List[Violation]:
        violations: List[Violation] = []
        live = set(topology.live_hosts())
        for k, entry in enumerate(ledger):
            subject = f"message-{k}"
            message = entry["message"]
            if message is None:
                continue  # skipped sends never existed
            delivered = set(message.deliveries)
            missing = sorted((set(message.expected) & live) - delivered)
            if missing:
                violations.append(
                    Violation(
                        "delivery",
                        subject,
                        f"live members {missing} never received the message",
                    )
                )
            extra = sorted(delivered - set(message.expected))
            if extra:
                violations.append(
                    Violation(
                        "phantom",
                        subject,
                        f"delivered to non-members {extra}",
                    )
                )
        bound = self._bound(topology)
        for i, record in enumerate(manager.records):
            rt = record.reconvergence_time
            if rt is not None and rt > bound:
                violations.append(
                    Violation(
                        "reconvergence",
                        f"episode-{i}",
                        f"{record.cause} of {record.target}: reconverged in "
                        f"{rt:.1f} > bound {bound:.1f}",
                    )
                )
        violations.extend(self._routing_safety(net))
        return violations

    def _routing_safety(self, net) -> List[Violation]:
        from repro.net.updown import check_deadlock_free

        try:
            acyclic = check_deadlock_free(net.routing)
        except ValueError:
            return [
                Violation(
                    "partition",
                    "routing",
                    "live hosts are not mutually reachable after quiescence",
                )
            ]
        if not acyclic:
            return [
                Violation(
                    "deadlock_free",
                    "routing",
                    "channel dependency graph has a cycle after recovery",
                )
            ]
        return []

    # -- search inputs --------------------------------------------------------
    def _derive_anchors(self, baseline: Outcome) -> List[float]:
        # The worm model reroutes new worms around faults instantly, so
        # the interesting injection points are the *detection windows*:
        # a fault less than ``detection_delay`` before a member's
        # forwarding turn (its delivery time) breaks the forwarding
        # structure before the recovery manager can splice around it.
        half_detect = self.params["detection_delay"] / 2.0
        anchors: List[float] = []
        for info in baseline.measures["messages"]:
            start = info["injected"]
            anchors.append(round(start + 1.0, 3))
            for done in info["delivered"]:
                anchors.append(round(done - half_detect, 3))
            if info["delivered"]:
                anchors.append(round(max(info["delivered"]) + 5.0, 3))
        return anchors

    def _candidates(self) -> List[Candidate]:
        topology = self._build_topology()
        p = self.params
        hosts = topology.hosts
        members = (
            list(hosts)
            if p["group"] is None
            else [hosts[i] for i in p["group"]]
        )
        origins = sorted({hosts[item[0]] for item in p["plan"]})
        link_targets = p["link_targets"]
        if link_targets is None:
            link_targets = self._switch_links(topology)
        node_targets = p["node_targets"]
        if node_targets is None:
            node_targets = sorted(members)
        out: List[Candidate] = []
        for kind in p["kinds"]:
            if kind in ("link_fail", "link_repair"):
                out.extend(Candidate(kind, t) for t in link_targets)
            elif kind in ("node_fail", "node_repair"):
                out.extend(Candidate(kind, t) for t in node_targets)
            elif kind == "worm_drop":
                targets = p["drop_targets"] or origins
                out.extend(Candidate(kind, t) for t in targets)
            elif kind == "recv_fault":
                targets = p["recv_targets"] or origins
                out.extend(Candidate(kind, t) for t in targets)
        return out

    def extension_times(self, event: FaultEvent) -> List[float]:
        d = self.params["detection_delay"]
        cost = self.params["cost_per_switch"]
        switches = len(self._build_topology().switches)
        return [
            round(event.time + d / 2.0, 3),  # during detection window
            round(event.time + d + 1.0, 3),  # reconfiguration just started
            round(event.time + d + cost * switches / 2.0, 3),  # mid-reconvergence
        ]


SCENARIOS = {
    FlitMulticastScenario.name: FlitMulticastScenario,
    WormRecoveryScenario.name: WormRecoveryScenario,
}


def build_scenario(name: str, params: Optional[Mapping[str, Any]] = None) -> StressScenario:
    """Instantiate a registered scenario by name."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](params)

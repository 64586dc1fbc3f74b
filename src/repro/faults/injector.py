"""The fault injector: replays a schedule against a live network.

One simulation process walks the schedule in time order and applies each
event through the liveness hooks grown on :class:`~repro.net.topology.Topology`
and :class:`~repro.net.wormnet.WormholeNetwork`.  Every applied event is
appended to :attr:`FaultInjector.log` in a canonical textual form, so two
runs of the same (schedule, seed) pair produce byte-identical logs -- the
reproducibility contract the fault campaigns assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.worm import Worm
from repro.net.wormnet import WormholeNetwork
from repro.sim.engine import Simulator


class FaultInjector:
    """Applies a :class:`~repro.faults.schedule.FaultSchedule` to a network.

    Reconfiguration is *not* the injector's job: it only breaks (and fixes)
    components.  Pair it with a
    :class:`~repro.faults.recovery.RecoveryManager` listening on the same
    topology for the failure-driven reaction.
    """

    def __init__(
        self,
        sim: Simulator,
        net: WormholeNetwork,
        schedule: FaultSchedule,
    ) -> None:
        self.sim = sim
        self.net = net
        self.schedule = schedule
        #: Canonical per-event log lines, appended in application order.
        self.log: List[str] = []
        self.applied = 0
        #: source host id (-1 = any) -> remaining forced worm drops.
        self._drop_budget: Dict[int, int] = {}
        if net.drop_filter is not None:
            raise ValueError(
                "network already has a drop_filter; the injector needs it"
            )
        net.drop_filter = self._should_drop
        self._process = None

    def start(self):
        """Launch the replay process (idempotent).

        Raises :class:`ValueError` if the schedule begins strictly in the
        past: an event before ``sim.now`` can no longer be applied at its
        scheduled time, and silently applying it "now" would break the
        byte-reproducibility contract (the log would disagree with the
        schedule).  Mirrors the negative-delay guard in
        :meth:`repro.sim.engine.Simulator.schedule_entry`.
        """
        if self._process is None:
            events = self.schedule.events
            if events and events[0].time < self.sim.now:
                raise ValueError(
                    f"fault schedule starts at t={events[0].time}, which is "
                    f"in the past (sim.now={self.sim.now}); start the "
                    "injector before its first event"
                )
            self._process = self.sim.process(self._run(), name="fault-injector")
        return self._process

    # -- replay -----------------------------------------------------------------
    def _run(self):
        for event in self.schedule:
            if event.time > self.sim.now:
                yield self.sim.timeout(event.time - self.sim.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        topology = self.net.topology
        if event.kind == "link_fail":
            topology.fail_link(event.target)
        elif event.kind == "link_repair":
            topology.repair_link(event.target)
        elif event.kind == "node_fail":
            topology.fail_node(event.target)
        elif event.kind == "node_repair":
            topology.repair_node(event.target)
        elif event.kind == "worm_drop":
            self._drop_budget[event.target] = (
                self._drop_budget.get(event.target, 0) + event.param
            )
        elif event.kind == "recv_fault":
            self.net.inject_receive_fault(event.target, event.param)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")
        self.applied += 1
        self.log.append(f"{self.sim.now:.6f} {event.canonical()}")
        obs = self.net.obs
        if obs is not None:
            obs.fault_applied(self.sim.now, event.kind, event.target)

    # -- worm-drop filter ---------------------------------------------------------
    def _should_drop(self, worm: Worm) -> bool:
        for key in (worm.source, -1):
            budget = self._drop_budget.get(key, 0)
            if budget > 0:
                if budget == 1:
                    del self._drop_budget[key]
                else:
                    self._drop_budget[key] = budget - 1
                return True
        return False

    def pending_drops(self, source: Optional[int] = None) -> int:
        """Remaining armed worm drops (for ``source``, or in total)."""
        if source is not None:
            return self._drop_budget.get(source, 0)
        return sum(self._drop_budget.values())

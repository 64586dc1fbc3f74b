"""Switch-fabric multicasting (Section 3): scheme selection and scenarios.

The mechanics live in :mod:`repro.net.flitlevel`; this module names the
paper's schemes, builds configured networks, and packages the Figure 3
deadlock scenario used by the tests and the demo benchmarks.

Schemes
-------
* ``BASE`` -- tree-encoded multicast in the fabric, IDLE fills on blocked
  branches, no extra protection.  Deadlock-prone once crosslinks are used
  (Figure 3).
* ``S1_TREE_RESTRICTED`` -- all worms (unicast too) confined to the
  up/down spanning tree; crosslinks sit unused, flow-control cycles cannot
  form.
* ``S2_INTERRUPT`` -- multicasts release non-blocked branches by
  interrupting transmission (fragments reassembled at the destinations);
  unicast routing stays unrestricted.
* ``S3_IDLE_FLUSH`` -- ports transmitting IDLE for a threshold interval
  are flagged multicast-IDLE; a unicast blocked by a flagged port is
  flushed (backward reset) and retransmitted after a random timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.topology import Topology, fig3_topology
from repro.net.updown import UpDownRouting

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flitlevel import FlitNetwork


class SwitchScheme(str, Enum):
    """The Section 3 design points."""

    BASE = "base"
    S1_TREE_RESTRICTED = "s1_tree_restricted"
    S2_INTERRUPT = "s2_interrupt"
    S3_IDLE_FLUSH = "s3_idle_flush"


def _scheme_config(scheme: "SwitchScheme"):
    # Imported lazily: repro.net.flitlevel itself uses
    # repro.core.route_encoding, so a module-level import would be cyclic.
    from repro.net.flitlevel import MulticastMode

    return {
        SwitchScheme.BASE: (MulticastMode.IDLE_FILL, False),
        SwitchScheme.S1_TREE_RESTRICTED: (MulticastMode.IDLE_FILL, True),
        SwitchScheme.S2_INTERRUPT: (MulticastMode.INTERRUPT, False),
        SwitchScheme.S3_IDLE_FLUSH: (MulticastMode.IDLE_FLUSH, False),
    }[SwitchScheme(scheme)]


def build_switch_multicast_network(
    topology: Topology,
    scheme: SwitchScheme = SwitchScheme.BASE,
    routing: Optional[UpDownRouting] = None,
    **network_kwargs,
) -> "FlitNetwork":
    """A flit-level network configured for one of the Section 3 schemes."""
    from repro.net.flitlevel import FlitNetwork

    mode, restrict = _scheme_config(scheme)
    return FlitNetwork(
        topology,
        routing=routing,
        mode=mode,
        restrict_to_tree=restrict,
        **network_kwargs,
    )


@dataclass
class Fig3Outcome:
    """Result of one Figure 3 scenario run."""

    scheme: SwitchScheme
    mc_delay: int
    uc_delay: int
    status: str                      # delivered / deadlock / timeout
    ticks: int
    flushes: int
    multicast_delivered: bool
    unicast_delivered: bool


def run_fig3_scenario(
    scheme: SwitchScheme,
    mc_delay: int = 0,
    uc_delay: int = 5,
    worm_bytes: int = 400,
    max_ticks: int = 100_000,
    seed: int = 3,
    engine: str = "active",
    lanes: int = 1,
    vc_policy: str = "first_free",
    obs=None,
) -> Fig3Outcome:
    """Reproduce Figure 3: a two-branch multicast races a unicast whose
    route crosses the D-E crosslink; with the base scheme certain offsets
    deadlock, and each protection scheme must deliver both worms.

    ``engine`` selects the flit-engine implementation (``"active"`` or
    ``"dense"``); both produce byte-identical outcomes -- see
    :mod:`repro.net.flitlevel.crosscheck`.  ``lanes`` adds virtual
    channels per fabric link: at ``lanes >= 2`` the blocked worm's rival
    takes a free lane, so the base scheme's Figure 3 hold-and-wait cycle
    cannot close.  ``obs`` optionally attaches an
    :class:`~repro.obs.Observability` bundle (traced runs stay
    byte-identical to untraced ones).  Start delays 0 and 1 both inject
    on tick 1, so they give the same run (see
    :meth:`FlitNetwork._inject <repro.net.flitlevel.FlitNetwork._inject>`)."""
    topology = fig3_topology()
    names = {topology.node(h).name: h for h in topology.hosts}
    net = build_switch_multicast_network(
        topology, scheme, seed=seed, engine=engine, obs=obs,
        lanes=lanes, vc_policy=vc_policy,
    )
    mc = net.send_multicast(
        names["srcM"],
        [names["host_b"], names["host_c"]],
        payload_bytes=worm_bytes,
        start_delay=mc_delay,
    )
    uc = net.send_unicast(
        names["host_y"], names["host_b"], payload_bytes=worm_bytes,
        start_delay=uc_delay,
    )
    status = net.run(max_ticks=max_ticks, quiet_limit=3_000, raise_on_deadlock=False)
    mc_record = net.records.get(mc)
    # A flushed unicast is superseded by its retransmission record, so
    # delivery is checked by source rather than by the original worm id.
    uc_done = any(
        r.fully_delivered for r in net.records.values() if r.src == names["host_y"]
    )
    if obs is not None:
        obs.snapshot_flitnet(net)
    net.close()
    return Fig3Outcome(
        scheme=SwitchScheme(scheme),
        mc_delay=mc_delay,
        uc_delay=uc_delay,
        status=status,
        ticks=net.now,
        flushes=net.flushes,
        multicast_delivered=bool(mc_record and mc_record.fully_delivered),
        unicast_delivered=uc_done,
    )


def sweep_fig3_offsets(
    scheme: SwitchScheme,
    mc_delays: range = range(0, 10),
    uc_delays: range = range(0, 10),
    max_ticks: int = 100_000,
    **kwargs,
) -> List[Fig3Outcome]:
    """Run the Figure 3 scenario over a grid of injection offsets.

    Outcomes are in row-major order (``mc_delays`` outer, ``uc_delays``
    inner), each equal to ``run_fig3_scenario(scheme, mc_delay,
    uc_delay, max_ticks=max_ticks, **kwargs)``.  Only the distinct races
    are run.  A fresh network reads its clock only through differences
    (wire due times, scheduled actions, the stall window, IDLE runs) and
    draws its flush backoffs in event order, so delaying both worms by
    ``s`` ticks replays the same run ``s`` ticks later.  Two things break
    that symmetry:

    * a start delay below 1 acts as 1: a worm queued at construction and
      one injected at the top of tick 1 are both first ticked in tick 1;
    * ``max_ticks`` is an absolute budget.

    So cell ``(m, u)``, with ``m' = max(m, 1)``, ``u' = max(u, 1)`` and
    ``s = min(m', u') - 1``, is the run at ``(m' - s, u' - s)`` with its
    ticks raised by ``s``.  Where that run timed out, or the shifted run
    would reach the budget, a shifted cell is run directly.  The runs
    kept for the derivation live only as long as one call.  ``obs``, if
    given, sees only the runs made.
    """
    races: Dict[Tuple[int, int], Fig3Outcome] = {}
    outcomes = []
    for mc_delay in mc_delays:
        for uc_delay in uc_delays:
            mc, uc = max(mc_delay, 1), max(uc_delay, 1)
            shift = min(mc, uc) - 1
            key = (mc - shift, uc - shift)
            race = races.get(key)
            if race is None:
                race = races[key] = run_fig3_scenario(
                    scheme, *key, max_ticks=max_ticks, **kwargs
                )
            if not shift or (
                race.status != "timeout" and race.ticks + shift < max_ticks
            ):
                outcome = replace(
                    race, mc_delay=mc_delay, uc_delay=uc_delay,
                    ticks=race.ticks + shift,
                )
            else:
                outcome = run_fig3_scenario(
                    scheme, mc_delay, uc_delay, max_ticks=max_ticks, **kwargs
                )
            outcomes.append(outcome)
    return outcomes


def deadlock_rate(outcomes: List[Fig3Outcome]) -> float:
    """Fraction of runs that did not deliver everything."""
    if not outcomes:
        return 0.0
    bad = sum(1 for o in outcomes if o.status != "delivered")
    return bad / len(outcomes)

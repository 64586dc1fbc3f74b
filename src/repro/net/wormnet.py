"""Event-driven, worm-level wormhole network.

This is the engine behind the Figure 10/11 experiments.  It models wormhole
dynamics at the *worm* level:

* the head acquires the directed channels of its source route hop by hop;
* while the head is blocked waiting for a channel, every channel already
  acquired stays held (backpressure: the worm's body backs up into slack
  buffers, links carry no other traffic);
* once the head reaches the destination adapter the body streams at link
  rate (1 byte per byte-time), so the tail arrives ``length`` byte-times
  after the head;
* each channel is released when the worm's tail passes it, so short worms on
  long links (the 1000-byte-time propagation delays of Figure 11) do not
  hold whole paths needlessly.

Blocked worms queue per channel in arrival order, the worm-level equivalent
of the crossbar's round-robin service of blocked worms.  Per-byte slack
buffer/STOP/GO behaviour is modelled exactly in :mod:`repro.net.flitlevel`;
at the loads and worm sizes of the paper's experiments the worm-level
abstraction preserves the contention behaviour that dominates latency.

Each worm's trip is a small callback state machine, :class:`_WormRun`,
that is its own event-queue entry (``Simulator.schedule_entry``): an
urgent bootstrap at injection, then per hop *acquire* (granted on the
spot, or queued on the :class:`Channel`, which enqueues the run when it
hands the channel over) and *cross* (one self-enqueue ``switch_latency +
prop_delay`` later), and finally one self-enqueue ``length`` later that
delivers, drops or orphans the worm.  Every crossed channel gets a
:class:`_TailRelease` entry that re-enqueues itself until the tail has
passed.  This is the worm-level hot path: no generator, Process, Timeout
or resource Request is allocated per worm or per hop, while every entry
lands at the instant, offset and priority a generator process waiting on
resource requests would use, so same-instant order and all results are
those of a process-per-worm model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.events import URGENT, Event
from repro.sim.monitor import TallyStat
from repro.net.topology import Link, Topology
from repro.net.updown import UpDownRouting
from repro.net.worm import Worm

ReceiverFn = Callable[[Worm, "Transfer"], None]


class Channel:
    """A directed channel over one physical link.

    One worm holds it at a time; worms that find it busy queue in arrival
    order and are handed the channel on release.
    """

    __slots__ = (
        "sim",
        "link",
        "src",
        "dst",
        "prop_delay",
        "holder",
        "waiters",
        "busy_time",
        "acquisitions",
        "failed",
        "_busy_since",
        "_stats_start",
    )

    def __init__(self, sim: Simulator, link: Link, src: int, dst: int) -> None:
        self.sim = sim
        self.link = link
        self.src = src
        self.dst = dst
        self.prop_delay = link.prop_delay
        #: The worm run holding the channel (None while idle) and the runs
        #: queued for it, first come first served.
        self.holder: Optional[_WormRun] = None
        self.waiters: Deque[_WormRun] = deque()
        self.busy_time = 0.0
        self.acquisitions = 0
        #: True while the underlying link (or an endpoint) is down; worms
        #: that touch a failed channel are flushed out of the network.
        self.failed = False
        self._busy_since = 0.0
        self._stats_start = 0.0

    @property
    def busy(self) -> bool:
        return self.holder is not None

    def acquire(self, run: "_WormRun") -> bool:
        """Claim the channel for ``run``: True if granted on the spot,
        False if ``run`` queued (it is enqueued when its turn comes)."""
        if self.holder is None:
            self.holder = run
            return True
        self.waiters.append(run)
        return False

    def on_granted(self, now: float) -> None:
        """Bookkeeping hook: channel became busy at ``now``."""
        self.acquisitions += 1
        self._busy_since = now

    def release(self, now: float) -> None:
        """The holder lets go; the longest waiter gets the channel and is
        enqueued at this instant, behind the entries already due."""
        self.busy_time += now - self._busy_since
        waiters = self.waiters
        if waiters:
            self.holder = nxt = waiters.popleft()
            self.sim.schedule_entry(nxt)
        else:
            self.holder = None

    def utilization(self, now: float) -> float:
        """Fraction of time busy since the last stats reset."""
        window = now - self._stats_start
        busy = self.busy_time
        if self.busy:
            busy += now - self._busy_since
        return busy / window if window > 0 else 0.0

    def reset_stats(self, now: float) -> None:
        self.busy_time = 0.0
        self.acquisitions = 0
        self._stats_start = now
        if self.busy:
            self._busy_since = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Channel {self.src}->{self.dst} busy={self.busy}>"


class Transfer:
    """Handle for one worm's trip through the network.

    Exposes two waitable events, both valueless (a value pointing back at
    the transfer would make every transfer a reference cycle):

    * :attr:`head_arrived` -- the worm's head reached the destination
      adapter (used for cut-through forwarding decisions);
    * :attr:`completed` -- the tail arrived; the worm is fully received.
    """

    __slots__ = (
        "worm",
        "head_arrived",
        "completed",
        "start_time",
        "head_time",
        "finish_time",
        "blocked_time",
        "blocked_hops",
        "dropped",
        "_blocked_since",
    )

    def __init__(self, sim: Simulator, worm: Worm) -> None:
        self.worm = worm
        self.head_arrived: Event = sim.event()
        self.completed: Event = sim.event()
        self.start_time = sim.now
        self.head_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.blocked_time = 0.0
        self.blocked_hops = 0
        #: True when the worm was flushed mid-network (loss injection).
        self.dropped = False
        self._blocked_since: Optional[float] = None

    @property
    def latency(self) -> float:
        """Injection-to-tail-delivery time of this hop."""
        if self.finish_time is None:
            raise RuntimeError("transfer not complete")
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Transfer {self.worm!r} done={self.finish_time is not None}>"


#: Steps of a :class:`_WormRun`: what its next ``_process()`` does.
_START, _GRANTED, _CROSSED, _DELIVERED, _DROPPED, _ORPHANED = range(6)


class _WormRun:
    """One worm's trip through the network, as a callback state machine.

    The run is its own queue entry: each timed step re-enqueues it with
    ``Simulator.schedule_entry`` and :meth:`_process` continues at
    ``step``.  A hop whose channel is busy queues the run on the channel,
    which enqueues it when it hands the channel over.  Every enqueue
    happens at the instant, offset and priority a generator process
    waiting on a resource request would use (bootstrap urgent at
    injection, the grant at the release instant, one enqueue per hop
    crossing and one for the tail), so same-instant order is unchanged.

    ``channels`` is ``None`` when the worm has no route (a dead endpoint):
    it orphans straight from the bootstrap.
    """

    __slots__ = (
        "net", "sim", "transfer", "channels", "hop", "drop_after", "step",
    )

    def __init__(
        self,
        net: "WormholeNetwork",
        transfer: Transfer,
        channels: Optional[Tuple[Channel, ...]],
        forced_drop: bool,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.transfer = transfer
        self.channels = channels
        self.hop = 0
        #: Hop count after which the worm is flushed (None: never).
        self.drop_after: Optional[int] = 1 if forced_drop else None
        self.step = _START
        self.sim.schedule_entry(self, 0.0, URGENT)

    def _process(self) -> None:
        step = self.step
        if step == _CROSSED:
            self._crossed()
        elif step == _GRANTED:
            # A channel this run queued for was handed over.
            transfer = self.transfer
            transfer.blocked_time += self.sim.now - transfer._blocked_since
            transfer._blocked_since = None
            self._granted()
        elif step == _START:
            self._start()
        else:
            self._finish(step)

    # -- steps -----------------------------------------------------------------
    def _start(self) -> None:
        channels = self.channels
        if channels is None:
            self._orphan()
            return
        net = self.net
        if self.drop_after is None and net.loss_rate:
            stream = net._loss_stream
            if stream.bernoulli(net.loss_rate):
                self.drop_after = stream.randint(1, len(channels))
        self._acquire()

    def _acquire(self) -> None:
        ch = self.channels[self.hop]
        if ch.failed:
            self._orphan()
            return
        if ch.acquire(self):
            self._granted()
            return
        transfer = self.transfer
        transfer.blocked_hops += 1
        transfer._blocked_since = self.sim.now
        self.step = _GRANTED

    def _granted(self) -> None:
        sim = self.sim
        ch = self.channels[self.hop]
        ch.on_granted(sim.now)
        if ch.failed:
            # The link died while we held or awaited it: the worm is cut.
            ch.release(sim.now)
            self._orphan()
            return
        self.step = _CROSSED
        sim.schedule_entry(self, self.net.switch_latency + ch.prop_delay)

    def _crossed(self) -> None:
        sim = self.sim
        transfer = self.transfer
        # The tail passes this channel ``length`` byte-times after the head
        # crossed it, plus any stream stall the head suffers while blocked
        # downstream (tracked in transfer.blocked_time).
        _TailRelease(sim, transfer, self.channels[self.hop], sim.now)
        self.hop = hop = self.hop + 1
        if hop == self.drop_after:
            # The worm is flushed out of the network here: the sender still
            # transmits its tail (it learns nothing), but no receiver ever
            # sees the worm.
            transfer.dropped = True
            self.step = _DROPPED
            sim.schedule_entry(self, transfer.worm.length)
        elif hop < len(self.channels):
            self._acquire()
        else:
            self._arrive()

    def _arrive(self) -> None:
        net = self.net
        transfer = self.transfer
        worm = transfer.worm
        dest = worm.dest
        pending = net._recv_faults.get(dest, 0)
        if pending:
            # Adapter-buffer fault: the worm drains but is discarded.
            if pending == 1:
                del net._recv_faults[dest]
            else:
                net._recv_faults[dest] = pending - 1
            self._orphan()
            return
        if not net.topology.node_alive(dest):
            # The destination host crashed: nobody is listening.
            self._orphan()
            return
        now = self.sim.now
        transfer.head_time = now
        if net.obs is not None:
            net.obs.worm_head(now, worm.wid, dest)
        watcher = net._head_watchers.get(dest)
        transfer.head_arrived.succeed()
        if watcher is not None:
            watcher(worm, transfer)
        self.step = _DELIVERED
        self.sim.schedule_entry(self, worm.length)

    def _orphan(self) -> None:
        """Flush a worm that hit a failed component: the sender still
        transmits the tail (it learns nothing at the network level), but no
        receiver ever sees the worm."""
        self.transfer.dropped = True
        self.step = _ORPHANED
        self.sim.schedule_entry(self, self.transfer.worm.length)

    def _finish(self, step: int) -> None:
        """The tail has drained: deliver, or account the lost worm."""
        net = self.net
        now = self.sim.now
        transfer = self.transfer
        worm = transfer.worm
        transfer.finish_time = now
        obs = net.obs
        if step == _DELIVERED:
            net.delivered_worms += 1
            net.delivered_bytes += worm.length
            net.hop_latency.add(transfer.latency)
            net.block_time.add(transfer.blocked_time)
            if obs is not None:
                obs.worm_delivered(
                    now, worm.wid, transfer.latency,
                    transfer.blocked_time, worm.length,
                )
            transfer.completed.succeed()
            receiver = net._receivers.get(worm.dest)
            if receiver is not None:
                receiver(worm, transfer)
            return
        if step == _DROPPED:
            net.dropped_worms += 1
            reason = "dropped"
        else:
            net.orphaned_worms += 1
            reason = "orphaned"
        if obs is not None:
            obs.worm_dropped(now, worm.wid, reason)
        transfer.completed.succeed()


class _TailRelease:
    """Releases a channel once the worm's tail has passed it.

    Base deadline is ``cross + length`` (continuous streaming); every
    byte-time the head later spends blocked stalls the stream, so on each
    firing the deadline is re-evaluated against the transfer's accumulated
    block time, and the entry re-enqueues itself until it is stable.
    """

    __slots__ = ("sim", "transfer", "channel", "cross", "stall")

    def __init__(
        self, sim: Simulator, transfer: Transfer, channel: Channel, cross: float
    ) -> None:
        self.sim = sim
        self.transfer = transfer
        self.channel = channel
        self.cross = cross
        #: Block time already accrued when the head crossed the channel.
        self.stall = transfer.blocked_time
        sim.schedule_entry(self, transfer.worm.length)

    def _process(self) -> None:
        sim = self.sim
        now = sim.now
        transfer = self.transfer
        stall = transfer.blocked_time
        if transfer._blocked_since is not None:
            stall += now - transfer._blocked_since
        target = self.cross + transfer.worm.length + (stall - self.stall)
        if now >= target - 1e-9:
            self.channel.release(now)
        else:
            sim.schedule_entry(self, target - now)


class WormholeNetwork:
    """The wormhole LAN: channels + routing + the transfer engine.

    Parameters
    ----------
    sim:
        The simulation kernel.
    topology:
        The switch/host graph.
    routing:
        An :class:`~repro.net.updown.UpDownRouting`; built with default root
        if omitted.
    switch_latency:
        Per-hop head processing time in byte-times (route byte strip +
        crossbar setup; order of a byte-time in Myrinet).
    restrict_to_tree:
        Confine *all* routes to the up/down spanning tree (the Section 3
        S1 scheme).
    obs:
        Optional :class:`~repro.obs.Observability`; records worm spans
        (inject → head → tail) and delivery metrics.  ``None`` (the
        default) costs one pointer test per worm event.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        routing: Optional[UpDownRouting] = None,
        switch_latency: float = 1.0,
        restrict_to_tree: bool = False,
        loss_rate: float = 0.0,
        loss_seed: int = 99,
        obs=None,
    ) -> None:
        self.sim = sim
        self.obs = obs
        self.topology = topology
        self.routing = routing or UpDownRouting(topology)
        if self.routing.topology is not topology:
            raise ValueError("routing was computed for a different topology")
        self.switch_latency = switch_latency
        self.restrict_to_tree = restrict_to_tree
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate outside [0, 1): {loss_rate}")
        #: Fault injection: probability that a worm is flushed (e.g. by a
        #: reset clearing a wedged path) somewhere along its route.  The
        #: paper's reliability option -- circuit return + timeout
        #: retransmission (Section 5) -- is exercised against this.
        self.loss_rate = loss_rate
        from repro.sim.rng import RandomStreams

        self._loss_stream = RandomStreams(loss_seed).stream("wormnet.loss")
        self._channels: Dict[Tuple[int, int], Channel] = {}
        for link in topology.links:
            self._channels[(link.a, link.b)] = Channel(sim, link, link.a, link.b)
            self._channels[(link.b, link.a)] = Channel(sim, link, link.b, link.a)
        # The channel population is fixed for the network's lifetime: cache
        # the list view and the switch-to-switch subset (mean_utilization is
        # called per measurement point, and `channels` sits in test/benchmark
        # inner loops).
        self._channel_list: List[Channel] = list(self._channels.values())
        self._switch_channels: List[Channel] = [
            ch
            for ch in self._channel_list
            if topology.node(ch.src).is_switch and topology.node(ch.dst).is_switch
        ]
        #: Per-(src, dst) memo of the channel sequence of the legal route;
        #: worms between the same host pair re-use it without re-walking the
        #: routing tables (restrict_to_tree is fixed per network).
        self._route_channel_cache: Dict[Tuple[int, int], Tuple[Channel, ...]] = {}
        #: Hosts whose routes to every live host the routing has computed
        #: (one BFS each) since the last refresh.
        self._warmed_sources: Set[int] = set()
        self._receivers: Dict[int, ReceiverFn] = {}
        self._head_watchers: Dict[int, ReceiverFn] = {}
        #: Topology version the channel tables were built against; a
        #: mismatch triggers :meth:`refresh_topology` (stale-cache guard).
        self._topo_version = topology.version
        #: Fault hooks: a predicate forcing individual worms to be flushed
        #: (deterministic drop injection), and per-host counters of pending
        #: adapter-buffer faults (the next N worms arriving at the host are
        #: lost as if a buffer parity error discarded them).
        self.drop_filter: Optional[Callable[[Worm], bool]] = None
        self._recv_faults: Dict[int, int] = {}
        # Network-wide statistics.
        self.delivered_worms = 0
        self.delivered_bytes = 0.0
        self.dropped_worms = 0
        self.orphaned_worms = 0
        self.hop_latency = TallyStat("hop latency")
        self.block_time = TallyStat("block time per transfer")

    # -- wiring -----------------------------------------------------------
    def channel(self, src: int, dst: int) -> Channel:
        """The directed channel src -> dst (must be a physical link)."""
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise KeyError(f"no channel {src}->{dst}") from None

    def refresh_topology(self) -> None:
        """Re-sync channel tables with the topology after a mutation.

        Creates channels for newly added links, re-marks every channel's
        ``failed`` flag from component liveness, rebuilds the cached channel
        list views and invalidates the memoized per-pair route channels
        (which may now run over dead or new links).
        """
        topology = self.topology
        for link in topology.links:
            if (link.a, link.b) not in self._channels:
                self._channels[(link.a, link.b)] = Channel(
                    self.sim, link, link.a, link.b
                )
                self._channels[(link.b, link.a)] = Channel(
                    self.sim, link, link.b, link.a
                )
        for ch in self._channels.values():
            ch.failed = not topology.link_usable(ch.link)
        self._channel_list = list(self._channels.values())
        self._switch_channels = [
            ch
            for ch in self._channel_list
            if topology.node(ch.src).is_switch and topology.node(ch.dst).is_switch
        ]
        self._route_channel_cache.clear()
        self._warmed_sources.clear()
        self._topo_version = topology.version

    def _refresh_if_stale(self) -> None:
        if self._topo_version != self.topology.version:
            self.refresh_topology()

    @property
    def channels(self) -> List[Channel]:
        """All directed channels (cached; treat as read-only)."""
        self._refresh_if_stale()
        return self._channel_list

    def set_receiver(self, host: int, fn: ReceiverFn) -> None:
        """Register the adapter callback for worms fully received at ``host``."""
        self._receivers[host] = fn

    def set_head_watcher(self, host: int, fn: ReceiverFn) -> None:
        """Register a callback fired when a worm's *head* reaches ``host``
        (cut-through forwarding decisions are made here)."""
        self._head_watchers[host] = fn

    def injection_channel(self, host: int) -> Channel:
        """The host's outgoing adapter channel (one worm at a time)."""
        return self.channel(host, self.topology.host_switch(host))

    def route_channels(self, src_host: int, dst_host: int) -> Tuple[Channel, ...]:
        """The directed channels of the legal route between two hosts.

        Memoized per (src, dst): the returned tuple is shared across calls.
        A host's first miss since the last refresh has the routing compute
        its routes to every live host out of one BFS; the channel tuples
        are still built per pair, on demand.
        """
        self._refresh_if_stale()
        key = (src_host, dst_host)
        cached = self._route_channel_cache.get(key)
        if cached is not None:
            return cached
        if src_host not in self._warmed_sources:
            self._warmed_sources.add(src_host)
            self.routing.routes_from(
                src_host, self.topology.live_hosts(), self.restrict_to_tree
            )
        hops = self.routing.route_shared(src_host, dst_host, self.restrict_to_tree)
        channels = tuple(self.channel(a, b) for a, b, _ in hops)
        self._route_channel_cache[key] = channels
        return channels

    # -- fault hooks ----------------------------------------------------------
    def inject_receive_fault(self, host: int, count: int = 1) -> None:
        """Discard the next ``count`` worms fully arriving at ``host``.

        Models an adapter-buffer fault (parity error, DMA overrun): the
        worm drains off the wire normally but never reaches the host, so
        only transport-level repair can recover it.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self._recv_faults[host] = self._recv_faults.get(host, 0) + count

    def pending_receive_faults(self, host: int) -> int:
        return self._recv_faults.get(host, 0)

    # -- sending -------------------------------------------------------------
    def send(self, worm: Worm) -> Transfer:
        """Inject ``worm``; returns a :class:`Transfer` handle immediately.

        The worm travels from ``worm.source`` to ``worm.dest`` (both hosts).
        """
        if worm.source == worm.dest:
            raise ValueError("use the adapter local-copy path for self-delivery")
        transfer = Transfer(self.sim, worm)
        if self.obs is not None:
            self.obs.worm_injected(
                self.sim.now, worm.wid, worm.source, worm.dest,
                worm.length, worm.kind.value,
            )
        try:
            channels = self.route_channels(worm.source, worm.dest)
        except ValueError:
            # No route.  If an endpoint (or its access link) is dead, the
            # sender cannot know -- it transmits into the void and the worm
            # orphans, exactly as if the head had hit the failure.  A
            # missing route between two live endpoints is a real error
            # (partitioned fabric): surface it.
            live = self.topology.live_hosts()
            if worm.source in live and worm.dest in live:
                raise
            _WormRun(self, transfer, None, False)
            return transfer
        forced_drop = self.drop_filter is not None and self.drop_filter(worm)
        _WormRun(self, transfer, channels, forced_drop)
        return transfer

    def close(self) -> None:
        """Drop what points back at the network once its run is over.

        Adapter receivers and head watchers, the drop filter and the worm
        runs holding or queued on a channel all reach the network again,
        so a finished run would be a reference cycle; with them dropped
        (and :meth:`Simulator.close` dropping the queue) reference counting
        frees it.  Counters and tallies stay readable; channels read idle.
        """
        self._receivers.clear()
        self._head_watchers.clear()
        self.drop_filter = None
        for channel in self._channels.values():
            channel.holder = None
            channel.waiters.clear()

    # -- statistics ------------------------------------------------------------
    def reset_stats(self) -> None:
        """Discard warm-up statistics (channel utilization and tallies)."""
        now = self.sim.now
        for channel in self._channels.values():
            channel.reset_stats(now)
        self.delivered_worms = 0
        self.delivered_bytes = 0.0
        self.dropped_worms = 0
        self.orphaned_worms = 0
        self.hop_latency = TallyStat("hop latency")
        self.block_time = TallyStat("block time per transfer")

    def mean_utilization(self) -> float:
        """Average channel utilization across switch-to-switch channels."""
        self._refresh_if_stale()
        now = self.sim.now
        values = [ch.utilization(now) for ch in self._switch_channels]
        return sum(values) / len(values) if values else 0.0

    def delivery_ratio(self) -> float:
        """Delivered / attempted worms since the last stats reset."""
        attempted = self.delivered_worms + self.dropped_worms + self.orphaned_worms
        return self.delivered_worms / attempted if attempted else 1.0

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
that is its own event-queue entry: an urgent bootstrap at injection, then
per hop *acquire* (granted on the spot, or queued on the :class:`Channel`,
which enqueues the run when it hands the channel over) and *cross* (one
entry ``switch_latency + prop_delay`` later), and finally one entry
``length`` later that delivers, drops or orphans the worm.  Every crossed
channel but the last is enqueued as its own tail release, an entry that
re-enqueues itself until the tail has passed; the final step releases the
last one itself.  A :class:`Transfer`'s events are made only when someone
asks for them, so a worm nobody waits on enqueues no event.  Every queue
entry a worm makes thus changes model state, and no generator, Process,
Timeout, resource Request or per-hop object is allocated.

The entries keep the order of a process-per-worm model.  Each lands at
the instant, offset and priority a generator process waiting on resource
requests would use, so same-instant order and all results are those of
that model.  The runs and the channels push onto the kernel's heap
themselves (:meth:`Simulator.entry_queue`, taken once by the network and
by each channel) with the instant and key ``schedule_entry`` would give
them; the delays they add are checked when the network is built.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.engine import URGENT_KEY, Simulator
from repro.sim.events import Event
from repro.sim.monitor import TallyStat
from repro.net.topology import Link, Topology
from repro.net.updown import UpDownRouting
from repro.net.worm import Worm

ReceiverFn = Callable[[Worm, "Transfer"], None]


class Channel:
    """A directed channel over one physical link.

    One worm holds it at a time; worms that find it busy queue in arrival
    order and are handed the channel on release.

    A held channel is also the queue entry that releases it once the
    holder's tail has passed (:meth:`_process`).  The deadline is ``due =
    cross + length`` (continuous streaming) plus every byte-time the head
    has since spent blocked, which stalls the stream; so on each firing
    the deadline is re-evaluated against the transfer's accumulated block
    time, and the entry re-enqueues itself until it is stable.  A channel
    has at most one such entry pending, its holder's: the run enqueues it
    when its head crosses the channel, for every channel it crosses but
    the last (see :class:`_WormRun`), and the channel changes hands only
    when it releases.
    """

    __slots__ = (
        "link",
        "src",
        "dst",
        "prop_delay",
        "queue",
        "next_eid",
        "holder",
        "waiters",
        "due",
        "stall",
        "busy_time",
        "acquisitions",
        "failed",
        "_busy_since",
        "_stats_start",
    )

    def __init__(self, sim: Simulator, link: Link, src: int, dst: int) -> None:
        self.link = link
        self.src = src
        self.dst = dst
        self.prop_delay = link.prop_delay
        #: The kernel's heap and eid source: hand-overs and tail releases
        #: push their entries directly.
        self.queue, self.next_eid = sim.entry_queue()
        #: The worm run holding the channel (None while idle) and the runs
        #: queued for it, first come first served.
        self.holder: Optional[_WormRun] = None
        self.waiters: Deque[_WormRun] = deque()
        #: The holder's tail deadline without stalls, and the block time
        #: it had accrued when its head crossed (see :meth:`_process`).
        self.due = 0.0
        self.stall = 0.0
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

    def release(self, now: float) -> None:
        """The holder lets go; the longest waiter gets the channel and is
        enqueued at this instant, behind the entries already due.

        :meth:`_process` applies this in place; a change here is made
        there too.
        """
        self.busy_time += now - self._busy_since
        waiters = self.waiters
        if waiters:
            self.holder = nxt = waiters.popleft()
            heappush(self.queue, (now, self.next_eid(), nxt))
        else:
            self.holder = None

    def _process(self) -> None:
        """The holder's tail release: let go once its tail has passed."""
        run = self.holder
        now = run.sim.now
        transfer = run.transfer
        stall = transfer.blocked_time
        since = transfer._blocked_since
        if since is not None:
            stall += now - since
        target = self.due + (stall - self.stall)
        if now >= target - 1e-9:
            # release(now), in place.
            self.busy_time += now - self._busy_since
            waiters = self.waiters
            if waiters:
                self.holder = nxt = waiters.popleft()
                heappush(self.queue, (now, self.next_eid(), nxt))
            else:
                self.holder = None
        else:
            heappush(self.queue, (now + (target - now), self.next_eid(), self))

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

    Each event is made on first access and enqueued when it happens only
    if it exists by then, so a worm nobody waits on costs no event.
    Asked for after it happened, an event comes back already processed:
    a process that yields it resumes at once.  A worm that is dropped or
    orphaned completes, but its head never arrives.
    """

    __slots__ = (
        "sim",
        "worm",
        "_head_arrived",
        "_completed",
        "start_time",
        "head_time",
        "finish_time",
        "blocked_time",
        "blocked_hops",
        "dropped",
        "_blocked_since",
    )

    def __init__(self, sim: Simulator, worm: Worm) -> None:
        self.sim = sim
        self.worm = worm
        self._head_arrived: Optional[Event] = None
        self._completed: Optional[Event] = None
        self.start_time = sim.now
        self.head_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.blocked_time = 0.0
        self.blocked_hops = 0
        #: True when the worm was flushed mid-network (loss injection).
        self.dropped = False
        self._blocked_since: Optional[float] = None

    @property
    def head_arrived(self) -> Event:
        event = self._head_arrived
        if event is None:
            event = self._head_arrived = Event(self.sim)
            if self.head_time is not None:
                event._succeed_immediately()
        return event

    @property
    def completed(self) -> Event:
        event = self._completed
        if event is None:
            event = self._completed = Event(self.sim)
            if self.finish_time is not None:
                event._succeed_immediately()
        return event

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

    The run is its own queue entry: each timed step pushes it onto the
    kernel's heap and :meth:`_process` continues at ``step``.  A hop whose
    channel is busy queues the run on the channel, which enqueues it when
    it hands the channel over.  Every enqueue happens at the instant,
    offset and priority a generator process waiting on a resource request
    would use (bootstrap urgent at injection, the grant at the release
    instant, one enqueue per hop crossing and one for the tail), so
    same-instant order is unchanged.

    The final step (deliver, drop or orphan) is enqueued ``length`` after
    the last crossing when the trip ends at that crossing; ``tail`` then
    holds the channel just crossed, and the final step releases it first
    thing.  That channel's tail release would have come due at the same
    instant, the same float ``now + length``, directly before the final
    step: nothing is enqueued for that instant in between, and its
    release hands the channel over behind the final step's key.  A run
    cut when granted a dead channel has no ``tail``: the tail releases of
    its crossed channels are already queued.

    ``channels`` is ``None`` when the worm has no route (a dead endpoint):
    it orphans straight from the bootstrap.
    """

    __slots__ = (
        "net", "sim", "queue", "next_eid", "transfer", "channels", "hop",
        "drop_after", "step", "tail",
    )

    def __init__(
        self,
        net: "WormholeNetwork",
        transfer: Transfer,
        channels: Optional[Tuple[Channel, ...]],
        forced_drop: bool,
    ) -> None:
        self.net = net
        self.sim = sim = net.sim
        self.queue = net._queue
        self.next_eid = net._next_eid
        self.transfer = transfer
        self.channels = channels
        self.hop = 0
        #: Hop count after which the worm is flushed (None: never).
        self.drop_after: Optional[int] = 1 if forced_drop else None
        self.step = _START
        #: The channel the final step releases (see the class docstring).
        self.tail: Optional[Channel] = None
        heappush(self.queue, (sim.now, self.next_eid() - URGENT_KEY, self))

    def _process(self) -> None:
        step = self.step
        if step == _CROSSED:
            self._crossed()
        elif step == _GRANTED:
            self._handed_over()
        elif step == _START:
            self._start()
        else:
            self._finish(step)

    # -- steps -----------------------------------------------------------------
    def _start(self) -> None:
        channels = self.channels
        if channels is None:
            self._flush(_ORPHANED)
            return
        net = self.net
        if self.drop_after is None and net.loss_rate:
            stream = net._loss_stream
            if stream.bernoulli(net.loss_rate):
                self.drop_after = stream.randint(1, len(channels))
        ch = channels[0]
        if ch.failed:
            self._flush(_ORPHANED)
        elif ch.holder is None:
            ch.holder = self
            self._cross(ch)
        else:
            self._wait(ch)

    def _wait(self, ch: Channel) -> None:
        """Queue for busy channel ``ch``; its release hands it over."""
        ch.waiters.append(self)
        transfer = self.transfer
        transfer.blocked_hops += 1
        transfer._blocked_since = self.sim.now
        self.step = _GRANTED

    def _handed_over(self) -> None:
        """A channel this run queued for was handed over."""
        now = self.sim.now
        transfer = self.transfer
        transfer.blocked_time += now - transfer._blocked_since
        transfer._blocked_since = None
        ch = self.channels[self.hop]
        if ch.failed:
            # The link died while we awaited it: the worm is cut.
            ch.acquisitions += 1
            ch._busy_since = now
            ch.release(now)
            self._flush(_ORPHANED)
        else:
            self._cross(ch)

    def _cross(self, ch: Channel) -> None:
        """The run holds ``ch``: its head is across one hop delay later."""
        now = self.sim.now
        ch.acquisitions += 1
        ch._busy_since = now
        self.step = _CROSSED
        heappush(
            self.queue,
            (now + (self.net.switch_latency + ch.prop_delay), self.next_eid(), self),
        )

    def _crossed(self) -> None:
        channels = self.channels
        ch = channels[self.hop]
        self.hop = hop = self.hop + 1
        if hop == self.drop_after:
            self.tail = ch
            self._flush(_DROPPED)
            return
        if hop == len(channels):
            self.tail = ch
            self._arrive()
            return
        nxt = channels[hop]
        if nxt.failed:
            self.tail = ch
            self._flush(_ORPHANED)
            return
        # ``ch`` lets go once the tail has passed it (Channel._process).
        transfer = self.transfer
        ch.due = due = self.sim.now + transfer.worm.length
        ch.stall = transfer.blocked_time
        heappush(self.queue, (due, self.next_eid(), ch))
        if nxt.holder is None:
            nxt.holder = self
            self._cross(nxt)
        else:
            self._wait(nxt)

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
            self._flush(_ORPHANED)
            return
        if not net.topology.node_alive(dest):
            # The destination host crashed: nobody is listening.
            self._flush(_ORPHANED)
            return
        now = self.sim.now
        transfer.head_time = now
        if net.obs is not None:
            net.obs.worm_head(now, worm.wid, dest)
        watcher = net._head_watchers.get(dest)
        if transfer._head_arrived is not None:
            transfer._head_arrived.succeed()
        if watcher is not None:
            watcher(worm, transfer)
        self.step = _DELIVERED
        heappush(self.queue, (now + worm.length, self.next_eid(), self))

    def _flush(self, step: int) -> None:
        """Flush the worm out of the network here: dropped by loss
        injection (``_DROPPED``) or orphaned by a failed component
        (``_ORPHANED``).  The sender still transmits the tail (it learns
        nothing at the network level), but no receiver ever sees the
        worm."""
        transfer = self.transfer
        transfer.dropped = True
        self.step = step
        heappush(
            self.queue, (self.sim.now + transfer.worm.length, self.next_eid(), self)
        )

    def _finish(self, step: int) -> None:
        """The tail has drained: deliver, or account the lost worm."""
        net = self.net
        now = self.sim.now
        if self.tail is not None:
            self.tail.release(now)
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
            if transfer._completed is not None:
                transfer._completed.succeed()
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
        if transfer._completed is not None:
            transfer._completed.succeed()


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
        if not (switch_latency >= 0 and math.isfinite(switch_latency)):
            raise ValueError(
                f"switch_latency must be a finite number >= 0, got {switch_latency!r}"
            )
        self.switch_latency = switch_latency
        #: The kernel's heap and eid source: worm runs, tail releases and
        #: hand-overs push their entries directly (see the module docstring).
        self._queue, self._next_eid = sim.entry_queue()
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
        #: The live hosts as of the last refresh: every source warms its
        #: routes to these.
        self._live_hosts: List[int] = topology.live_hosts()
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
        list views and the live-host list, and invalidates the memoized
        per-pair route channels (which may now run over dead or new links).
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
        self._live_hosts = topology.live_hosts()
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
        A host's first miss since the last refresh has the routing memoize
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
            self.routing.warm_routes(
                src_host, self._live_hosts, self.restrict_to_tree
            )
        hops = self.routing.route_shared(src_host, dst_host, self.restrict_to_tree)
        table = self._channels
        channels = tuple([table[a, b] for a, b, _ in hops])
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

"""Unified observability: labeled metrics + structured event tracing.

One :class:`Observability` object bundles the three instrumentation
surfaces and is threaded (opt-in) through every layer of the simulator:

* :attr:`Observability.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of named, tagged collectors (``channel.utilization{src=3,dst=7}``) with
  warm-up reset, canonical snapshots and cross-process merge;
* :attr:`Observability.tracer` — an :class:`~repro.obs.tracer.EventTracer`
  recording spans (worm inject → head arrival → tail release) and instants
  into a bounded ring buffer, exportable as JSONL or Chrome trace events;
* :attr:`Observability.kernel` — a :class:`~repro.sim.trace.SimTrace`
  counting DES kernel events, attached by passing the bundle to
  ``Simulator(obs=...)``.

Hook sites follow the ``SimTrace`` pattern: a component holds an ``obs``
attribute that defaults to ``None``, and every hot-path hook costs exactly
one pointer test when observability is disabled.  All hooks are passive —
they never schedule events, consume randomness, or touch model state — so
enabling observability leaves simulation results byte-identical (asserted
by ``tests/obs/test_noninterference.py``).

Usage::

    from repro.obs import Observability
    obs = Observability()
    result = run_load_point(scheme, load, obs=obs)
    obs.tracer.export_chrome("trace.json")   # open in chrome://tracing
    snapshot = obs.snapshot(now=result.sim_time)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    SNAPSHOT_VERSION,
    metric_label,
    summarize_entry,
)
from repro.obs.metrics import merge_snapshots as _merge_metric_snapshots
from repro.obs.tracer import EventTracer, TraceEvent
from repro.sim.trace import SimTrace

__all__ = [
    "Counter",
    "EventTracer",
    "Gauge",
    "MetricsRegistry",
    "Observability",
    "SNAPSHOT_VERSION",
    "TraceEvent",
    "merge_snapshots",
    "metric_label",
    "summarize_entry",
]


#: Default histogram bounds per latency family (unit noted per family).
_WORM_LATENCY_BOUNDS = (0.0, 50_000.0, 50)      # byte-times
_FLIT_LATENCY_BOUNDS = (0.0, 20_000.0, 40)      # ticks
_MYRINET_LATENCY_BOUNDS = (0.0, 50_000.0, 50)   # microseconds


class Observability:
    """The opt-in observability bundle handed to models at construction.

    Parameters
    ----------
    tracer:
        ``True`` (default) builds an :class:`EventTracer` with
        ``trace_capacity`` slots; ``False``/``None`` disables tracing
        (metrics only — the cheap mode sweep workers use); an
        :class:`EventTracer` instance is used as-is.
    kernel:
        ``True`` (default) builds a :class:`SimTrace` that
        ``Simulator(obs=...)`` attaches to count kernel events.
    trace_capacity:
        Ring-buffer slots for the default tracer.
    """

    __slots__ = ("metrics", "tracer", "kernel")

    def __init__(
        self,
        tracer: Any = True,
        kernel: bool = True,
        trace_capacity: int = 65536,
    ) -> None:
        self.metrics = MetricsRegistry()
        if tracer is True:
            self.tracer: Optional[EventTracer] = EventTracer(trace_capacity)
        elif tracer:
            self.tracer = tracer
        else:
            self.tracer = None
        self.kernel: Optional[SimTrace] = SimTrace() if kernel else None

    # -- life cycle ----------------------------------------------------------
    def reset(self, now: float = 0.0) -> None:
        """Warm-up reset: restart metrics windows and kernel counters.

        The trace ring is deliberately *not* cleared — spans opened during
        warm-up must keep their begin events so they still close.
        """
        self.metrics.reset(now)
        if self.kernel is not None:
            self.kernel.reset()

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Strict-JSON state of the bundle (see :func:`merge_snapshots`)."""
        snap = self.metrics.snapshot(now)
        snap["kernel"] = (
            self.kernel.summary() if self.kernel is not None else None
        )
        snap["trace"] = (
            {"recorded": self.tracer.recorded, "dropped": self.tracer.dropped}
            if self.tracer is not None
            else None
        )
        return snap

    # ======================================================================
    # Hook points.  Callers guard every call with ``if obs is not None``;
    # the methods themselves never mutate model state.
    # ======================================================================

    # -- worm-level network (byte-times) ------------------------------------
    def worm_injected(
        self, now: float, wid: int, src: int, dst: int, length: float, kind: str
    ) -> None:
        self.metrics.counter("worm.injected").add()
        if self.tracer is not None:
            self.tracer.begin(
                now, "worm", key=wid, src=src, dst=dst, length=length, kind=kind
            )

    def worm_head(self, now: float, wid: int, dst: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(now, "worm.head", key=wid, dst=dst)

    def worm_delivered(
        self, now: float, wid: int, latency: float, blocked: float, length: float
    ) -> None:
        metrics = self.metrics
        metrics.counter("worm.delivered").add()
        metrics.counter("worm.delivered_bytes").add(length)
        metrics.tally("worm.latency").add(latency)
        metrics.histogram("worm.latency_hist", *_WORM_LATENCY_BOUNDS).add(latency)
        metrics.tally("worm.blocked_time").add(blocked)
        if self.tracer is not None:
            self.tracer.end(now, "worm", key=wid, status="delivered")

    def worm_dropped(self, now: float, wid: int, reason: str) -> None:
        self.metrics.counter("worm.lost", reason=reason).add()
        if self.tracer is not None:
            self.tracer.end(now, "worm", key=wid, status=reason)

    def snapshot_wormnet(self, net, now: float) -> None:
        """Publish per-channel gauges from a worm-level network's state."""
        gauge = self.metrics.gauge
        for channel in net.channels:
            tags = {"src": channel.src, "dst": channel.dst}
            gauge("channel.utilization", **tags).set(channel.utilization(now))
            gauge("channel.acquisitions", **tags).set(channel.acquisitions)

    # -- host-adapter multicast engine (byte-times) ----------------------------
    def message_sent(
        self, now: float, mid: int, gid: int, origin: int, length: float
    ) -> None:
        self.metrics.counter("multicast.sent").add()
        if self.tracer is not None:
            self.tracer.begin(
                now, "message", key=mid, gid=gid, origin=origin, length=length
            )

    def message_delivery(self, now: float, mid: int, host: int, latency: float) -> None:
        metrics = self.metrics
        metrics.counter("multicast.deliveries").add()
        metrics.histogram("multicast.delivery_latency", *_WORM_LATENCY_BOUNDS).add(
            latency
        )
        if self.tracer is not None:
            self.tracer.instant(now, "message.delivery", key=mid, host=host)

    def message_completed(self, now: float, mid: int, latency: float) -> None:
        metrics = self.metrics
        metrics.counter("multicast.completed").add()
        metrics.histogram("multicast.completion_latency", *_WORM_LATENCY_BOUNDS).add(
            latency
        )
        if self.tracer is not None:
            self.tracer.end(now, "message", key=mid, status="completed")

    def unicast_delivered(self, now: float, latency: float) -> None:
        metrics = self.metrics
        metrics.counter("unicast.delivered").add()
        metrics.histogram("unicast.latency_hist", *_WORM_LATENCY_BOUNDS).add(latency)

    # -- flit-level network (ticks) -----------------------------------------
    def flit_worm_injected(self, now: int, record) -> None:
        self.metrics.counter("flit.worm_injected").add()
        if self.tracer is not None:
            self.tracer.begin(
                now,
                "flit.worm",
                key=record.wid,
                src=record.src,
                dests=len(record.dests),
                payload=record.payload_bytes,
            )

    def flit_delivery(
        self, now: int, wid: int, host: int, latency: Optional[int], complete: bool
    ) -> None:
        metrics = self.metrics
        metrics.counter("flit.deliveries").add()
        if latency is not None:
            metrics.tally("flit.delivery_latency").add(latency)
            metrics.histogram(
                "flit.delivery_latency_hist", *_FLIT_LATENCY_BOUNDS
            ).add(latency)
        if self.tracer is not None:
            if complete:
                self.tracer.end(now, "flit.worm", key=wid, status="delivered")
            else:
                self.tracer.instant(now, "flit.worm.delivery", key=wid, host=host)

    def flit_flush(self, now: int, wid: int) -> None:
        self.metrics.counter("flit.flushes").add()
        if self.tracer is not None:
            self.tracer.end(now, "flit.worm", key=wid, status="flushed")

    def flit_worm_lost(self, now: int, wid: int, reason: str) -> None:
        self.metrics.counter("flit.worms_lost", reason=reason).add()
        if self.tracer is not None:
            self.tracer.end(now, "flit.worm", key=wid, status=reason)

    def link_fault(self, now: float, link_id: int, kind: str) -> None:
        self.metrics.counter("fault.link", kind=kind).add()
        if self.tracer is not None:
            self.tracer.instant(now, f"fault.{kind}", link=link_id)

    def snapshot_flitnet(self, net) -> None:
        """Publish per-link flit gauges from a flit-level network.

        ``Wire.carried``/``Wire.idles`` accumulate unconditionally in the
        wire model, so this costs nothing on the hot path — the gauges are
        filled only when a snapshot is taken.

        On a multi-lane fabric (``net.lanes > 1``) each switch-to-switch
        link additionally publishes per-lane occupancy gauges
        (``link.lane.flits`` / ``link.lane.idles``, one per virtual
        channel: both directions of that lane's wire pair summed), so a
        lanes sweep can see how the allocator spreads worms across lanes.
        """
        gauge = self.metrics.gauge
        topology = net.topology
        lanes = getattr(net, "lanes", 1)
        for link in topology.links:
            wires = net._link_wires.get(link.id)
            if not wires:
                continue
            carried = sum(w.carried for w in wires if w is not None)
            idles = sum(w.idles for w in wires if w is not None)
            tags = {"link": link.id, "a": link.a, "b": link.b}
            gauge("link.flits", **tags).set(carried)
            gauge("link.idles", **tags).set(idles)
            if lanes > 1 and len(wires) == 2 * lanes:
                # _link_wires orders lane l's wire pair at slots 2l, 2l+1.
                for lane in range(lanes):
                    pair = wires[2 * lane : 2 * lane + 2]
                    gauge("link.lane.flits", lane=lane, **tags).set(
                        sum(w.carried for w in pair if w is not None)
                    )
                    gauge("link.lane.idles", lane=lane, **tags).set(
                        sum(w.idles for w in pair if w is not None)
                    )
        gauge("flit.ticks_executed").set(net.ticks_executed)
        gauge("flit.now").set(net.now)

    # -- myrinet testbed (microseconds) ---------------------------------------
    def myrinet_arrival(self, now: float, host: int) -> None:
        self.metrics.counter("myrinet.arrivals").add()

    def myrinet_drop(self, now: float, host: int, injected: bool) -> None:
        self.metrics.counter(
            "myrinet.drops", cause="injected" if injected else "buffer"
        ).add()
        if self.tracer is not None:
            self.tracer.instant(now, "myrinet.drop", key=host, host=host)

    def myrinet_received(
        self, now: float, host: int, size: int, latency: float
    ) -> None:
        metrics = self.metrics
        metrics.counter("myrinet.received_packets").add()
        metrics.counter("myrinet.received_bytes").add(size)
        metrics.tally("myrinet.packet_latency").add(latency)
        metrics.histogram(
            "myrinet.packet_latency_hist", *_MYRINET_LATENCY_BOUNDS
        ).add(latency)

    def snapshot_testbed(self, per_host_throughput, per_host_loss) -> None:
        gauge = self.metrics.gauge
        for host, mbps in per_host_throughput.items():
            gauge("myrinet.host_throughput_mbps", host=host).set(mbps)
        for host, loss in per_host_loss.items():
            gauge("myrinet.host_loss_rate", host=host).set(loss)

    # -- fault campaigns ------------------------------------------------------
    def fault_applied(self, now: float, kind: str, target: int) -> None:
        self.metrics.counter("fault.applied", kind=kind).add()
        if self.tracer is not None:
            self.tracer.instant(now, f"fault.{kind}", target=target)

    # -- systematic stress search (repro.stress) ------------------------------
    def stress_state(self, pruned: bool) -> None:
        """One search node executed; ``pruned`` if its digest was seen."""
        result = "pruned" if pruned else "explored"
        self.metrics.counter("stress.states", result=result).add()

    def stress_violation(self, invariant: str) -> None:
        """A new (invariant, subject) violation was recorded."""
        self.metrics.counter("stress.violations", invariant=invariant).add()


def merge_snapshots(snapshots) -> Dict[str, Any]:
    """Merge :meth:`Observability.snapshot` bundles, in argument order.

    Metric entries merge per :func:`repro.obs.metrics.merge_snapshots`;
    kernel event counts and trace record/drop counts sum.  Merging
    per-point snapshots in record order yields identical aggregates for
    sequential and parallel sweep executions (asserted in
    ``tests/obs/test_sweep_obs.py``).
    """
    snaps: List[Dict[str, Any]] = [s for s in snapshots if s]
    merged = _merge_metric_snapshots(snaps)
    kernels = [s["kernel"] for s in snaps if s.get("kernel")]
    if kernels:
        by_type: Dict[str, int] = {}
        wakeups: Dict[str, int] = {}
        for kernel in kernels:
            for name, count in kernel.get("by_type", {}).items():
                by_type[name] = by_type.get(name, 0) + count
            for name, count in kernel.get("wakeups", {}).items():
                wakeups[name] = wakeups.get(name, 0) + count
        merged["kernel"] = {
            "events": sum(k.get("events", 0) for k in kernels),
            "by_type": dict(sorted(by_type.items())),
            "wakeups": dict(sorted(wakeups.items())),
        }
    traces = [s["trace"] for s in snaps if s.get("trace")]
    if traces:
        merged["trace"] = {
            "recorded": sum(t.get("recorded", 0) for t in traces),
            "dropped": sum(t.get("dropped", 0) for t in traces),
        }
    return merged

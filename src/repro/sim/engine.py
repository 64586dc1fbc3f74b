"""The simulation event loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout, bad_delay
from repro.sim.process import Process
from repro.sim.trace import SimTrace

Infinity = float("inf")

#: Heap keys pack (priority, eid) into one integer: normal events (the vast
#: majority) keep their raw small-int eid, urgent events are biased negative
#: by this constant, so a single int comparison replaces the old
#: (priority, eid) tuple comparison while preserving urgent-before-normal
#: ordering at equal timestamps — and the common case pays no arithmetic.
URGENT_KEY = 1 << 62


class EmptySchedule(Exception):
    """Raised internally when the event queue is exhausted."""


class _DeferredCall:
    """A bare scheduled callback: cheaper than a Timeout + callback pair.

    Queue entries only need a ``_process()`` method; this skips the Event
    machinery (state, value, callback list) for fire-and-forget actions.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn

    def _process(self) -> None:
        self.fn()


class Simulator:
    """A discrete-event simulator with a floating-point clock.

    The clock unit is arbitrary; throughout this reproduction it is the
    *byte-time* of a 640 Mb/s link.

    Parameters
    ----------
    start_time:
        Initial clock value.
    trace:
        Optional :class:`~repro.sim.trace.SimTrace` that counts processed
        events and process wakeups (cheap enough to leave on for profiling
        runs; ``None`` costs one pointer test per event).
    obs:
        Optional :class:`~repro.obs.Observability` bundle; when given (and
        ``trace`` is not), its kernel :class:`SimTrace` is attached so
        kernel event counts land in the bundle's snapshots.

    Attributes
    ----------
    now:
        The current simulation time.  A plain attribute, read on every
        step of every component; only the event loop writes it.

    Example
    -------
    >>> sim = Simulator()
    >>> def proc():
    ...     yield sim.timeout(5)
    ...     return "done"
    >>> p = sim.process(proc())
    >>> sim.run()
    >>> sim.now, p.value
    (5.0, 'done')
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[SimTrace] = None,
        obs: Optional[Any] = None,
    ) -> None:
        if trace is None and obs is not None:
            trace = obs.kernel
        self.now = float(start_time)
        self._queue: List[Tuple[float, int, Any]] = []
        #: Source of the heap keys' eids: one draw per enqueued entry, so
        #: entries of one instant run in the order they were enqueued.
        self._eids = count(1)
        self._active_process: Optional[Process] = None
        #: Processes whose generator has not finished, in creation order
        #: (a dict used as an ordered set): what :meth:`close` closes.
        self._processes: Dict[Process, None] = {}
        self._trace = trace

    # -- introspection -------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def trace(self) -> Optional[SimTrace]:
        """The attached profiling trace, if any."""
        return self._trace

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Composite event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Composite event triggering when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule_entry(
        self, entry: Any, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Enqueue a pre-built queue entry at ``now + delay``.

        ``entry`` is anything with a ``_process()`` method the loop calls
        when it comes due: a triggered event, or a component's own state
        object that re-enqueues itself step by step (the worm runs of
        :mod:`repro.net.wormnet`), which spares an Event, a callback and a
        generator resume per step.  With ``priority=URGENT`` the entry runs
        before every normal entry of its instant, where a process bootstrap
        lands.
        """
        if not delay >= 0:
            # Timeout and schedule_call validate their own delays, but a
            # buggy internal caller could otherwise schedule into the past
            # (or at NaN, which never compares) and break the clock.
            raise bad_delay(delay)
        eid = next(self._eids)
        heappush(
            self._queue,
            (self.now + delay, eid if priority else eid - URGENT_KEY, entry),
        )

    def entry_queue(self) -> Tuple[List[Tuple[float, int, Any]], Callable[[], int]]:
        """The heap and the eid source behind :meth:`schedule_entry`.

        A component whose entries enqueue themselves on every step takes
        both once and pushes ``(self.now + delay, next_eid(), entry)``
        itself (``next_eid() - URGENT_KEY`` for an urgent entry): the same
        instant and key :meth:`schedule_entry` would give, without the
        call.  It must guarantee ``delay >= 0`` on its own, as
        :mod:`repro.net.wormnet` does by checking its delays when the
        network is built.
        """
        return self._queue, self._eids.__next__

    def _post(self, event: Any) -> None:
        """Enqueue an *already triggered* event at the current instant.

        Used by the resource grant cascade: the caller has just verified
        the event is pending and set its value, so the state checks of
        :meth:`~repro.sim.events.Event.succeed` would be redundant.
        """
        heappush(self._queue, (self.now, next(self._eids), event))

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at ``now + delay`` without allocating an Event.

        The callback cannot be waited on or cancelled; use :meth:`timeout`
        when a process needs to yield on the delay.
        """
        if not delay >= 0:
            raise bad_delay(delay)
        heappush(
            self._queue,
            (self.now + delay, next(self._eids), _DeferredCall(fn)),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process exactly one event."""
        try:
            when, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.now = when
        trace = self._trace
        if trace is not None:
            trace._record(event)
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until time ``until`` is reached.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if no event is scheduled there; an infinite ``until`` leaves
        the clock at the last event processed.
        """
        queue = self._queue
        trace = self._trace
        if until is None:
            if trace is None:
                while queue:
                    when, _, event = heappop(queue)
                    self.now = when
                    event._process()
            else:
                while queue:
                    when, _, event = heappop(queue)
                    self.now = when
                    trace._record(event)
                    event._process()
            return
        until = float(until)
        if not until >= self.now:
            raise ValueError(f"until ({until}) is before now ({self.now}) or NaN")
        if trace is None:
            while queue and queue[0][0] <= until:
                when, _, event = heappop(queue)
                self.now = when
                event._process()
        else:
            while queue and queue[0][0] <= until:
                when, _, event = heappop(queue)
                self.now = when
                trace._record(event)
                event._process()
        if until != Infinity:
            self.now = until

    def close(self) -> None:
        """Free the run: close every suspended process, drop the queue.

        A finished run is one large reference cycle: queued entries and
        suspended processes point back at the components that scheduled
        them.  Closing each unfinished generator runs its ``finally``
        blocks once and releases its frame; the queue goes with whatever
        those blocks scheduled.  The clock, the trace and every component's
        counters stay readable.  A second call does nothing.
        """
        processes = self._processes
        while processes:
            process, _ = processes.popitem()
            process._close()
        self._queue.clear()

    def run_process(self, generator: Generator[Event, Any, Any]) -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process return value; raises if the process failed.
        Raises :class:`RuntimeError` (naming the stuck process) if the event
        queue drains while the process still waits on an event that will
        never be triggered.
        """
        proc = self.process(generator)
        while proc.is_alive:
            try:
                self.step()
            except EmptySchedule:
                raise RuntimeError(
                    f"process {proc.name!r} starved: the event queue drained "
                    "while it was still waiting on an event that is never "
                    "triggered"
                ) from None
        if not proc.ok:
            raise proc.value
        return proc.value

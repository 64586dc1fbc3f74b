"""A packed, bucketed event core for the DES kernel.

``Simulator(engine="packed")`` swaps the single binary heap of
``(time, eid, event)`` tuples for a *timestamp-bucket* queue: a heap of
distinct timestamps plus a side table mapping each timestamp to the list
of events due at that instant (normal and urgent lists kept separately,
preallocated lists recycled through a freelist).  The saturated workloads
this targets — the contended-grant cascade in
:mod:`repro.sim.resources`, worm hops releasing at the same byte-time —
schedule dozens of events per instant, so the bucket design collapses
per-event heap traffic into one heap operation per *distinct* timestamp
and turns same-instant scheduling into a list append (same-instant
grants go straight into the bucket currently being drained).

On top of the queue, :meth:`PackedSimulator.run` dispatches each bucket
in a tight inlined loop: the event-processing state machine and the
generator-resume step of :class:`PackedProcess` are unrolled into the
loop body, eliminating the callback-closure and bound-method allocations
that dominate the stock engine's profile.  Entries that are not events
(``schedule_call`` callbacks, the self-scheduling state objects given to
``schedule_entry``) run their own ``_process()``.  Buckets are drained by
popping from a reversed list, so an exception mid-dispatch leaves the
queue exactly as the heap engine would (processed entries gone, the rest
intact) without per-event cursor bookkeeping.  The semantics are
identical to the heap engine — same FIFO order within a priority class,
urgent events still preempt normals scheduled at the same instant (even
while that instant is being drained), failures still surface after
callbacks — and the packed parity suite pins this behaviour against the
stock engine's trace counts.

Design note: an int-key packing of ``(time, seq)`` into one word was
considered first, but times are floats in this kernel and per-event heap
sifts remain the cost either way; grouping same-instant events removes
them entirely, which measures strictly faster on the cascade workloads.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.engine import EmptySchedule, Infinity, Simulator, _DeferredCall
from repro.sim.events import NORMAL, TRIGGERED, Event, Timeout
from repro.sim.process import Process
from repro.sim.trace import SimTrace


class PackedProcess(Process):
    """A process that subscribes *itself* to the event it waits on.

    The stock :class:`Process` appends a fresh ``self._waiter`` bound
    method per wait; on the packed engine the process object itself is
    the callback (it is callable), saving that allocation and letting
    the packed run loop recognise waiters with one ``type()`` check and
    resume them inline.
    """

    __slots__ = ()

    def __call__(self, event: Event) -> None:
        # Generic-callback entry point: anything that collected ``self``
        # from an event's callback list (e.g. ``step()``) lands here.
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # Mirrors Process._resume exactly, except the final subscription
        # appends ``self`` instead of a fresh ``self._waiter`` closure.
        # The inlined copy in PackedSimulator.run() must stay in sync.
        trace = self.sim._trace
        if trace is not None:
            trace._wakeup(self.name)
        self.sim._active_process = self
        while True:
            try:
                if event._ok:
                    target = self._gen.send(event._value)
                else:
                    event._defused = True
                    target = self._gen.throw(event._value)
            except StopIteration as stop:
                self.sim._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.sim._active_process = None
                self.fail(exc)
                return

            if not isinstance(target, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                event = Event(self.sim)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if target.sim is not self.sim:
                raise RuntimeError("yielded an event from a different simulator")

            if target._state == 2:  # PROCESSED: value already available
                event = target
                continue

            self._target = target
            target.callbacks.append(self)
            break
        self.sim._active_process = None

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            event._defused = True
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._target = None
        self._resume(event)


# The profiling trace keys event counts by class name; the packed process
# is behaviourally identical to the stock one, so it reports as such.
PackedProcess.__name__ = "Process"
PackedProcess.__qualname__ = "Process"


class _BatchProbe:
    """Placeholder pushed to materialise a bucket in ``schedule_many``."""

    __slots__ = ()


_BATCH_PROBE = _BatchProbe()

#: Shared always-empty list standing in for the inbox/urgent lists while a
#: singleton bucket is dispatched without opening full drain state.  Nothing
#: ever appends to it: the append paths are guarded by ``_cur_t``, which
#: stays ``None`` on the singleton fast path.
_EMPTY: List[Any] = []


class PackedSimulator(Simulator):
    """Drop-in :class:`Simulator` with the bucketed queue and inlined loop.

    Construct via ``Simulator(engine="packed")`` (or directly).  All public
    behaviour matches the heap engine; see the module docstring for the
    mechanism and ``tests/sim/test_packed_parity.py`` for the pinned
    equivalences.

    Drain-state invariants (``_cur_t is not None`` while a bucket is being
    dispatched):

    * ``_drain`` — the current bucket's normal events, *reversed*, consumed
      by ``pop()`` from the tail (so exceptions leave it consistent);
    * ``_inbox`` — normals scheduled at the current instant mid-drain, in
      FIFO order; swapped (reversed) into ``_drain`` once it empties;
    * ``_cur_u``/``_cui`` — urgent events for the instant plus a cursor
      (urgents are rare, so index bookkeeping is confined to them).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[SimTrace] = None,
        obs: Optional[Any] = None,
        engine: str = "packed",
    ) -> None:
        super().__init__(start_time, trace, obs)
        #: Heap of *distinct* due timestamps (one entry per bucket).
        self._theap: List[float] = []
        #: time -> list of normal-priority events due at that time.
        self._buckets: dict = {}
        #: time -> list of urgent events (rare: bootstraps, interrupts).
        self._ubuckets: dict = {}
        #: Recycled (cleared) bucket lists.
        self._free: List[list] = []
        #: Append cache: the bucket most recently scheduled into.  Many
        #: same-instant timeouts (the saturated pattern) then skip the
        #: dict probe.  Invalidated when that bucket is popped for drain.
        self._lt: Optional[float] = None
        self._lb: Optional[list] = None
        # Drain state; see the class docstring.
        self._drain: Optional[list] = None
        self._inbox: Optional[list] = None
        self._cur_u: Optional[list] = None
        self._cur_t: Optional[float] = None
        self._cui = 0

    # -- introspection -------------------------------------------------------
    @property
    def engine(self) -> str:
        return "packed"

    @property
    def pending_count(self) -> int:
        """Number of queued-but-unprocessed entries (all buckets)."""
        n = sum(len(b) for b in self._buckets.values())
        n += sum(len(b) for b in self._ubuckets.values())
        if self._cur_t is not None:
            n += len(self._drain) + len(self._inbox)
            n += len(self._cur_u) - self._cui
        return n

    # -- event factories -----------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Flattened Timeout construction: skip the type-call and
        # ``schedule_entry`` dispatch on the hottest factory.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._state = TRIGGERED
        ev._defused = False
        ev.delay = delay
        t = self.now + delay
        if t == self._lt:
            self._lb.append(ev)
        elif t == self._cur_t:
            self._inbox.append(ev)
        else:
            self._enqueue_normal(ev, t)
        return ev

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> PackedProcess:
        return PackedProcess(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------
    def _enqueue_normal(self, event: Any, t: float) -> None:
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            free = self._free
            b = free.pop() if free else []
            buckets[t] = b
            ub = self._ubuckets
            if not ub or t not in ub:
                heappush(self._theap, t)
        self._lt = t
        self._lb = b
        b.append(event)

    def schedule_entry(
        self, entry: Any, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = self.now + delay
        if priority:  # NORMAL
            if t == self._lt:
                self._lb.append(entry)
            elif t == self._cur_t:
                self._inbox.append(entry)
            else:
                self._enqueue_normal(entry, t)
            return
        # URGENT: preempts normals at the same instant, even mid-drain.
        if t == self._cur_t:
            self._cur_u.append(entry)
            return
        ub = self._ubuckets
        b = ub.get(t)
        if b is None:
            free = self._free
            b = free.pop() if free else []
            ub[t] = b
            if t not in self._buckets:
                heappush(self._theap, t)
        b.append(entry)

    def _post(self, event: Any) -> None:
        # Already-triggered event due now (the resource grant cascade).
        if self.now == self._cur_t:
            self._inbox.append(event)
        else:
            self._enqueue_normal(event, self.now)

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_entry(_DeferredCall(fn), delay)

    # -- batched API ---------------------------------------------------------
    def schedule_many(
        self,
        events: Iterable[Event],
        delay: float = 0.0,
        value: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Trigger and enqueue a batch of pending events at ``now + delay``.

        Semantically ``ev.succeed(value, priority)`` per event at the given
        offset, but the target bucket is resolved once for the whole batch.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = self.now + delay
        if t == self._cur_t:
            bucket = self._inbox if priority else self._cur_u
        else:
            self.schedule_entry(_BATCH_PROBE, delay, priority)
            bucket = self._lb if priority else self._ubuckets[t]
            bucket.pop()
        append = bucket.append
        for ev in events:
            if ev._state:  # not PENDING
                raise RuntimeError(f"{ev!r} has already been triggered")
            ev._ok = True
            ev._value = value
            ev._state = TRIGGERED
            append(ev)

    def pop_ready(self) -> List[Any]:
        """Advance the clock to the next scheduled instant and return every
        entry due there (urgents first), removing them from the queue.

        The caller takes over dispatch (``entry._process()``); entries the
        caller schedules while processing land in a fresh bucket at the same
        instant and are returned by the next call, preserving engine order.
        Returns an empty list when nothing is scheduled.
        """
        if self._cur_t is not None:
            ready = self._cur_u[self._cui:]
            drain = self._drain
            drain.reverse()
            ready.extend(drain)
            ready.extend(self._inbox)
            self._release_drain_lists()
            if ready:
                return ready
        if not self._theap:
            return []
        t = heappop(self._theap)
        if t == self._lt:
            self._lt = None
        self.now = t
        ready = list(self._ubuckets.pop(t, ()))
        ready.extend(self._buckets.pop(t, ()))
        return ready

    # -- dispatch ------------------------------------------------------------
    def _release_drain_lists(self) -> None:
        free = self._free
        for lst in (self._drain, self._inbox, self._cur_u):
            del lst[:]
            free.append(lst)
        self._drain = self._inbox = self._cur_u = self._cur_t = None
        self._cui = 0

    def _open_bucket(self) -> None:
        """Pop the earliest bucket into the drain state (queue non-empty)."""
        t = heappop(self._theap)
        if t == self._lt:
            self._lt = None
        free = self._free
        nq = self._buckets.pop(t, None)
        if nq is None:
            nq = free.pop() if free else []
        nq.reverse()
        ub = self._ubuckets
        uq = ub.pop(t, None) if ub else None
        if uq is None:
            uq = free.pop() if free else []
        inbox = free.pop() if free else []
        self._drain = nq
        self._inbox = inbox
        self._cur_u = uq
        self._cui = 0
        self._cur_t = t
        self.now = t

    def peek(self) -> float:
        if self._cur_t is not None and (
            self._drain or self._inbox or self._cui < len(self._cur_u)
        ):
            return self.now
        return self._theap[0] if self._theap else Infinity

    def _take_next(self) -> Any:
        while True:
            if self._cur_t is not None:
                uq = self._cur_u
                ui = self._cui
                if ui < len(uq):
                    self._cui = ui + 1
                    return uq[ui]
                drain = self._drain
                if drain:
                    return drain.pop()
                inbox = self._inbox
                if inbox:
                    inbox.reverse()
                    self._drain = inbox
                    self._inbox = drain
                    return inbox.pop()
                self._release_drain_lists()
            theap = self._theap
            if not theap:
                raise EmptySchedule() from None
            # Singleton fast path: a lone normal event at the next instant
            # (sparse-timestamp workloads) skips the drain-state setup.
            t = theap[0]
            ub = self._ubuckets
            if not ub or t not in ub:
                nq = self._buckets.get(t)
                if nq is not None and len(nq) == 1:
                    heappop(theap)
                    del self._buckets[t]
                    if t == self._lt:
                        self._lt = None
                    self.now = t
                    ev = nq.pop()
                    self._free.append(nq)
                    return ev
            self._open_bucket()

    def step(self) -> None:
        event = self._take_next()
        trace = self._trace
        if trace is not None:
            trace._record(event)
        event._process()

    def run_window(self, until: float) -> int:
        """Window-bounded run (see :meth:`Simulator.run_window`): the
        bucket queue replaces the base heap, so the window loop goes
        through :meth:`peek`/:meth:`step`, which understand open drain
        state."""
        until = float(until)
        if until < self.now:
            raise ValueError(f"until ({until}) is in the past (now={self.now})")
        processed = 0
        while True:
            nxt = self.peek()
            if nxt > until or nxt == Infinity:
                break
            self.step()
            processed += 1
        self.now = until
        return processed

    def run(self, until: Optional[float] = None) -> None:
        if until is not None:
            until = float(until)
            if until < self.now:
                raise ValueError(f"until ({until}) is in the past (now={self.now})")
            while True:
                nxt = self.peek()
                if nxt > until or nxt == Infinity:
                    break
                self.step()
            if until is not Infinity:
                self.now = until
            return
        if self._trace is not None:
            # Traced runs are profiling runs; correctness over speed.
            try:
                while True:
                    self.step()
            except EmptySchedule:
                return

        # Untraced drain: the hot loop.  Inlines Event._process and
        # PackedProcess._resume (keep in sync with both).  Normal events
        # pop off the reversed drain list, so an exception propagating out
        # of a callback leaves the queue resumable exactly like the heap
        # engine; only the rare urgent path keeps an index cursor.
        theap = self._theap
        free = self._free
        buckets = self._buckets
        while True:
            fast = False
            if self._cur_t is None:
                if not theap:
                    return
                # Inlined _open_bucket, plus a singleton fast path: a lone
                # normal event at the next instant (sparse-timestamp
                # workloads such as timeout churn) is dispatched without
                # opening drain state — the schedule-at-current-instant
                # appends are guarded by _cur_t, which stays None, so a
                # mid-dispatch same-time schedule lands in a fresh bucket
                # and is popped on the next outer iteration (same order).
                t = heappop(theap)
                if t == self._lt:
                    self._lt = None
                ub = self._ubuckets
                uq = ub.pop(t, None) if ub else None
                nq = buckets.pop(t, None)
                self.now = t
                if uq is None:
                    if nq is not None and len(nq) == 1:
                        fast = True
                        drain = nq
                        inbox = _EMPTY
                        uq = _EMPTY
                    else:
                        uq = free.pop() if free else []
                if not fast:
                    if nq is None:
                        nq = free.pop() if free else []
                    else:
                        nq.reverse()
                    inbox = free.pop() if free else []
                    self._drain = nq
                    self._inbox = inbox
                    self._cur_u = uq
                    self._cui = 0
                    self._cur_t = t
                    drain = nq
            else:
                drain = self._drain
                inbox = self._inbox
                uq = self._cur_u
            while True:
                if uq:
                    ui = self._cui
                    if ui < len(uq):
                        self._cui = ui + 1
                        uq[ui]._process()
                        continue
                if drain:
                    ev = drain.pop()
                elif inbox:
                    # Mid-drain arrivals become the next drain; the emptied
                    # drain list is recycled as the new inbox.
                    inbox.reverse()
                    self._drain = inbox
                    self._inbox = drain
                    drain, inbox = inbox, drain
                    continue
                else:
                    break
                if not isinstance(ev, Event):
                    # A plain entry (schedule_call, schedule_entry) runs
                    # itself: no state, no callback list.
                    ev._process()
                    continue
                # -- inlined Event._process --
                ev._state = 2
                cbs = ev.callbacks
                ev.callbacks = None
                if cbs:
                    for cb in cbs:
                        if type(cb) is not PackedProcess:
                            cb(ev)
                            continue
                        # -- inlined PackedProcess._resume --
                        cb._target = None
                        self._active_process = cb
                        gen = cb._gen
                        event = ev
                        while True:
                            try:
                                if event._ok:
                                    target = gen.send(event._value)
                                else:
                                    event._defused = True
                                    target = gen.throw(event._value)
                            except StopIteration as stop:
                                self._active_process = None
                                cb.succeed(stop.value)
                                break
                            except BaseException as exc:
                                self._active_process = None
                                cb.fail(exc)
                                break
                            if isinstance(target, Event):
                                if target.sim is not self:
                                    raise RuntimeError(
                                        "yielded an event from a different simulator"
                                    )
                                if target._state == 2:
                                    event = target
                                    continue
                                cb._target = target
                                target.callbacks.append(cb)
                                break
                            exc = RuntimeError(
                                f"process {cb.name!r} yielded a non-event: {target!r}"
                            )
                            event = Event(self)
                            event._ok = False
                            event._value = exc
                            event._defused = True
                        self._active_process = None
                if not ev._ok and not ev._defused:
                    raise ev._value
            if fast:
                free.append(drain)
                continue
            for lst in (drain, inbox, uq):
                free.append(lst)
            del uq[:]
            self._drain = self._inbox = self._cur_u = self._cur_t = None
            self._cui = 0

"""Event primitives for the discrete-event kernel.

Events follow simpy-like semantics: an event is created *pending*, becomes
*triggered* when given a value (``succeed``/``fail``) and is scheduled on the
simulator's queue, and becomes *processed* once the simulator pops it and runs
its callbacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Simulator

PENDING = 0
TRIGGERED = 1
PROCESSED = 2

#: Scheduling priorities.  Urgent events (process bootstraps) run before
#: normal events scheduled at the same instant.
URGENT = 0
NORMAL = 1


def bad_delay(delay: Any) -> ValueError:
    """The error for a delay that is not a number >= 0 (NaN included)."""
    if delay < 0:
        return ValueError(f"negative delay {delay}")
    return ValueError(f"delay is not a number >= 0: {delay!r}")


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded; only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception for a failed event)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim.schedule_entry(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters will have it raised."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim.schedule_entry(self, 0.0, priority)
        return self

    def _succeed_immediately(self, value: Any = None) -> "Event":
        """Fast-path succeed: trigger *and* process in place, skipping the
        event queue entirely.

        Only valid for an event nobody has subscribed to yet (freshly
        created, empty callback list): there is no callback to run, so the
        queue round-trip of :meth:`succeed` buys nothing.  A process that
        later yields the event resumes synchronously (the processed-event
        path in :meth:`Process._resume`).  Used by
        :class:`~repro.net.wormnet.Transfer`'s ``head_arrived`` and
        ``completed`` when they are first read after the fact.
        """
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if self.callbacks:
            raise RuntimeError("cannot fast-path an event with subscribers")
        self._ok = True
        self._value = value
        self._state = PROCESSED
        self.callbacks = None
        return self

    # -- engine hook -------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called by the simulator when the event is popped."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)
        if not self._ok and not self._defused:
            # Nobody handled the failure: surface it so errors never pass
            # silently.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise bad_delay(delay)
        # Flattened Event.__init__: timeouts are the single most allocated
        # event type, so the super() dispatch is folded into slot writes.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        self.delay = delay
        sim.schedule_entry(self, delay, NORMAL)


class Initialize(Event):
    """Internal event that bootstraps a process at the current instant."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: Any) -> None:
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._state = TRIGGERED
        sim.schedule_entry(self, 0.0, URGENT)

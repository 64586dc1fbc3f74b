"""Generator-coroutine processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Initialize, Interruption

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Process(Event):
    """A simulation process driving a generator.

    A process is itself an :class:`~repro.sim.events.Event` that triggers when
    the generator returns; other processes can therefore ``yield`` a process
    to wait for its completion and obtain its return value.

    Use :meth:`~repro.sim.engine.Simulator.process` to create one.
    """

    __slots__ = ("_gen", "_target", "name")

    def __init__(
        self, sim: "Simulator", generator: Generator[Event, Any, Any], name: str = ""
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._gen = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        sim._processes[self] = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == 0  # PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Deliver an :class:`~repro.sim.events.Interrupt` into the process."""
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self._target is None and self.sim.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        Interruption(self, cause)

    # -- engine hooks ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
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
                self.sim._processes.pop(self, None)
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.sim._active_process = None
                self.sim._processes.pop(self, None)
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
            target.callbacks.append(self._waiter)
            break
        self.sim._active_process = None

    def _waiter(self, event: Event) -> None:
        self._target = None
        self._resume(event)

    def _resume_interrupt(self, event: Event) -> None:
        """Deliver an interruption: detach from the current target first."""
        if not self.is_alive:
            # The process finished between scheduling and delivery of the
            # interrupt; drop it silently (matches simpy behaviour).
            event._defused = True
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._waiter)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._target = None
        self._resume(event)

    def _close(self) -> None:
        """Close the suspended generator (its ``finally`` blocks run) and
        drop the event it waits on; see :meth:`Simulator.close`."""
        self._target = None
        self._gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} alive={self.is_alive}>"

"""Counted containers: byte-counted pools with blocking gets.

A :class:`Container` backs each adapter buffer pool of
:mod:`repro.core.buffers` and the input buffer of the Myrinet testbed's
cards (:mod:`repro.myrinet.lanai`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


def _check_amount(amount: float) -> None:
    if not amount >= 0:  # NaN fails too
        raise ValueError("amount must be non-negative")


class ContainerGet(Event):
    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.sim)
        self.amount = amount
        self.container = container
        container._do_get(self)


class Container:
    """A counted pool (e.g. an adapter buffer pool measured in bytes).

    ``get`` blocks until the requested amount is available; ``put`` returns
    capacity and wakes waiters in FIFO order.  FIFO wake-up preserves the
    paper's arrival-order service of blocked worms.  Every amount must be a
    number >= 0: a negative or NaN amount raises :class:`ValueError`.
    """

    def __init__(
        self, sim: "Simulator", capacity: float, init: Optional[float] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.level = capacity if init is None else float(init)
        if not 0 <= self.level <= capacity:
            raise ValueError("init level outside [0, capacity]")
        self._waiters: Deque[ContainerGet] = deque()

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount`` from the pool; blocks while insufficient."""
        _check_amount(amount)
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds container capacity {self.capacity}"
            )
        return ContainerGet(self, amount)

    def put(self, amount: float) -> None:
        """Return ``amount`` to the pool (immediate, never blocks)."""
        _check_amount(amount)
        if self.level + amount > self.capacity + 1e-9:
            raise RuntimeError("container overfull: put exceeds capacity")
        self.level += amount
        self._serve()

    def try_get(self, amount: float) -> bool:
        """Non-blocking take; True on success.

        Only succeeds when no earlier waiter is queued, preserving FIFO
        fairness.
        """
        _check_amount(amount)
        if not self._waiters and self.level >= amount:
            self.level -= amount
            return True
        return False

    def _do_get(self, event: ContainerGet) -> None:
        if not self._waiters and self.level >= event.amount:
            self.level -= event.amount
            event.succeed(event.amount)
        else:
            self._waiters.append(event)

    def _serve(self) -> None:
        while self._waiters and self.level >= self._waiters[0].amount:
            waiter = self._waiters.popleft()
            self.level -= waiter.amount
            waiter.succeed(waiter.amount)

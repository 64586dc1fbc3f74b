"""Shared resources: FIFO resources, stores and counted containers.

These model the contended entities of the wormhole network: channels and
output ports (:class:`Resource`), adapter packet queues (:class:`Store`) and
adapter buffer pools counted in bytes (:class:`Container`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Flattened Event.__init__ + request admission: every worm hop
        # allocates one of these, so the super().__init__ dispatch and the
        # _do_request indirection are folded into straight-line slot writes.
        self.sim = resource.sim
        self._defused = False
        self.resource = resource
        users = resource.users
        if len(users) < resource.capacity:
            users.append(self)
            # Uncontended grant: no waiter can be subscribed yet (the
            # request object is still being constructed), so skip the
            # event-queue round-trip — the requester resumes synchronously
            # on yield (the _succeed_immediately fast path, inlined).  The
            # grant carries no value: the requester already holds the
            # request, and a self-reference would make it a cycle.
            self._value = None
            self._ok = True
            self._state = 2  # PROCESSED
            self.callbacks = None
        else:
            self._value = None
            self._ok = True
            self._state = 0  # PENDING
            self.callbacks = []
            resource.queue.append(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (e.g. on timeout)."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue.

    The paper's switches serve blocked worms in round-robin order across
    input ports; at the worm level a FIFO per contended channel is the
    equivalent arrival-order discipline (true per-port round-robin is
    implemented in the flit-level substrate).
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted requests."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when the claim is granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError("releasing a request that does not hold the resource")
        if self.queue:
            self._grant_next()

    def _cancel(self, request: Request) -> None:
        if request in self.users:
            self.release(request)
            return
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        queue = self.queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            nxt = queue.popleft()
            if nxt._state:  # triggered: cancelled/failed while queued
                continue
            users.append(nxt)
            # The contended-grant cascade: succeed() re-checks state we
            # just verified, so poke the grant straight onto the queue at
            # the current instant (identical ordering and semantics).
            nxt._ok = True
            nxt._value = None
            nxt._state = 1  # TRIGGERED
            self.sim._post(nxt)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.sim)
        self.filter = filter
        store._do_get(self)


class Store:
    """An unbounded-or-bounded FIFO of items with blocking get/put."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Deposit ``item``; blocks (as an event) while the store is full."""
        return StorePut(self, item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Withdraw the first item (matching ``filter`` if given)."""
        return StoreGet(self, filter)

    def _do_put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._serve_getters()

    def _serve_getters(self) -> None:
        served = True
        while served and self._getters:
            served = False
            for getter in list(self._getters):
                item = self._match(getter)
                if item is _NO_ITEM:
                    continue
                self.items.remove(item)
                self._getters.remove(getter)
                getter.succeed(item)
                served = True
                self._admit_putters()
                break

    def _match(self, getter: StoreGet) -> Any:
        for item in self.items:
            if getter.filter is None or getter.filter(item):
                return item
        return _NO_ITEM

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed()


class _NoItem:
    __slots__ = ()


_NO_ITEM = _NoItem()


class ContainerGet(Event):
    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.sim)
        self.amount = amount
        self.container = container
        container._do_get(self)

    def cancel(self) -> None:
        """Withdraw an unsatisfied get (e.g. buffer-wait timeout)."""
        try:
            self.container._waiters.remove(self)
        except ValueError:
            pass


class Container:
    """A counted pool (e.g. an adapter buffer pool measured in bytes).

    ``get`` blocks until the requested amount is available; ``put`` returns
    capacity and wakes waiters in FIFO order.  FIFO wake-up preserves the
    paper's arrival-order service of blocked worms.
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
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds container capacity {self.capacity}"
            )
        return ContainerGet(self, amount)

    def put(self, amount: float) -> None:
        """Return ``amount`` to the pool (immediate, never blocks)."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if self.level + amount > self.capacity + 1e-9:
            raise RuntimeError("container overfull: put exceeds capacity")
        self.level += amount
        self._serve()

    def try_get(self, amount: float) -> bool:
        """Non-blocking take; True on success.

        Only succeeds when no earlier waiter is queued, preserving FIFO
        fairness.
        """
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
            if waiter.triggered:
                continue
            self.level -= waiter.amount
            waiter.succeed(waiter.amount)

"""The [VLB96] centralized-credit multicast baseline.

The paper's main related work (Verstoep, Langendoen, Bal -- 'Efficient
reliable multicast on Myrinet') extends the Illinois Fast Messages credit
scheme: multicast runs on a precomputed binary tree spanning the members,
but before sending, the source must acquire a *cumulative buffer credit*
for all destinations from a centralized credit manager (a designated host
adapter).  Sequenced credits guarantee total ordering; the manager
periodically replenishes the pool with a credit-gathering token that tours
the members.

The paper's critique, which this implementation lets you measure
(``bench_baseline_credit.py``):

* latency is increased by the credit request round trip;
* buffer resources are used inefficiently -- the reservation lives from
  grant to token-gathering, far longer than the actual buffer usage;
* the scheme depends on a single manager (here: queries stall when its
  pool is empty until the token tours).

Integration: create a group with ``Scheme.CREDIT_TREE``; the engine builds
a :class:`CreditController` per group.  Credit requests, grants and the
token all travel as real control worms, so their latency is part of the
simulation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.net.worm import CONTROL_WORM_BYTES, Worm, WormKind
from repro.sim.monitor import TallyStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adapters import MulticastEngine, _GroupState

_request_ids = itertools.count(1)


@dataclass
class CreditConfig:
    """Knobs of the centralized credit scheme.

    ``initial_credits`` is the number of multicast messages the pool can
    have outstanding at once (a credit covers buffering at *every*
    member -- the cumulative reservation of [VLB96]).
    """

    initial_credits: int = 4
    token_period: float = 20_000.0
    control_bytes: int = CONTROL_WORM_BYTES


@dataclass
class _PendingRequest:
    origin: int
    request_id: int
    queued_at: float


class CreditController:
    """Per-group credit manager state plus the token process.

    The manager is the group's lowest-ID member (the 'designated host
    adapter card').
    """

    def __init__(
        self,
        engine: "MulticastEngine",
        state: "_GroupState",
        config: Optional[CreditConfig] = None,
    ) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.state = state
        self.config = config or CreditConfig()
        if self.config.initial_credits < 1:
            raise ValueError("the credit pool needs at least one credit")
        self.manager = state.group.lowest
        self.available = self.config.initial_credits
        self._seq = itertools.count(0)
        self._queue: Deque[_PendingRequest] = deque()
        #: request id -> event the origin adapter waits on (value = seqno)
        self._grant_waits: Dict[int, object] = {}
        #: member -> messages whose buffers that member has released
        self.freed: Dict[int, int] = {m: 0 for m in state.group.members}
        self._credited = 0
        self._token_busy = False
        self._idle_wait = None
        # Statistics of the paper's critique.
        self.requests = 0
        self.grants = 0
        self.token_tours = 0
        self.grant_wait = TallyStat("credit grant wait")
        self.reservation_time = TallyStat("credit reservation lifetime")
        self._grant_times: Dict[int, float] = {}
        self.sim.process(self._token_loop(), name=f"credit-token-g{state.gid}")

    # -- origin side -----------------------------------------------------------
    def acquire(self, origin: int):
        """Request one cumulative credit; yields until granted.

        Returns the grant's sequence number (the total-ordering stamp).
        Run inside the origin adapter's process (``yield from``).
        """
        request_id = next(_request_ids)
        wait = self.sim.event()
        self._grant_waits[request_id] = wait
        queued_at = self.sim.now
        self.requests += 1
        if origin == self.manager:
            self._on_request(origin, request_id)
        else:
            self.engine.adapters[origin]._send_credit_control(
                WormKind.CREDIT_REQUEST,
                dest=self.manager,
                gid=self.state.gid,
                payload=(request_id, origin),
                length=self.config.control_bytes,
            )
        seqno = yield wait
        self.grant_wait.add(self.sim.now - queued_at)
        self._grant_times[seqno] = self.sim.now
        return seqno

    # -- manager side ------------------------------------------------------------
    def on_control(self, worm: Worm, at_host: int) -> None:
        """Dispatch an arriving credit control worm."""
        if worm.kind == WormKind.CREDIT_REQUEST:
            request_id, origin = worm.payload
            self._on_request(origin, request_id)
        elif worm.kind == WormKind.CREDIT_GRANT:
            request_id, seqno = worm.payload
            self._deliver_grant(request_id, seqno)
        elif worm.kind == WormKind.TOKEN:
            self._on_token(worm, at_host)

    def _on_request(self, origin: int, request_id: int) -> None:
        self._queue.append(_PendingRequest(origin, request_id, self.sim.now))
        self._serve()

    def _serve(self) -> None:
        while self.available > 0 and self._queue:
            self.available -= 1
            self._wake_token_loop()
            pending = self._queue.popleft()
            seqno = next(self._seq)
            self.grants += 1
            if pending.origin == self.manager:
                self._deliver_grant(pending.request_id, seqno)
            else:
                self.engine.adapters[self.manager]._send_credit_control(
                    WormKind.CREDIT_GRANT,
                    dest=pending.origin,
                    gid=self.state.gid,
                    payload=(pending.request_id, seqno),
                    length=self.config.control_bytes,
                )

    def _deliver_grant(self, request_id: int, seqno: int) -> None:
        wait = self._grant_waits.pop(request_id, None)
        if wait is not None:
            wait.succeed(seqno)

    # -- buffer release accounting ---------------------------------------------------
    def mark_freed(self, member: int, seqno: Optional[int]) -> None:
        """A member released the buffer it held for one credited message."""
        self.freed[member] = self.freed.get(member, 0) + 1

    # -- the credit-gathering token (Section 1's description) -------------------------
    def _wake_token_loop(self) -> None:
        if self._idle_wait is not None and not self._idle_wait.triggered:
            self._idle_wait.succeed()

    def _token_loop(self):
        config = self.config
        while True:
            if self.available == config.initial_credits and not self._queue:
                # The pool is full and nobody is waiting: sleep until a
                # credit is actually consumed, so an idle simulation can
                # quiesce (the real token would keep circulating; it would
                # gather nothing).
                self._idle_wait = self.sim.event()
                yield self._idle_wait
                self._idle_wait = None
            yield self.sim.timeout(config.token_period)
            if self._token_busy:
                continue
            self._token_busy = True
            members = [m for m in self.state.group.members if m != self.manager]
            here = self.manager
            for member in members:
                transfer = self.engine.net.send(
                    Worm(
                        source=here,
                        dest=member,
                        length=config.control_bytes,
                        kind=WormKind.TOKEN,
                        group=self.state.gid,
                        created=self.sim.now,
                    )
                )
                yield transfer.completed
                here = member
            if here != self.manager:
                transfer = self.engine.net.send(
                    Worm(
                        source=here,
                        dest=self.manager,
                        length=config.control_bytes,
                        kind=WormKind.TOKEN,
                        group=self.state.gid,
                        created=self.sim.now,
                    )
                )
                yield transfer.completed
            self._replenish()
            self._token_busy = False
        self._idle_wait = None

    def _on_token(self, worm: Worm, at_host: int) -> None:
        # The token's data (freed counts) is read directly; the worm hops
        # themselves model the gathering latency.
        return

    def _replenish(self) -> None:
        self.token_tours += 1
        fully_freed = min(self.freed.values()) if self.freed else 0
        newly = fully_freed - self._credited
        if newly <= 0:
            return
        self._credited = fully_freed
        self.available += newly
        now = self.sim.now
        # Reservation lifetime: grant -> the tour that recycled the credit.
        for seqno in list(self._grant_times):
            if seqno < fully_freed:
                self.reservation_time.add(now - self._grant_times.pop(seqno))
        self._serve()

    def stats_summary(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "grants": self.grants,
            "token_tours": self.token_tours,
            "mean_grant_wait": self.grant_wait.mean,
            "mean_reservation_time": self.reservation_time.mean,
            "credits_available": self.available,
        }

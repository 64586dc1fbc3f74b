"""Slack buffers with STOP/GO watermarks (Figure 1).

Each switch input port owns a small slack buffer.  When its occupancy
rises past the high watermark Ks a STOP symbol is sent upstream; when it
drains below the low watermark Kg a GO follows.  The gap between the
watermarks and the buffer ends absorbs the flits in flight during the
round-trip of the control symbols, so no flit is ever dropped.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.flitlevel.flits import Flit


class SlackBuffer:
    """A bounded FIFO of flits with STOP/GO threshold signalling.

    Parameters
    ----------
    capacity:
        Total slots (Myrinet slack buffers are a few dozen bytes).
    stop_mark:
        Occupancy at/above which STOP is asserted (Ks).
    go_mark:
        Occupancy at/below which GO is asserted again (Kg).
    """

    def __init__(self, capacity: int = 32, stop_mark: Optional[int] = None,
                 go_mark: Optional[int] = None) -> None:
        if capacity < 2:
            raise ValueError("slack buffer needs at least 2 slots")
        self.capacity = capacity
        self.stop_mark = stop_mark if stop_mark is not None else (3 * capacity) // 4
        self.go_mark = go_mark if go_mark is not None else capacity // 4
        if not 0 <= self.go_mark < self.stop_mark <= capacity:
            raise ValueError(
                f"watermarks must satisfy 0 <= Kg({self.go_mark}) < "
                f"Ks({self.stop_mark}) <= capacity({capacity})"
            )
        self._flits: Deque[Flit] = deque()
        self._stopping = False
        self.overflows = 0
        self.peak = 0

    def __len__(self) -> int:
        return len(self._flits)

    @property
    def full(self) -> bool:
        return len(self._flits) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._flits

    @property
    def stopping(self) -> bool:
        """The current STOP/GO hysteresis state, without re-evaluating it.

        :meth:`desired_stop` mutates the hysteresis latch; quiescence checks
        (the active-set engine's settle pass) need a read-only view.
        """
        return self._stopping

    def push(self, flit: Flit) -> None:
        """Accept a flit from the wire.

        A push onto a full buffer is an *overflow*: it means the STOP
        round-trip slack was undersized.  The flit is dropped and counted
        (reliable configurations must never see this).

        ``InputPort.absorb`` applies this rule (with :attr:`full`) and
        :meth:`desired_stop` in place, once per byte.
        """
        if self.full:
            self.overflows += 1
            return
        self._flits.append(flit)
        if len(self._flits) > self.peak:
            self.peak = len(self._flits)

    def front(self) -> Optional[Flit]:
        return self._flits[0] if self._flits else None

    def peek(self, index: int) -> Optional[Flit]:
        if index < len(self._flits):
            return self._flits[index]
        return None

    def pop(self) -> Flit:
        return self._flits.popleft()

    def drop_worm(self, wid: int) -> int:
        """Discard all queued flits of a flushed worm (backward reset)."""
        kept = [f for f in self._flits if f.wid != wid]
        dropped = len(self._flits) - len(kept)
        self._flits = deque(kept)
        return dropped

    def desired_stop(self) -> bool:
        """The STOP/GO level this buffer wants its upstream to observe.

        Hysteresis per Figure 1: assert STOP at/above Ks, keep it asserted
        until occupancy falls to/below Kg.  Applied in place by
        ``InputPort.absorb``.
        """
        occupancy = len(self._flits)
        if self._stopping:
            if occupancy <= self.go_mark:
                self._stopping = False
        else:
            if occupancy >= self.stop_mark:
                self._stopping = True
        return self._stopping

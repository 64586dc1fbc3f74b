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

    ``InputPort.absorb`` applies the buffer's rules on this state once per
    byte.  A flit arriving at a full buffer is an *overflow*: the STOP
    round trip was undersized, so the flit is dropped and counted in
    ``overflows`` (reliable configurations never see one); ``peak`` is
    the highest occupancy reached.  STOP is asserted once occupancy
    reaches Ks and held until it falls to Kg (Figure 1's hysteresis).

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
    def stopping(self) -> bool:
        """The STOP/GO hysteresis latch as the last absorb left it, read
        without re-evaluating it (the active-set engine's quiescence
        check)."""
        return self._stopping

    def front(self) -> Optional[Flit]:
        return self._flits[0] if self._flits else None

    def pop(self) -> Flit:
        return self._flits.popleft()

    def drop_worm(self, wid: int) -> int:
        """Discard all queued flits of a flushed worm (backward reset)."""
        kept = [f for f in self._flits if f.wid != wid]
        dropped = len(self._flits) - len(kept)
        self._flits = deque(kept)
        return dropped

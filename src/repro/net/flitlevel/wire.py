"""Unidirectional wires with a paired reverse STOP/GO signal."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.net.flitlevel.flits import Flit, FlitKind


class Wire:
    """A point-to-point link carrying one flit per tick, with ``delay``
    ticks of propagation; STOP/GO symbols travel the reverse direction with
    the same delay (Myrinet interleaves control symbols on the return
    link).

    The per-byte steps apply the link rules on this state themselves.
    The receiver (``InputPort.absorb``, ``FlitAdapter.tick_input``) takes
    the head of ``_forward`` once its due tick, ``delay`` after the push,
    has come.  The sender (``OutputPort.ready``, the one-branch step of
    ``CrossbarSwitch._stream``, ``FlitAdapter.tick_output``) pushes at
    most one flit per tick, and none while the last STOP/GO symbol due
    at it, latched in ``_stop_at_sender``, reads STOP.
    """

    def __init__(self, delay: int = 1) -> None:
        if delay < 1:
            raise ValueError("wire delay must be at least 1 tick")
        self.delay = delay
        self._forward: Deque[Tuple[int, Flit]] = deque()
        self._reverse: Deque[Tuple[int, bool]] = deque()
        self._stop_at_sender = False
        self._last_push_tick = -1
        self.carried = 0
        self.idles = 0
        #: False while the physical link is down (fault injection): pushed
        #: flits are swallowed and nothing is delivered.
        self.alive = True
        #: Active-set hook: ``notify(receiver)`` is called when a flit
        #: lands on a previously empty wire, so the receiving input port or
        #: host adapter re-registers for ticking.  One callable serves
        #: every wire of a network; ``receiver`` names this wire's end.
        self.notify: Optional[Callable[[object], None]] = None
        self.receiver: Optional[object] = None
        #: Worm-location hook: ``track(wid, wire)`` is called the first time
        #: a worm's flits enter this wire (per-worm site index for O(extent)
        #: flush/loss instead of a full network scan).
        self.track: Optional[Callable[[Optional[int], "Wire"], None]] = None
        self._tracked_wid: Optional[int] = None

    # -- liveness ---------------------------------------------------------------
    def fail(self) -> set:
        """Cut the wire: discard everything in flight; returns the worm ids
        whose flits were lost (the injector flushes those worms)."""
        self.alive = False
        lost = {f.wid for _, f in self._forward if f.wid is not None}
        self._forward.clear()
        self._reverse.clear()
        self._stop_at_sender = False
        return lost

    def repair(self) -> None:
        self.alive = True

    # -- forward (data) ------------------------------------------------------
    def push(self, flit: Flit, now: int) -> None:
        """Transmit a flit; at most one per tick.  For the ticks a
        circuit sleeps through a steady span ``network._apply_span``
        applies its counts (carried and IDLE flits, last push tick) in
        bulk and shifts the due times of the flits in flight: a change
        here is made there too.  A push onto the empty wire of a sleeping
        circuit's member wakes that circuit (``notify``)."""
        if now == self._last_push_tick:
            raise RuntimeError(f"two flits pushed on one wire in tick {now}")
        self._last_push_tick = now
        if not self.alive:
            return  # a dead wire swallows the flit; the sender can't tell
        wid = flit.wid
        if wid != self._tracked_wid:
            self._tracked_wid = wid
            if self.track is not None and wid is not None:
                self.track(wid, self)
        if not self._forward and self.notify is not None:
            # The receiver may have deregistered while this wire was empty;
            # it stays registered as long as flits are in flight, so only
            # the empty->non-empty edge needs a wake-up.
            self.notify(self.receiver)
        self._forward.append((now + self.delay, flit))
        self.carried += 1
        if flit.kind is FlitKind.IDLE:
            self.idles += 1

    def drop_worm(self, wid: int) -> int:
        """Remove in-flight flits of a flushed worm (backward reset)."""
        kept = deque((due, f) for due, f in self._forward if f.wid != wid)
        dropped = len(self._forward) - len(kept)
        self._forward = kept
        return dropped

    # -- reverse (STOP/GO) ------------------------------------------------------
    def signal_stop(self, stop: bool, now: int) -> None:
        """Receiver-side: send a STOP (True) or GO (False) symbol upstream.

        Callers only signal on changes; redundant signals are harmless.
        """
        self._reverse.append((now + self.delay, stop))

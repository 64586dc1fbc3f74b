"""Opt-in lightweight profiling for the DES kernel.

Attach a :class:`SimTrace` via ``Simulator(trace=SimTrace())`` to count the
events the engine processes (by event class) and the process wakeups (by
process name).  The counters answer "where does kernel time go?" without a
real profiler: a component that wakes up orders of magnitude more often than
its peers is the one worth optimizing next.

The overhead is one dict update per event, so traced runs stay within a few
percent of untraced ones; a disabled trace (the default) costs a single
pointer test per event.
"""

from __future__ import annotations

from typing import Any, Dict


class SimTrace:
    """Counts processed events and process wakeups during a run."""

    __slots__ = ("events", "by_type", "wakeups")

    def __init__(self) -> None:
        #: Total queue entries processed.
        self.events = 0
        #: Processed-entry counts keyed by class name (Timeout, _WormRun,
        #: _LanaiJob, ...).
        self.by_type: Dict[str, int] = {}
        #: Generator resumptions keyed by process name.
        self.wakeups: Dict[str, int] = {}

    # -- engine hooks (underscored: called on the hot path) -----------------
    def _record(self, event: Any) -> None:
        self.events += 1
        name = type(event).__name__
        by_type = self.by_type
        by_type[name] = by_type.get(name, 0) + 1

    def _wakeup(self, name: str) -> None:
        wakeups = self.wakeups
        wakeups[name] = wakeups.get(name, 0) + 1

    # -- reporting ----------------------------------------------------------
    @property
    def total_wakeups(self) -> int:
        return sum(self.wakeups.values())

    def summary(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of the counters, largest first."""

        def ranked(counts: Dict[str, int]) -> Dict[str, int]:
            return dict(sorted(counts.items(), key=lambda kv: -kv[1]))

        return {
            "events": self.events,
            "by_type": ranked(self.by_type),
            "wakeups": ranked(self.wakeups),
        }

    def reset(self) -> None:
        """Zero all counters (e.g. after warm-up)."""
        self.events = 0
        self.by_type.clear()
        self.wakeups.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimTrace events={self.events} wakeups={self.total_wakeups}>"

"""Jobs: content-addressed units of work the service schedules.

A job wraps one :class:`~repro.sweep.spec.SweepPoint` and is identified by
:func:`repro.sweep.cache.point_key`, the key
:class:`~repro.sweep.cache.SweepCache` files it under on disk —
``sha256(code_hash | kind | canonical params | seed)`` — so

* two submits of the same spec are the same job (dedup / coalescing),
* a job's identity is exactly its cache address (read-through/write-through
  needs no translation), and
* editing any simulator source changes every id at once, so a restarted
  server can never serve results produced by stale physics.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.sweep.spec import SweepPoint, canonical_key

#: Job life cycle.  ``queued -> running -> done|failed`` plus
#: ``queued -> cancelled``; a crashed attempt may loop ``running -> queued``
#: until its retry budget is spent.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

FINISHED_STATES = (DONE, FAILED, CANCELLED)


def make_point(
    kind: str, params: Optional[Dict[str, Any]] = None, seed: Optional[int] = None
) -> SweepPoint:
    """Build the sweep point a submit request describes.

    Seed precedence mirrors :meth:`repro.sweep.spec.SweepSpec.points`: a
    ``seed`` key inside ``params`` wins, then the explicit ``seed``
    argument, then the default seed 1.
    """
    params = dict(params or {})
    if "seed" in params:
        point_seed = int(params["seed"])
    elif seed is not None:
        point_seed = int(seed)
    else:
        point_seed = 1
    return SweepPoint(
        index=0,
        kind=str(kind),
        params=params,
        seed=point_seed,
        key=canonical_key(params),
    )


@dataclass
class Job:
    """One scheduled computation plus everything observers may ask about."""

    id: str
    point: SweepPoint
    state: str = QUEUED
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: How the result was obtained: ``executed``, ``cache`` or None (not
    #: finished / not successful).
    source: Optional[str] = None
    attempts: int = 0
    submits: int = 1
    #: Set after a batch timeout: re-dispatch this job alone so a hung
    #: neighbour cannot take it down again (and vice versa).
    solo: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    def status_fields(self) -> Dict[str, Any]:
        """The JSON-safe status body shared by ``submit``/``status``."""
        return {
            "job": self.id,
            "kind": self.point.kind,
            "state": self.state,
            "attempts": self.attempts,
            "submits": self.submits,
            "source": self.source,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def finish(
        self,
        state: str,
        now: float,
        record: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        self.state = state
        self.record = record
        self.error = error
        self.source = source
        self.finished_at = now
        self.finished.set()

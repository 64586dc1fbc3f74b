"""Simulation-as-a-service: an always-on front end for sweep points.

Every batch entry point (``repro.sweep``, benchmarks, the obs CLI) costs
a process per question; :mod:`repro.serve` keeps the simulator resident
and answers many concurrent scenario queries over a newline-delimited
JSON TCP protocol.  The scheduler deduplicates identical specs
(content-addressed by the same key the on-disk sweep cache uses),
coalesces in-flight duplicates onto one computation, reads through /
writes through :class:`~repro.sweep.cache.SweepCache`, applies admission
control under load, batches compatible points per worker round trip, and
survives crashed or hung workers.  A record
obtained through the service is byte-identical to the same point run via
``repro.sweep`` — the service changes *when and where* a point runs,
never its physics.

Pieces: :mod:`~repro.serve.protocol` (wire format),
:mod:`~repro.serve.jobs` (content-addressed jobs),
:mod:`~repro.serve.scheduler` (queueing/coalescing/backpressure),
:mod:`~repro.serve.workers` (replaceable process pool),
:mod:`~repro.serve.server` (asyncio TCP front end),
:mod:`~repro.serve.client` (blocking client),
:mod:`~repro.serve.cli` (``python -m repro.serve``).
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, make_point
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.scheduler import Overloaded, Scheduler, ServeConfig, UnknownKind
from repro.serve.server import ServeServer, ServerThread
from repro.serve.workers import JobTimeout, WorkerCrashed, WorkerPool

__all__ = [
    "Job",
    "JobTimeout",
    "Overloaded",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "ServerThread",
    "UnknownKind",
    "WorkerCrashed",
    "WorkerPool",
    "make_point",
]

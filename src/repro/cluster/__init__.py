"""A fleet of simulation servers: sharding, failover, HTTP front door.

:mod:`repro.serve` made one instance answer many concurrent scenario
queries; this package makes *N* instances answer as one service, with
the HTTP gateway as the only way in:

* :mod:`~repro.cluster.ring` — consistent hashing over the
  content-addressed job-id space (the ids are
  :func:`~repro.sweep.cache.point_key` values, so they are
  location-independent by construction: any shard computes any job to
  the byte-identical record);
* :mod:`~repro.cluster.gateway` — a stdlib-only asyncio HTTP/1.1 JSON
  gateway translating ``POST /submit`` / ``GET /result/{id}`` / ... into
  the NDJSON-TCP protocol so curl and browsers work.  It routes by key,
  walks the key's ring order when a shard dies (failover by
  deterministic *re-execution*, not state migration), and merges
  ``health``/``metrics`` across the fleet;
* :mod:`~repro.cluster.fleet` — :class:`LocalFleet` launches and
  supervises ``python -m repro.serve`` shard processes;
* :mod:`~repro.cluster.cli` — ``python -m repro.cluster`` stands the
  whole thing up with a ``--ready-file``.

The sharding changes *where* a point runs, never its physics: a sweep
through the cluster — shard deaths included — returns records
byte-identical to :func:`repro.sweep.runner.run_sweep`.
"""

from repro.cluster.fleet import FleetError, LocalFleet, ShardSpec
from repro.cluster.gateway import ClusterGateway
from repro.cluster.ring import HashRing

__all__ = [
    "ClusterGateway",
    "FleetError",
    "HashRing",
    "LocalFleet",
    "ShardSpec",
]

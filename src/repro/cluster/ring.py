"""Consistent-hash ring over the content-addressed job-id space.

Job ids are already location-independent — they are
:func:`~repro.sweep.cache.point_key` values, ``sha256(code | kind |
params | seed)`` — so *any* shard can compute any job and produce the
byte-identical record.  The ring only decides which shard computes it
*first*, to maximize dedup/coalescing and cache locality: identical
submits land on the same shard, and adding a shard remaps only ``~1/N``
of the key space (classic consistent hashing with virtual nodes).

Placement is derived purely from SHA-256 of shard ids and job keys, so
every process agrees on the mapping with no coordination and no
dependence on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

#: Ring points per shard.  64 vnodes keeps the max/min key-share ratio of
#: small fleets near 1 while the ring stays a few hundred entries.
DEFAULT_VNODES = 64


def _position(label: str) -> int:
    """A point on the ``2**64`` ring for an arbitrary string label."""
    return int.from_bytes(
        hashlib.sha256(label.encode()).digest()[:8], "big"
    )


class HashRing:
    """Deterministic consistent-hash ring over named shards."""

    def __init__(self, shard_ids: Sequence[str], vnodes: int = DEFAULT_VNODES):
        ids = list(shard_ids)
        if not ids:
            raise ValueError("HashRing needs at least one shard id")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {ids}")
        self.shard_ids = ids
        self.vnodes = int(vnodes)
        points: List[tuple] = []
        for shard in ids:
            for vnode in range(self.vnodes):
                # The shard-id/vnode separator cannot appear in a vnode
                # index, so distinct (shard, vnode) pairs cannot collide
                # on the label even with adversarial shard names.
                points.append((_position(f"{shard}\x00{vnode}"), shard))
        points.sort()
        self._points = points
        self._positions = [p[0] for p in points]

    def owners(self, key: str, count: int = 1) -> List[str]:
        """The first ``count`` distinct shards clockwise from ``key``.

        ``owners(key, 1)[0]`` is the primary; the rest are the order the
        gateway walks when shards die.  ``count`` is clamped to the fleet
        size.
        """
        count = max(1, min(int(count), len(self.shard_ids)))
        start = bisect.bisect_right(self._positions, _position(key))
        owners: List[str] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in owners:
                owners.append(shard)
                if len(owners) == count:
                    break
        return owners

    def primary(self, key: str) -> str:
        return self.owners(key, 1)[0]

    def shares(self, samples: int = 4096) -> Dict[str, float]:
        """Fraction of a deterministic key sample owned by each shard.

        A balance diagnostic (used by tests and ``repro.cluster``'s CLI
        banner), not a routing primitive.
        """
        counts = {shard: 0 for shard in self.shard_ids}
        for i in range(samples):
            counts[self.primary(f"sample-{i}")] += 1
        return {shard: counts[shard] / samples for shard in self.shard_ids}

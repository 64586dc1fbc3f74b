"""On-disk sweep result cache keyed by configuration *and* code.

A cache entry's key hashes three things: the point's canonical parameter
key (config), its seed, and a fingerprint of every ``repro`` source file
(code).  Re-running a sweep after editing only docs or unrelated repos hits
the cache for every point; editing any simulator source invalidates all
entries at once — conservative, but it can never serve results produced by
stale physics.

Entries are one small JSON file each, sharded by key prefix, so the cache
is safe to prune with ``rm`` and friendly to incremental rsync/CI caching.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

from repro.sweep.spec import SweepPoint

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over all ``repro`` package sources (memoized per process)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def point_key(point: SweepPoint, code_hash: Optional[str] = None) -> str:
    """The content address of ``point``: sha256 of code, kind, params and seed.

    ``code_hash`` defaults to this process's :func:`code_fingerprint`.  The
    cache files entries under this key, and :mod:`repro.serve` and
    :mod:`repro.cluster` use it as the job id and the ring key.
    """
    payload = f"{code_hash or code_fingerprint()}|{point.kind}|{point.key}|{point.seed}"
    return hashlib.sha256(payload.encode()).hexdigest()


class SweepCache:
    """Point-result cache rooted at a directory."""

    def __init__(self, root: Path, code_hash: Optional[str] = None) -> None:
        self.root = Path(root)
        self.code_hash = code_hash or code_fingerprint()
        self.hits = 0
        self.misses = 0

    def key(self, point: SweepPoint) -> str:
        return point_key(point, self.code_hash)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, point: SweepPoint) -> Optional[Dict[str, Any]]:
        """The cached record for ``point``, or None."""
        path = self._path(self.key(point))
        try:
            payload = json.loads(path.read_text())
            record = payload["record"]
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError):
            # A structurally wrong payload (valid JSON but no "record" key,
            # or not a dict at all) is as much a miss as a corrupt file.
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, point: SweepPoint, record: Dict[str, Any]) -> None:
        """Store the result record for ``point``."""
        path = self._path(self.key(point))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": point.kind,
            "params": point.params,
            "seed": point.seed,
            "code": self.code_hash,
            "record": record,
        }
        # Unique per-writer staging name: concurrent processes (sweep pools,
        # serve workers) writing the same key must not interleave partial
        # writes in a shared .tmp before the atomic replace.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, default=repr))
        tmp.replace(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SweepCache {self.root} hits={self.hits} misses={self.misses}>"

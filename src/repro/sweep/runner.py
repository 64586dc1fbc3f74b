"""Parallel sweep execution.

Independent (scheme, load, seed, topology) points fan out across a
``multiprocessing`` pool; because every point builds its own simulator from
its own deterministic seed, a parallel run produces records byte-identical
to a sequential run — the pool only changes wall-clock time.  Results come
back in point order regardless of completion order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sweep.cache import SweepCache
from repro.sweep.points import execute_point
from repro.sweep.spec import SweepPoint, SweepSpec


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env override, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer worker count, got {env!r}"
            ) from None
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _execute(payload: Tuple[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Pool worker entry (module-level so it pickles under fork/spawn)."""
    kind, params = payload
    return execute_point(kind, params)


@dataclass
class SweepOutcome:
    """Everything a sweep run produced, plus its execution footprint."""

    spec: SweepSpec
    records: List[Dict[str, Any]]
    points: List[SweepPoint] = field(repr=False, default_factory=list)
    executed: int = 0
    cached: int = 0
    workers: int = 1
    wall_time: float = 0.0

    def merged_obs(self) -> Optional[Dict[str, Any]]:
        """Merge the per-point ``"obs"`` snapshots, in record order.

        Record order equals point order regardless of worker count, so a
        parallel sweep merges to the byte-identical aggregate a sequential
        sweep produces (floating-point merges are order-sensitive; fixing
        the order fixes the result).  Returns None when no record carries a
        snapshot (points run without ``obs: true``).
        """
        from repro.obs import merge_snapshots

        snapshots = [r.get("obs") for r in self.records]
        snapshots = [s for s in snapshots if s]
        if not snapshots:
            return None
        return merge_snapshots(snapshots)


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Execute every point of ``spec``; returns records in point order.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` uses :func:`default_jobs`; 1 runs
        in-process (no pool, easier to debug/profile).  The worker count is
        clamped to the number of points that actually need simulating.
    cache:
        Optional :class:`~repro.sweep.cache.SweepCache`; hits skip
        simulation entirely, misses are stored after execution.
    progress:
        Optional callable receiving human-readable progress lines.
    """
    say = progress or (lambda _line: None)
    points = spec.points()
    start = time.perf_counter()

    records: List[Optional[Dict[str, Any]]] = [None] * len(points)
    pending: List[SweepPoint] = []
    for point in points:
        hit = cache.get(point) if cache is not None else None
        if hit is not None:
            records[point.index] = hit
        else:
            pending.append(point)
    cached = len(points) - len(pending)
    if cached:
        say(f"cache: {cached}/{len(points)} points reused")

    workers = default_jobs() if jobs is None else max(1, jobs)
    workers = min(workers, len(pending)) if pending else 1

    payloads = [(p.kind, p.executor_params()) for p in pending]
    if workers <= 1:
        say(f"running {len(pending)} points sequentially")
        fresh = [_execute(payload) for payload in payloads]
    else:
        import multiprocessing

        say(f"running {len(pending)} points on {workers} workers")
        with multiprocessing.Pool(workers) as pool:
            fresh = pool.map(_execute, payloads, chunksize=1)

    for point, record in zip(pending, fresh):
        records[point.index] = record
        if cache is not None:
            cache.put(point, record)

    return SweepOutcome(
        spec=spec,
        records=[r for r in records if r is not None],
        points=points,
        executed=len(pending),
        cached=cached,
        workers=workers,
        wall_time=time.perf_counter() - start,
    )


def records_to_results(records: List[Dict[str, Any]]) -> list:
    """Rehydrate ``load_point`` records into ``ExperimentResult`` objects.

    Executors serialize NaN as ``None`` (see
    :func:`repro.sweep.points.sanitize_record`); undo that here so the
    dataclasses look exactly as if ``run_load_point`` had been called
    directly.
    """
    import math

    from repro.traffic.workloads import ExperimentResult

    results = []
    for record in records:
        fixed = {
            # Only scalar measurement fields encode NaN as None; the obs
            # snapshot and extras are containers where None means "absent".
            key: math.nan if value is None and key not in ("obs", "extras") else value
            for key, value in record.items()
        }
        results.append(ExperimentResult(**fixed))
    return results


def records_to_testbed_results(records: List[Dict[str, Any]]) -> list:
    """Rehydrate ``myrinet_throughput`` records into ``TestbedResult``."""
    from repro.myrinet.testbed import TestbedResult

    results = []
    for record in records:
        fixed = dict(record)
        # JSON round-trips turn int dict keys into strings; restore them.
        for field_name in ("per_host_throughput", "per_host_loss"):
            if field_name in fixed and isinstance(fixed[field_name], dict):
                fixed[field_name] = {
                    int(k): v for k, v in fixed[field_name].items()
                }
        results.append(TestbedResult(**fixed))
    return results

"""The job scheduler: coalescing, caching, backpressure, batching.

One :class:`Scheduler` owns the job table, the FIFO queue, the worker
pool and the metrics.  The submit path decides, in order:

1. **coalesce** — an active (queued/running) job with the same content
   key absorbs the submit: N identical submits share one computation;
2. **memory hit** — a finished job still in the (bounded) history answers
   immediately;
3. **cache hit** — the on-disk :class:`~repro.sweep.cache.SweepCache`
   answers immediately (read-through); fresh results are written back on
   completion (write-through), so a *restarted* server — or a plain
   ``repro.sweep`` run pointed at the same directory — reuses them;
4. **admission control** — a full queue is an explicit ``overloaded``
   rejection rather than unbounded memory growth and silent latency;
5. **enqueue** — at the back of the queue, which runs in arrival order.

Dispatch batches up to ``batch_max`` queued jobs *of the same kind, in
arrival order* into one worker round-trip.  Failure policy: a worker
*crash* retries the batch's jobs individually with exponential backoff
(the shape of :class:`repro.core.transport_repair.RepairConfig` —
``base * factor**round`` capped at a maximum) up to ``max_retries``; a
*timeout* fails a solo job immediately but re-dispatches the members of a
multi-job batch alone once, so a hung job cannot poison its batchmates;
a deterministic executor *exception* fails the job with no retry.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    FINISHED_STATES,
    QUEUED,
    RUNNING,
    Job,
    make_point,
)
from repro.serve.workers import JobTimeout, WorkerCrashed, WorkerPool
from repro.sweep.cache import SweepCache, point_key
from repro.sweep.points import POINT_KINDS

#: Histogram bounds for the wait/exec latency families (seconds).
_LATENCY_BOUNDS = (0.0, 60.0, 60)


class Overloaded(RuntimeError):
    """Queue depth at the admission bound; the submit was shed."""


class UnknownKind(ValueError):
    """The submit names a point kind no executor is registered for."""


@dataclass
class ServeConfig:
    """Service knobs (all enforced by the scheduler, not the protocol).

    ``backoff_factor`` deliberately matches
    :class:`repro.core.transport_repair.RepairConfig` (1.5): the repair
    transport's answer to "retries amplifying an overload" applies to a
    crashed-worker retry storm just as well.
    """

    workers: int = 2
    max_queue: int = 256
    batch_max: int = 8
    job_timeout: Optional[float] = 60.0
    max_retries: int = 2
    retry_backoff: float = 0.25
    backoff_factor: float = 1.5
    max_backoff: float = 5.0
    #: Finished jobs kept addressable for ``status``/``result``.
    history: int = 1024
    #: multiprocessing start method for workers (None = platform default).
    mp_context: Optional[str] = None
    #: Identity of this instance inside a :mod:`repro.cluster` fleet
    #: (surfaced in the greeting and ``health``; None = standalone).
    shard_id: Optional[str] = None


class Scheduler:
    """Owns jobs, queue, workers and metrics; lives on one event loop."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[SweepCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        self.pool = pool or WorkerPool(
            self.config.workers, context=self.config.mp_context
        )
        self.jobs: Dict[str, Job] = {}
        # Arrival order.  A cancelled job keeps its entry until it reaches
        # the front; a requeued job gets a fresh entry at the back.
        self._queue: Deque[Job] = collections.deque()
        self._cond: Optional[asyncio.Condition] = None
        self._tasks: List[asyncio.Task] = []
        # Strong references to parked backoff-retry tasks: the event loop
        # holds tasks only weakly, so a bare create_task could be
        # garbage-collected mid-sleep, silently dropping the retry.
        self._retry_tasks: set = set()
        # Insertion-ordered finish history; a key occupies exactly one
        # slot (dict semantics), re-finishing moves it to the back.
        self._finished_order: Dict[str, None] = {}
        self._queued = 0
        self._running = 0
        self._t0 = time.monotonic()
        self._depth_tw = self.metrics.time_weighted("serve.queue_depth_tw")
        self._stopping = False

    # -- time -----------------------------------------------------------------
    def now(self) -> float:
        """Seconds since scheduler construction (the metrics time base)."""
        return time.monotonic() - self._t0

    # -- life cycle -----------------------------------------------------------
    def start(self) -> None:
        """Spawn workers and one dispatch loop per worker slot."""
        self._cond = asyncio.Condition()
        self.pool.start()
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"serve-dispatch-{i}")
            for i in range(self.pool.size)
        ]

    async def stop(self) -> None:
        """Cancel dispatch loops and tear the pool down."""
        self._stopping = True
        for task in list(self._tasks) + list(self._retry_tasks):
            task.cancel()
        for task in list(self._tasks) + list(self._retry_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        self._retry_tasks.clear()
        self.pool.close()

    # -- submit path ----------------------------------------------------------
    async def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> Tuple[Job, Dict[str, Any]]:
        """Admit one point; returns ``(job, info)``.

        ``info`` says how the submit resolved: ``{"coalesced": bool,
        "cached": bool}``.  Raises :class:`UnknownKind` or
        :class:`Overloaded`.
        """
        if kind not in POINT_KINDS:
            raise UnknownKind(
                f"unknown point kind {kind!r}; known: {sorted(POINT_KINDS)}"
            )
        now = self.now()
        point = make_point(kind, params, seed)
        key = point_key(point)
        self.metrics.counter("serve.submitted", kind=kind).add()

        existing = self.jobs.get(key)
        if existing is not None and existing.state not in FINISHED_STATES:
            existing.submits += 1
            self.metrics.counter("serve.coalesced").add()
            return existing, {"coalesced": True, "cached": False}
        if existing is not None and existing.state == DONE:
            existing.submits += 1
            self.metrics.counter("serve.cache_hits", src="memory").add()
            return existing, {"coalesced": False, "cached": True}
        # A failed/cancelled job is resubmittable: fall through and requeue.

        if self.cache is not None:
            record = self.cache.get(point)
            if record is not None:
                job = Job(id=key, point=point, submitted_at=now)
                job.finish(DONE, now, record=record, source="cache")
                self._remember(job)
                self.metrics.counter("serve.cache_hits", src="disk").add()
                return job, {"coalesced": False, "cached": True}

        if self._queued >= self.config.max_queue:
            self.metrics.counter("serve.shed", reason="queue_full").add()
            raise Overloaded(
                f"queue full ({self._queued}/{self.config.max_queue})"
            )

        job = Job(id=key, point=point, submitted_at=now)
        self._remember(job)
        await self._enqueue(job)
        return job, {"coalesced": False, "cached": False}

    def _remember(self, job: Job) -> None:
        self.jobs[job.id] = job
        if job.state in FINISHED_STATES:
            self._trim_history(job.id)
        else:
            # A resubmitted failed/cancelled key is live again; it must not
            # keep (or later duplicate) a history slot while it runs.
            self._finished_order.pop(job.id, None)

    def _trim_history(self, finished_id: str) -> None:
        # Move-to-back: one slot per key, so trimming can never evict a
        # *newer* finish through a stale duplicate entry.
        self._finished_order.pop(finished_id, None)
        self._finished_order[finished_id] = None
        while len(self._finished_order) > self.config.history:
            old_id = next(iter(self._finished_order))
            del self._finished_order[old_id]
            old = self.jobs.get(old_id)
            if old is not None and old.state in FINISHED_STATES:
                del self.jobs[old_id]

    async def _enqueue(self, job: Job) -> None:
        assert self._cond is not None, "Scheduler.start() was never called"
        async with self._cond:
            job.state = QUEUED
            self._queue.append(job)
            self._queued += 1
            self._depth_tw.update(self.now(), self._queued)
            self._cond.notify()

    # -- cancel ----------------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (lazy queue removal); raises on bad states."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.state != QUEUED:
            raise ValueError(f"job is {job.state}, only queued jobs cancel")
        job.finish(CANCELLED, self.now())
        self._queued -= 1
        self._depth_tw.update(self.now(), self._queued)
        self.metrics.counter("serve.cancelled").add()
        self._trim_history(job.id)
        return job

    # -- dispatch ---------------------------------------------------------------
    async def _next_batch(self) -> List[Job]:
        """Pop the oldest runnable batch (same kind, in arrival order)."""
        assert self._cond is not None
        async with self._cond:
            while True:
                batch = self._pop_batch_locked()
                if batch:
                    return batch
                await self._cond.wait()

    def _pop_batch_locked(self) -> List[Job]:
        batch: List[Job] = []
        while self._queue:
            job = self._queue[0]
            if job.state != QUEUED:  # cancelled while queued
                self._queue.popleft()
                continue
            if batch and (
                job.point.kind != batch[0].point.kind
                or job.solo
                or batch[0].solo
                or len(batch) >= self.config.batch_max
            ):
                break
            self._queue.popleft()
            job.state = RUNNING
            job.started_at = self.now()
            job.attempts += 1
            batch.append(job)
            if job.solo:
                break
        if batch:
            self._queued -= len(batch)
            self._running += len(batch)
            self._depth_tw.update(self.now(), self._queued)
        return batch

    async def _worker_loop(self) -> None:
        """One per worker slot: pull a batch, run it, settle the jobs."""
        while not self._stopping:
            batch = await self._next_batch()
            payloads = [(j.point.kind, j.point.executor_params()) for j in batch]
            self.metrics.counter("serve.batches").add()
            self.metrics.tally("serve.batch_size").add(len(batch))
            for job in batch:
                wait = (job.started_at or 0.0) - job.submitted_at
                self.metrics.tally("serve.wait_s").add(wait)
                self.metrics.histogram("serve.wait_s_hist", *_LATENCY_BOUNDS).add(
                    wait
                )
            try:
                replies = await self.pool.run(
                    payloads, timeout=self.config.job_timeout
                )
            except JobTimeout:
                self._running -= len(batch)
                self.metrics.counter("serve.worker_timeouts").add()
                for job in batch:
                    if len(batch) == 1 or job.solo:
                        self._fail(job, "timeout", "no reply within job_timeout")
                    else:
                        # Innocent-until-solo: rerun each alone so only the
                        # genuinely hung job times out next round.
                        job.solo = True
                        await self._requeue(job, delay=0.0)
            except WorkerCrashed as exc:
                self._running -= len(batch)
                self.metrics.counter("serve.worker_crashes").add()
                for job in batch:
                    await self._retry_or_fail(job, f"worker crashed: {exc}")
            else:
                self._running -= len(batch)
                if len(replies) != len(batch):
                    # A lying/buggy pool must not strand jobs in RUNNING:
                    # settle what was answered, fail the rest explicitly.
                    self.metrics.counter("serve.reply_mismatch").add()
                for job, reply in zip(batch, replies):
                    if reply.get("ok"):
                        self._complete(job, reply["record"])
                    else:
                        self._fail(job, "error", reply.get("error"))
                for job in batch[len(replies):]:
                    self._fail(
                        job,
                        "reply_mismatch",
                        f"pool returned {len(replies)} replies "
                        f"for {len(batch)} jobs",
                    )

    async def _retry_or_fail(self, job: Job, detail: str) -> None:
        if job.attempts > self.config.max_retries:
            self._fail(job, "crash", detail)
            return
        delay = min(
            self.config.retry_backoff
            * self.config.backoff_factor ** (job.attempts - 1),
            self.config.max_backoff,
        )
        self.metrics.counter("serve.retries").add()
        await self._requeue(job, delay=delay)

    async def _requeue(self, job: Job, delay: float) -> None:
        if delay <= 0:
            await self._enqueue(job)
            return

        async def later() -> None:
            await asyncio.sleep(delay)
            if not self._stopping and job.state == RUNNING:
                await self._enqueue(job)

        # Park the job off-queue for the backoff window; its state stays
        # RUNNING so coalescing still finds it and cancel refuses it.  The
        # task set keeps a strong reference for the sleep's duration.
        task = asyncio.create_task(later())
        self._retry_tasks.add(task)
        task.add_done_callback(self._retry_tasks.discard)

    def _complete(self, job: Job, record: Dict[str, Any]) -> None:
        now = self.now()
        job.finish(DONE, now, record=record, source="executed")
        self.metrics.counter("serve.executed", kind=job.point.kind).add()
        self.metrics.counter("serve.completed", kind=job.point.kind).add()
        exec_s = now - (job.started_at or now)
        self.metrics.tally("serve.exec_s").add(exec_s)
        self.metrics.histogram("serve.exec_s_hist", *_LATENCY_BOUNDS).add(exec_s)
        if self.cache is not None:
            self.cache.put(job.point, record)
        self._trim_history(job.id)

    def _fail(self, job: Job, reason: str, detail: Optional[str]) -> None:
        job.finish(
            FAILED, self.now(), error=f"{reason}: {detail}" if detail else reason
        )
        self.metrics.counter("serve.failed", reason=reason).add()
        self._trim_history(job.id)

    # -- introspection -----------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "shard": self.config.shard_id,
            "uptime_s": round(self.now(), 3),
            "workers": self.pool.size,
            "workers_alive": self.pool.alive_count(),
            "worker_replacements": self.pool.replacements,
            "queued": self._queued,
            "running": self._running,
            "jobs_tracked": len(self.jobs),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot with the point-in-time gauges filled in."""
        now = self.now()
        gauge = self.metrics.gauge
        gauge("serve.queue_depth").set(self._queued)
        gauge("serve.running").set(self._running)
        gauge("serve.workers_alive").set(self.pool.alive_count())
        gauge("serve.jobs_tracked").set(len(self.jobs))
        if self.cache is not None:
            gauge("serve.disk_cache_hits").set(self.cache.hits)
            gauge("serve.disk_cache_misses").set(self.cache.misses)
        return self.metrics.snapshot(now)

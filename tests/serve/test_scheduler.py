"""Scheduler-level tests: keying, admission, rate limiting, job life cycle."""

import asyncio
import gc
import multiprocessing

import pytest

from repro.serve.jobs import DONE, FAILED, FINISHED_STATES, RUNNING, make_point
from repro.serve.scheduler import Scheduler, ServeConfig, TokenBucket
from repro.serve.workers import WorkerCrashed
from repro.sweep.cache import SweepCache
from repro.sweep.spec import SweepSpec


class StubPool:
    """Quacks like a WorkerPool without spawning any processes."""

    def __init__(self, size: int = 1):
        self.size = size
        self.replacements = 0

    def start(self):
        pass

    def close(self):
        pass

    def alive_count(self):
        return self.size

    async def run(self, payloads, timeout=None):
        return [{"ok": True, "record": {"ran": kind}} for kind, _ in payloads]


async def _settle(jobs, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while any(j.state not in FINISHED_STATES for j in jobs):
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"jobs stuck in {[j.state for j in jobs]}"
            )
        await asyncio.sleep(0.01)


def test_make_point_seed_precedence():
    assert make_point("nap", {"x": 1}).seed == 1
    assert make_point("nap", {"x": 1}, seed=9).seed == 9
    # A seed inside params wins over the explicit argument, mirroring
    # SweepSpec.points() (a "seed" axis overrides derivation).
    assert make_point("nap", {"x": 1, "seed": 4}, seed=9).seed == 4


def test_job_id_equals_sweep_cache_key(tmp_path):
    """The service's content address IS the on-disk cache address."""
    spec = SweepSpec(
        kind="myrinet_throughput",
        grid={"packet_size": [1024]},
        base={"warmup_us": 5_000.0, "measure_us": 20_000.0},
    )
    sweep_point = spec.points()[0]
    serve_point = make_point(
        sweep_point.kind, sweep_point.params, seed=sweep_point.seed
    )
    cache = SweepCache(tmp_path)
    assert cache.key(serve_point) == cache.key(sweep_point)


def test_make_point_params_are_copied():
    params = {"duration": 0.1}
    point = make_point("nap", params)
    params["duration"] = 99.0
    assert point.params["duration"] == 0.1


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
    assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]
    # 0.5s at 2 tokens/s refills one token — and only one.
    assert bucket.try_take(0.5) is True
    assert bucket.try_take(0.5) is False


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
    bucket.try_take(0.0)
    # A long idle period must not accumulate more than `burst` tokens.
    assert [bucket.try_take(1000.0) for _ in range(3)] == [True, True, False]


# -- lying-pool hardening ------------------------------------------------------
def test_short_reply_list_fails_unmatched_jobs_explicitly():
    """Regression: a pool answering fewer replies than jobs used to strand
    the unmatched jobs in RUNNING forever (zip truncated silently)."""

    class LyingPool(StubPool):
        def __init__(self):
            super().__init__()
            self.gate = asyncio.Event()
            self.calls = 0

        async def run(self, payloads, timeout=None):
            self.calls += 1
            if self.calls == 1:
                await self.gate.wait()
                return []  # nothing for a one-job batch
            # One reply short for every later batch.
            return [{"ok": True, "record": {"i": i}} for i in range(len(payloads) - 1)]

    async def main():
        pool = LyingPool()
        sched = Scheduler(ServeConfig(workers=1, batch_max=8), pool=pool)
        sched.start()
        try:
            first, _ = await sched.submit("nap", {"duration": 0.0, "tag": "l0"})
            while first.state != RUNNING:  # parked in the gated pool call
                await asyncio.sleep(0.01)
            second, _ = await sched.submit("nap", {"duration": 0.0, "tag": "l1"})
            third, _ = await sched.submit("nap", {"duration": 0.0, "tag": "l2"})
            pool.gate.set()
            await _settle([first, second, third])
            assert first.state == FAILED
            assert "reply_mismatch" in (first.error or "")
            assert second.state == DONE and second.record == {"i": 0}
            assert third.state == FAILED
            assert "reply_mismatch" in (third.error or "")
            assert sched.running == 0 and sched.queue_depth == 0
            mismatches = [
                e
                for e in sched.snapshot()["metrics"]
                if e["name"] == "serve.reply_mismatch"
            ]
            assert mismatches and mismatches[0]["value"] == 2.0
        finally:
            await sched.stop()

    asyncio.run(main())


# -- backoff-retry task lifetime -----------------------------------------------
def test_backoff_retry_survives_garbage_collection():
    """Regression: the parked retry task was held by nothing but the event
    loop's weak references, so a gc pass could silently drop the retry."""

    class CrashOncePool(StubPool):
        def __init__(self):
            super().__init__()
            self.calls = 0

        async def run(self, payloads, timeout=None):
            self.calls += 1
            if self.calls == 1:
                raise WorkerCrashed("synthetic crash")
            return [{"ok": True, "record": {"attempt": self.calls}} for _ in payloads]

    async def main():
        # The backoff must outlast the three collections below: in a full
        # tier-1 run each pass takes ~0.1 s, and ~0.2 s when it finds
        # garbage earlier tests left.
        config = ServeConfig(
            workers=1, retry_backoff=2.0, backoff_factor=1.0, max_retries=2
        )
        sched = Scheduler(config, pool=CrashOncePool())
        sched.start()
        try:
            job, _ = await sched.submit("nap", {"duration": 0.0, "tag": "gc"})
            deadline = asyncio.get_running_loop().time() + 10.0
            while not sched._retry_tasks:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert job.state == RUNNING  # parked off-queue for the backoff
            for _ in range(3):
                gc.collect()
                await asyncio.sleep(0.02)
            assert sched._retry_tasks, "retry task was garbage-collected"
            await _settle([job])
            assert job.state == DONE and job.attempts == 2
            assert job.record == {"attempt": 2}
            await asyncio.sleep(0.05)  # done-callback drains the task set
            assert not sched._retry_tasks
        finally:
            await sched.stop()

    asyncio.run(main())


# -- rate-bucket pruning -------------------------------------------------------
def test_prune_buckets_is_lossless_and_throttled():
    sched = Scheduler(
        ServeConfig(rate=10.0, burst=20.0, bucket_idle_s=10.0),
        pool=StubPool(),
    )
    hot = TokenBucket(rate=10.0, burst=20.0, now=9.5)
    idle_full = TokenBucket(rate=10.0, burst=20.0, now=0.0)
    # Idle past the horizon but NOT refilled to burst: pruning it would
    # hand the client a fresh (full) bucket, i.e. free tokens.
    drained = TokenBucket(rate=0.001, burst=20.0, now=0.0)
    drained.tokens = 0.0
    sched._buckets = {"hot": hot, "idle_full": idle_full, "drained": drained}
    sched._next_bucket_prune = 0.0
    sched._prune_buckets(10.0)
    assert set(sched._buckets) == {"hot", "drained"}
    # Sweeps are throttled to one per half horizon.
    sched._buckets["idle2"] = TokenBucket(rate=10.0, burst=20.0, now=0.0)
    sched._prune_buckets(10.5)
    assert "idle2" in sched._buckets
    sched._prune_buckets(15.0)
    assert "idle2" not in sched._buckets


def test_fork_start_method_available():
    """The crash tests rely on fork inheritance of test-registered kinds;
    document the assumption rather than failing mysteriously elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    assert "fork" in methods or "spawn" in methods

"""Process-pool workers with crash detection, replacement and job timeouts.

``multiprocessing.Pool`` cannot kill a hung task, so the service rolls its
own minimal pool: one OS process per worker, spoken to over a ``Pipe``.
The asyncio scheduler talks to a worker through a thread (one per worker,
via a ``ThreadPoolExecutor``) that blocks on the pipe with a deadline:

* result arrives in time  -> list of per-point replies;
* deadline passes         -> the worker *process is terminated* (the only
  way to stop a hung simulation) and :class:`JobTimeout` raised;
* process died under us   -> :class:`WorkerCrashed` raised.

Either failure replaces the dead process with a fresh one before the
worker slot is released, so one pathological job can never shrink the
pool.  A dispatch is a *batch* — a list of ``(kind, params)`` payloads
executed sequentially in the child — which amortizes IPC per point;
results are independent per point, so batching cannot change any record
(each point still builds its own simulator from its own seed).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import stat
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

Payload = Tuple[str, Dict[str, Any]]

#: Seconds between liveness checks while blocking on a worker pipe.
_POLL_INTERVAL = 0.25


class WorkerCrashed(RuntimeError):
    """The worker process died before answering (segfault, OOM-kill, ...)."""


class JobTimeout(RuntimeError):
    """The dispatch exceeded its deadline; the worker was terminated."""


def _release_inherited_sockets(keep: int) -> None:  # pragma: no cover - child
    """Point every socket a forked worker inherited, except ``keep``, at
    ``/dev/null``.

    A fork copies the server's descriptors: its listening socket (and
    those of every other server in the process, as with in-process
    fleets) and the parent ends of worker pipes.  A worker holding them
    keeps a stopped server's port accepting connections nobody answers,
    and keeps its own pipe from reading EOF when the server dies.
    ``dup2`` rather than ``close`` keeps the descriptor numbers taken, so a
    stale socket object finalised later in the child closes ``/dev/null``
    instead of a reused descriptor.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, already gone
                pass
    finally:
        os.close(null)


def _worker_main(conn) -> None:  # pragma: no cover - runs in child process
    """Child loop: receive a batch, execute each point, send replies back.

    Executor exceptions are caught *per point* and shipped back as error
    replies — a deterministic executor failure must fail its job, not the
    worker.  Only real process death (or a hang) is a pool-level event.
    Once the inherited sockets are released, the pipe reads EOF when the
    parent dies, however it died, and the worker exits.
    """
    _release_inherited_sockets(keep=conn.fileno())
    from repro.sweep.points import execute_point

    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if batch is None:
            return
        replies = []
        for kind, params in batch:
            try:
                replies.append({"ok": True, "record": execute_point(kind, params)})
            except Exception as exc:  # noqa: BLE001 - forwarded to the job
                replies.append(
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
        try:
            conn.send(replies)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One live worker process and its parent-side pipe end."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.dispatches = 0

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=2.0)


class WorkerPool:
    """Fixed-size pool of replaceable worker processes.

    ``run`` is the async entry: it borrows a free worker, performs the
    blocking pipe exchange on a dedicated thread, and always returns the
    slot — with a *fresh* process if this dispatch killed the old one.
    """

    def __init__(self, size: int, context: Optional[str] = None) -> None:
        self.size = max(1, int(size))
        self._ctx = (
            multiprocessing.get_context(context)
            if context
            else multiprocessing.get_context()
        )
        self._threads = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="serve-worker"
        )
        self._free: Optional[asyncio.Queue] = None
        self._workers: List[_Worker] = []
        self.replacements = 0
        self._closed = False

    def start(self) -> None:
        """Spawn the worker processes (call from the serving event loop)."""
        self._free = asyncio.Queue()
        self._workers = [_Worker(self._ctx) for _ in range(self.size)]
        for worker in self._workers:
            self._free.put_nowait(worker)

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.alive())

    async def run(
        self, payloads: List[Payload], timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Execute ``payloads`` on one worker; one reply dict per payload.

        Raises :class:`JobTimeout` or :class:`WorkerCrashed`; in both cases
        the implicated process has already been replaced.
        """
        if self._free is None:
            raise RuntimeError("WorkerPool.start() was never called")
        worker = await self._free.get()
        loop = asyncio.get_running_loop()
        try:
            replies = await loop.run_in_executor(
                self._threads, self._exchange, worker, payloads, timeout
            )
            worker.dispatches += 1
            return replies
        except (JobTimeout, WorkerCrashed):
            worker = self._replace(worker)
            raise
        finally:
            if not self._closed:
                self._free.put_nowait(worker)

    def _exchange(
        self, worker: _Worker, payloads: List[Payload], timeout: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Blocking request/response on the worker pipe (executor thread)."""
        try:
            worker.conn.send(payloads)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed("worker pipe closed on send") from None
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise JobTimeout(f"no reply within {timeout:g}s")
            poll_for = (
                _POLL_INTERVAL
                if remaining is None
                else min(_POLL_INTERVAL, remaining)
            )
            try:
                ready = worker.conn.poll(poll_for)
            except (BrokenPipeError, OSError):
                raise WorkerCrashed("worker pipe closed while waiting") from None
            if ready:
                try:
                    return worker.conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashed("worker died mid-reply") from None
            if not worker.alive():
                # One last poll: the reply may have landed just before exit.
                if worker.conn.poll(0):
                    try:
                        return worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                raise WorkerCrashed(
                    f"worker exited with code {worker.process.exitcode}"
                )

    def _replace(self, worker: _Worker) -> _Worker:
        """Terminate ``worker`` and return a fresh process for its slot."""
        worker.kill()
        fresh = _Worker(self._ctx)
        try:
            index = self._workers.index(worker)
            self._workers[index] = fresh
        except ValueError:  # pragma: no cover - defensive
            self._workers.append(fresh)
        self.replacements += 1
        return fresh

    def close(self) -> None:
        """Stop every worker and release the exchange threads."""
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.kill()
        self._workers = []
        self._threads.shutdown(wait=False, cancel_futures=True)

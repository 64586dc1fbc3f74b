"""The asyncio TCP front end: NDJSON requests in, NDJSON responses out.

:class:`ServeServer` binds a socket, greets each connection with one
banner line, then answers requests strictly in order (a ``result`` with
``wait`` parks only its own connection).  All scheduling decisions live in
:class:`~repro.serve.scheduler.Scheduler`; this module only translates
between wire messages and scheduler calls — including translating
scheduler rejections (:class:`Overloaded`, :class:`RateLimited`) into the
explicit backpressure responses clients act on.

:class:`ServerThread` runs the whole service on a private event loop in a
background thread — the harness tests and scripts use to stand up a live
server inside one process.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, Optional, Tuple

from repro.serve import protocol
from repro.serve.jobs import CANCELLED, DONE, FAILED
from repro.serve.scheduler import (
    Overloaded,
    RateLimited,
    Scheduler,
    ServeConfig,
    UnknownKind,
)
from repro.sweep.cache import SweepCache

#: Cap on a server-side ``result wait`` park (seconds); clients needing
#: longer poll again — keeps one dead client from pinning state forever.
MAX_WAIT_S = 300.0


class ServeServer:
    """One listening socket fronting one scheduler."""

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None

    # -- life cycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Start workers and begin listening; returns the bound address."""
        self._stop_event = asyncio.Event()
        self.scheduler.start()
        # The documented 1 MiB line cap must be the *stream's* limit too:
        # asyncio defaults to 64 KiB, which would reject legitimate large
        # submits long before protocol.decode_message ever saw them.
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or the ``shutdown`` op)."""
        assert self._stop_event is not None, "start() was never called"
        await self._stop_event.wait()
        await self.stop()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # -- connection handling ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        greeting = dict(protocol.GREETING)
        if self.scheduler.config.shard_id is not None:
            greeting["shard"] = self.scheduler.config.shard_id
        try:
            writer.write(protocol.encode_message(greeting))
            await writer.drain()
            while True:
                line = await self._read_line(reader)
                if line is None:
                    # Oversized line: it was discarded exactly through its
                    # newline, so the stream is resynced — answer the error
                    # and keep serving the connection.
                    writer.write(
                        protocol.encode_message(
                            protocol.error_response(
                                "bad_request",
                                f"request line exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode_message(line)
                except protocol.ProtocolError as exc:
                    writer.write(
                        protocol.encode_message(
                            protocol.error_response("bad_request", str(exc))
                        )
                    )
                    await writer.drain()
                    continue
                response = await self._dispatch(message, peer_id)
                if "seq" in message:
                    response["seq"] = message["seq"]
                writer.write(protocol.encode_message(response))
                await writer.drain()
                if message.get("op") == "shutdown" and response.get("ok"):
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown with this connection parked (e.g. a
            # ``result wait`` against a shard being killed): end quietly,
            # the socket dies with the loop.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
        """One request line; b"" on EOF; None for an oversized line.

        ``readline`` reports an over-limit line as a bare ``ValueError``
        (never the :class:`asyncio.LimitOverrunError` it wraps) and leaves
        the stream mid-line; ``readuntil`` raises *without consuming*, so
        the oversized line can be discarded precisely through its newline
        (``LimitOverrunError.consumed`` bytes at a time) and the
        connection stays usable for the next request.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial  # EOF (b"" or a final unterminated line)
        except asyncio.LimitOverrunError:
            pass
        while True:
            try:
                await reader.readuntil(b"\n")
                return None  # resynced just past the oversized line
            except asyncio.IncompleteReadError:
                return b""  # EOF while discarding
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)

    # -- request dispatch --------------------------------------------------------
    async def _dispatch(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        op = message.get("op")
        if op not in protocol.OPS:
            return protocol.error_response(
                "unknown_op", f"op {op!r} not in {list(protocol.OPS)}"
            )
        self.scheduler.metrics.counter("serve.requests", op=op).add()
        handler = getattr(self, f"_op_{op}")
        try:
            return await handler(message, peer_id)
        except protocol.ProtocolError as exc:
            return protocol.error_response("bad_request", str(exc))

    @staticmethod
    def _job_or_error(scheduler: Scheduler, message: Dict[str, Any]):
        job_id = message.get("job")
        if not isinstance(job_id, str):
            raise protocol.ProtocolError("missing/invalid 'job' field")
        job = scheduler.jobs.get(job_id)
        if job is None:
            return None, protocol.error_response("unknown_job", job_id)
        return job, None

    async def _op_submit(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        kind = message.get("kind")
        if not isinstance(kind, str):
            raise protocol.ProtocolError("missing/invalid 'kind' field")
        params = message.get("params", {})
        if not isinstance(params, dict):
            raise protocol.ProtocolError("'params' must be a JSON object")
        seed = message.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise protocol.ProtocolError("'seed' must be an integer")
        priority = message.get("priority", 0)
        if not isinstance(priority, int):
            raise protocol.ProtocolError("'priority' must be an integer")
        client = message.get("client") or peer_id
        try:
            job, info = await self.scheduler.submit(
                kind, params, seed=seed, priority=priority, client=str(client)
            )
        except UnknownKind as exc:
            return protocol.error_response("unknown_kind", str(exc))
        except Overloaded as exc:
            return protocol.error_response(
                "overloaded", str(exc), queued=self.scheduler.queue_depth
            )
        except RateLimited as exc:
            return protocol.error_response("rate_limited", str(exc))
        return protocol.ok_response(
            job=job.id,
            state=job.state,
            coalesced=info["coalesced"],
            cached=info["cached"],
            queued=self.scheduler.queue_depth,
        )

    async def _op_status(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        job, error = self._job_or_error(self.scheduler, message)
        if error:
            return error
        return protocol.ok_response(**job.status_fields())

    async def _op_result(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        timeout = message.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise protocol.ProtocolError("'timeout' must be a number")
        job, error = self._job_or_error(self.scheduler, message)
        if error:
            return error
        if message.get("wait") and job.state not in (DONE, FAILED, CANCELLED):
            wait_s = min(
                float(timeout) if timeout is not None else MAX_WAIT_S, MAX_WAIT_S
            )
            try:
                await asyncio.wait_for(job.finished.wait(), timeout=wait_s)
            except asyncio.TimeoutError:
                return protocol.error_response(
                    "timeout", f"job not finished within {wait_s:g}s",
                    job=job.id, state=job.state,
                )
        if job.state == DONE:
            return protocol.ok_response(
                job=job.id, state=DONE, source=job.source, record=job.record
            )
        if job.state == FAILED:
            return protocol.error_response(
                "failed", job.error, job=job.id, state=FAILED
            )
        if job.state == CANCELLED:
            return protocol.error_response("cancelled", job=job.id, state=CANCELLED)
        return protocol.error_response("pending", job=job.id, state=job.state)

    async def _op_cancel(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        job, error = self._job_or_error(self.scheduler, message)
        if error:
            return error
        try:
            self.scheduler.cancel(job.id)
        except ValueError as exc:
            return protocol.error_response(
                "not_cancellable", str(exc), job=job.id, state=job.state
            )
        return protocol.ok_response(job=job.id, state=job.state)

    async def _op_health(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        body = self.scheduler.health()
        body.update(version=protocol.PROTOCOL_VERSION, pid=os.getpid())
        return protocol.ok_response(**body)

    async def _op_metrics(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        return protocol.ok_response(snapshot=self.scheduler.snapshot())

    async def _op_shutdown(
        self, message: Dict[str, Any], peer_id: str
    ) -> Dict[str, Any]:
        return protocol.ok_response(stopping=True)


class ServerThread:
    """A live server on a private event loop in a daemon thread.

    Usage::

        server = ServerThread(ServeConfig(workers=2), cache_dir=tmp)
        host, port = server.start()
        ... ServeClient(host, port) ...
        server.stop()

    The scheduler is exposed as :attr:`scheduler` for white-box
    assertions; read it only after the traffic of interest has settled.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache_dir = cache_dir
        self.host = host
        self.port = port
        self.scheduler: Optional[Scheduler] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServeServer] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("serve thread failed") from self._startup_error
        return self.host, self.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        cache = SweepCache(self.cache_dir) if self.cache_dir else None
        self.scheduler = Scheduler(self.config, cache=cache)
        self._server = ServeServer(self.scheduler, self.host, self.port)
        self._loop = asyncio.get_running_loop()
        self.host, self.port = await self._server.start()
        self._ready.set()
        await self._server.serve_until_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_stop)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Asyncio HTTP/1.1 JSON gateway in front of the NDJSON-TCP fleet.

Browsers, curl and load balancers speak HTTP, the shards speak
newline-delimited JSON over TCP; this module is the translation layer —
stdlib only, one event loop, no threads per request.  Each HTTP request
maps to exactly one protocol verb:

====================================  =====================================
HTTP                                  NDJSON-TCP
====================================  =====================================
``POST /submit`` (JSON body)          ``{"op": "submit", ...}``
``GET /result/{id}?wait=1&timeout=N`` ``{"op": "result", ...}``
``GET /status/{id}``                  ``{"op": "status", ...}``
``POST /cancel/{id}``                 ``{"op": "cancel", ...}``
``GET /health``                       fleet-merged ``{"op": "health"}``
``GET /metrics``                      fleet-merged ``{"op": "metrics"}``
====================================  =====================================

Routing follows the same consistent-hash preference order as
:class:`~repro.cluster.client.ClusterClient` (the gateway computes job
keys with the shared keyer), with the same failover move: an unreachable
shard is marked down and the next owner tried; a replica that never saw
a job gets it resubmitted from the gateway's bounded spec memo, and
determinism makes the re-execution byte-identical.

Protocol error codes map onto HTTP status codes (`overloaded` → 503,
``rate_limited`` → 429, ``unknown_job`` → 404, ...); every response body
is the raw JSON the protocol layer produced, so an HTTP client sees
exactly what a TCP client would.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.cluster.client import MAX_SPEC_MEMO, ShardSpec
from repro.cluster.ring import HashRing
from repro.serve import protocol
from repro.serve.jobs import make_point
from repro.sweep.cache import SweepCache, code_fingerprint

#: Cap on one HTTP header line / body (reuses the NDJSON line budget).
MAX_BODY_BYTES = protocol.MAX_LINE_BYTES

#: Seconds allowed for connect + greeting on a shard connection.
CONNECT_TIMEOUT = 10.0

#: Slack added to a ``wait`` park before the gateway-side read deadline.
WAIT_SLACK = 15.0

#: HTTP status for each protocol error code (default 400).
STATUS_FOR_ERROR = {
    "bad_request": 400,
    "unknown_op": 400,
    "unknown_kind": 400,
    "unknown_job": 404,
    "not_cancellable": 409,
    "pending": 202,
    "failed": 500,
    "cancelled": 410,
    "timeout": 504,
    "overloaded": 503,
    "rate_limited": 429,
    "cluster_down": 503,
}


class _BadRequest(ValueError):
    """A malformed HTTP request (answered with a 400 and a JSON body)."""


class ClusterGateway:
    """One HTTP listening socket fronting a fleet of serve shards."""

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        keyer: Optional[SweepCache] = None,
        wait_cap: float = 300.0,
    ) -> None:
        self.shards = {spec.id: spec for spec in shards}
        if len(self.shards) != len(shards):
            raise ValueError(f"duplicate shard ids: {[s.id for s in shards]}")
        self.ring = HashRing(list(self.shards))
        self.replicas = max(1, int(replicas))
        self.host = host
        self.port = port
        self.wait_cap = float(wait_cap)
        self._keyer = keyer or SweepCache(
            Path("."), code_hash=code_fingerprint()
        )
        self._down: set = set()
        self._specs: Dict[str, Dict[str, Any]] = {}
        self._server: Optional[asyncio.base_events.Server] = None

    # -- life cycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_BODY_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- shard transport --------------------------------------------------------
    async def _shard_call(
        self,
        shard_id: str,
        message: Dict[str, Any],
        read_timeout: Optional[float],
    ) -> Dict[str, Any]:
        """One NDJSON round trip to ``shard_id`` on a fresh connection."""
        spec = self.shards[shard_id]
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                spec.host, spec.port, limit=protocol.MAX_LINE_BYTES
            ),
            timeout=CONNECT_TIMEOUT,
        )
        try:
            greeting = await asyncio.wait_for(
                reader.readline(), timeout=CONNECT_TIMEOUT
            )
            if not greeting:
                raise ConnectionError(f"shard {shard_id} closed on greeting")
            responses = []
            requests = message if isinstance(message, list) else [message]
            for request in requests:
                writer.write(protocol.encode_message(request))
            await writer.drain()
            for _request in requests:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=read_timeout
                )
                if not line:
                    raise ConnectionError(f"shard {shard_id} closed mid-call")
                responses.append(protocol.decode_message(line))
            return responses[-1]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def mark_down(self, shard_id: str) -> None:
        """Tell the router a shard is gone (e.g. its process exited)."""
        self._down.add(shard_id)

    async def _probe(self, shard_id: str) -> bool:
        try:
            response = await self._shard_call(
                shard_id, {"op": "health"}, read_timeout=CONNECT_TIMEOUT
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self._down.add(shard_id)
            return False
        if response.get("ok"):
            self._down.discard(shard_id)
            return True
        self._down.add(shard_id)
        return False

    async def _routed_call(
        self,
        key: str,
        message: Dict[str, Any],
        read_timeout: Optional[float],
    ) -> Dict[str, Any]:
        """``_shard_call`` on the key's first reachable owner, with failover."""
        owners = self.ring.owners(key, self.replicas)
        live = [s for s in owners if s not in self._down]
        if not live:
            live = [s for s in owners if await self._probe(s)]
        last: Optional[BaseException] = None
        for shard_id in live:
            try:
                response = await self._shard_call(
                    shard_id, message, read_timeout
                )
                if (
                    response.get("error") == "unknown_job"
                    and key in self._specs
                ):
                    # Failover landed on a replica that never saw the job:
                    # pipeline a resubmit ahead of the original verb.  The
                    # content address is the same, the executor is
                    # deterministic, so the record is byte-identical.
                    response = await self._shard_call(
                        shard_id,
                        [self._submit_message(self._specs[key]), message],
                        read_timeout,
                    )
                response.setdefault("shard", shard_id)
                return response
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                self._down.add(shard_id)
                last = exc
        return protocol.error_response(
            "cluster_down",
            f"no live shard for key {key[:16]}... (owners {owners}): {last}",
        )

    @staticmethod
    def _submit_message(spec: Dict[str, Any]) -> Dict[str, Any]:
        message = {"op": "submit", "kind": spec["kind"]}
        for field in ("params", "seed", "priority", "client"):
            if spec.get(field) is not None:
                message[field] = spec[field]
        return message

    def _memo(self, key: str, spec: Dict[str, Any]) -> None:
        self._specs.pop(key, None)
        self._specs[key] = spec
        while len(self._specs) > MAX_SPEC_MEMO:
            del self._specs[next(iter(self._specs))]

    # -- HTTP plumbing -----------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer,
                        400,
                        protocol.error_response("bad_request", str(exc)),
                        close=True,
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload = await self._dispatch(method, target, body)
                keep = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, close=not keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _BadRequest("request line too long") from None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("header line too long") from None
            if not line:
                raise _BadRequest("connection closed inside headers")
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _sep, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(f"bad Content-Length {length_text!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _BadRequest("connection closed inside body") from None
        return method.upper(), target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        close: bool,
    ) -> None:
        body = (
            json.dumps(
                payload, sort_keys=True, separators=(",", ":"), allow_nan=False
            )
            + "\n"
        ).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request"}.get(
            status, "Status"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- dispatch ---------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        url = urlsplit(target)
        path = [part for part in url.path.split("/") if part]
        query = {
            name: values[-1] for name, values in parse_qs(url.query).items()
        }
        try:
            if method == "POST" and path == ["submit"]:
                return await self._http_submit(body)
            if method == "GET" and len(path) == 2 and path[0] == "result":
                return await self._http_result(path[1], query)
            if method == "GET" and len(path) == 2 and path[0] == "status":
                return self._status_of(
                    await self._routed_call(
                        path[1],
                        {"op": "status", "job": path[1]},
                        read_timeout=CONNECT_TIMEOUT,
                    )
                )
            if method == "POST" and len(path) == 2 and path[0] == "cancel":
                return self._status_of(
                    await self._routed_call(
                        path[1],
                        {"op": "cancel", "job": path[1]},
                        read_timeout=CONNECT_TIMEOUT,
                    )
                )
            if method == "GET" and path == ["health"]:
                return await self._http_health()
            if method == "GET" and path == ["metrics"]:
                return await self._http_metrics()
        except _BadRequest as exc:
            return 400, protocol.error_response("bad_request", str(exc))
        return 404, protocol.error_response(
            "bad_request", f"no route for {method} {url.path}"
        )

    @staticmethod
    def _status_of(response: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        if response.get("ok"):
            return 200, response
        return STATUS_FOR_ERROR.get(response.get("error"), 400), response

    async def _http_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            spec = protocol.decode_message(body or b"{}")
        except protocol.ProtocolError as exc:
            raise _BadRequest(f"request body: {exc}") from None
        if not isinstance(spec.get("kind"), str):
            raise _BadRequest("body must be a JSON object with a 'kind'")
        params = spec.get("params")
        if params is not None and not isinstance(params, dict):
            raise _BadRequest("'params' must be a JSON object")
        seed = spec.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise _BadRequest("'seed' must be an integer")
        memo = {
            "kind": spec["kind"],
            "params": params,
            "seed": seed,
            "priority": spec.get("priority"),
            "client": spec.get("client"),
        }
        key = self._keyer.key(make_point(spec["kind"], params, seed))
        self._memo(key, memo)
        response = await self._routed_call(
            key, self._submit_message(memo), read_timeout=CONNECT_TIMEOUT
        )
        return self._status_of(response)

    async def _http_result(
        self, job: str, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        wait = query.get("wait", "0").lower() in ("1", "true", "yes")
        timeout: Optional[float] = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"])
            except ValueError:
                timeout = math.nan
            if not math.isfinite(timeout):
                raise _BadRequest(
                    f"bad timeout {query['timeout']!r}: not a finite number"
                )
        message: Dict[str, Any] = {"op": "result", "job": job}
        read_timeout: Optional[float] = CONNECT_TIMEOUT
        if wait:
            message["wait"] = True
            wait_s = min(
                timeout if timeout is not None else self.wait_cap,
                self.wait_cap,
            )
            message["timeout"] = wait_s
            read_timeout = wait_s + WAIT_SLACK
        response = await self._routed_call(job, message, read_timeout)
        return self._status_of(response)

    async def _http_health(self) -> Tuple[int, Dict[str, Any]]:
        shards: Dict[str, Any] = {}
        for shard_id in sorted(self.shards):
            if await self._probe(shard_id):
                response = await self._shard_call(
                    shard_id, {"op": "health"}, read_timeout=CONNECT_TIMEOUT
                )
                response.pop("ok", None)
                shards[shard_id] = response
            else:
                shards[shard_id] = {"status": "down"}
        alive = sum(
            1 for body in shards.values() if body.get("status") == "ok"
        )
        status = (
            "ok" if alive == len(shards) else ("degraded" if alive else "down")
        )
        payload = protocol.ok_response(
            status=status,
            shards_total=len(shards),
            shards_alive=alive,
            shards=shards,
        )
        return (200 if alive else 503), payload

    async def _http_metrics(self) -> Tuple[int, Dict[str, Any]]:
        from repro.obs import merge_snapshots

        snapshots: List[Dict[str, Any]] = []
        for shard_id in sorted(self.shards):
            if shard_id in self._down and not await self._probe(shard_id):
                continue
            try:
                response = await self._shard_call(
                    shard_id, {"op": "metrics"}, read_timeout=CONNECT_TIMEOUT
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                self._down.add(shard_id)
                continue
            if response.get("ok"):
                snapshots.append(response["snapshot"])
        return 200, protocol.ok_response(
            snapshot=merge_snapshots(snapshots), shards_merged=len(snapshots)
        )


class GatewayThread:
    """A live gateway on a private event loop in a daemon thread.

    The HTTP analogue of :class:`repro.serve.server.ServerThread`::

        gateway = GatewayThread(shard_specs)
        host, port = gateway.start()
        ... urllib / curl against http://host:port ...
        gateway.stop()
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.shards = list(shards)
        self.replicas = replicas
        self.host = host
        self.port = port
        self.gateway: Optional[ClusterGateway] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                "gateway thread failed"
            ) from self._startup_error
        return self.host, self.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.gateway = ClusterGateway(
            self.shards,
            replicas=self.replicas,
            host=self.host,
            port=self.port,
        )
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.gateway.start()
        self._ready.set()
        await self._stop.wait()
        await self.gateway.stop()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "GatewayThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

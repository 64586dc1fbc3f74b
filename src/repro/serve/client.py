"""A small blocking client for the simulation service.

Deliberately synchronous (plain ``socket``): usable from scripts, tests
and notebooks without touching asyncio.  One request per call, one
response per request — the server answers a connection's requests in
order, so no sequence bookkeeping is needed; open one client per thread
for concurrency.

Usage::

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", 7411) as client:
        record = client.submit_and_wait(
            "load_point",
            {"topology": "torus", "rows": 8, "cols": 8,
             "scheme": "hamiltonian-sf", "load": 0.05},
        )
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional

from repro.serve import protocol


class ServeError(RuntimeError):
    """A structured server-side rejection (carries the protocol code)."""

    def __init__(self, code: str, detail: Optional[str] = None, **fields: Any):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
        self.fields = fields


class ServeClient:
    """One TCP connection to a :class:`~repro.serve.server.ServeServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7411, timeout: float = 60.0
    ) -> None:
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rwb")
        self.greeting = self._read()
        if self.greeting.get("serve") != "repro":
            raise ServeError("bad_greeting", f"unexpected banner {self.greeting!r}")

    @property
    def shard(self) -> Optional[str]:
        """The server's fleet identity from the greeting (None standalone)."""
        return self.greeting.get("shard")

    # -- transport ------------------------------------------------------------
    def _read(self) -> Dict[str, Any]:
        line = self._fh.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_message(line)

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, return the raw response dict (no raising)."""
        message = {"op": op}
        message.update({k: v for k, v in fields.items() if v is not None})
        self._fh.write(protocol.encode_message(message))
        self._fh.flush()
        return self._read()

    def _checked(self, op: str, **fields: Any) -> Dict[str, Any]:
        response = self.call(op, **fields)
        if not response.get("ok"):
            raise ServeError(
                response.get("error", "unknown"),
                response.get("detail"),
                **{
                    k: v
                    for k, v in response.items()
                    if k not in ("ok", "error", "detail")
                },
            )
        return response

    # -- verbs ----------------------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit one point; raises :class:`ServeError` on shed/rejection."""
        return self._checked("submit", kind=kind, params=params or {}, seed=seed)

    def status(self, job: str) -> Dict[str, Any]:
        return self._checked("status", job=job)

    def result(
        self, job: str, wait: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The finished job's response; raises on failed/cancelled/timeout.

        With ``wait`` the server parks the request; the socket deadline is
        stretched to cover it.
        """
        wait_s = timeout if timeout is not None else self.timeout
        if wait:
            self._sock.settimeout(wait_s + 10.0)
        try:
            return self._checked("result", job=job, wait=wait, timeout=wait_s)
        finally:
            self._sock.settimeout(self.timeout)

    def submit_and_wait(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit and block for the record — the one-call happy path."""
        submitted = self.submit(kind, params, seed=seed)
        return self.result(submitted["job"], wait=True, timeout=timeout)["record"]

    def cancel(self, job: str) -> Dict[str, Any]:
        return self._checked("cancel", job=job)

    def health(self) -> Dict[str, Any]:
        return self._checked("health")

    def metrics(self) -> Dict[str, Any]:
        """The service's :mod:`repro.obs` metrics snapshot."""
        return self._checked("metrics")["snapshot"]

    def shutdown(self) -> Dict[str, Any]:
        return self._checked("shutdown")

    # -- life cycle -----------------------------------------------------------
    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

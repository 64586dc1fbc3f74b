"""Wire protocol of the simulation service: newline-delimited JSON.

Every message — request or response — is one JSON object serialized on a
single line and terminated by ``\\n``.  Requests carry an ``op`` field
naming the verb; responses always carry ``ok`` (bool) and echo the
request's ``seq`` field when one was given, so pipelining clients can
match responses to requests.  The server answers requests of one
connection strictly in order, so the simplest client is "write a line,
read a line".

Verbs
-----
``submit``
    ``{"op": "submit", "kind": ..., "params": {...}, "seed"?, "priority"?,
    "client"?}`` — enqueue one sweep point.  Responds with the
    content-addressed job id (identical specs always map to the same id —
    that *is* the dedup/coalescing), the job's current state and whether
    the submit coalesced onto an in-flight job or hit a cache.
``status``
    ``{"op": "status", "job": id}`` — queue/exec state and timings.
``result``
    ``{"op": "result", "job": id, "wait"?, "timeout"?}`` — the result
    record once the job is done; with ``wait`` the server parks the
    request until completion (bounded by ``timeout`` seconds).
``cancel``
    ``{"op": "cancel", "job": id}`` — cancel a *queued* job.
``health``
    liveness + load summary (uptime, workers, queue depth).
``metrics``
    a :mod:`repro.obs` metrics snapshot of the whole service.
``shutdown``
    ask the server to stop (used by tests and the smoke harness).

Error codes (``{"ok": false, "error": code, ...}``): ``bad_request``,
``unknown_op``, ``unknown_kind``, ``unknown_job``, ``overloaded``,
``rate_limited``, ``not_cancellable``, ``pending``, ``failed``,
``cancelled``, ``timeout``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

#: Bumped on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: The greeting line the server writes on connect.  An instance running
#: inside a :mod:`repro.cluster` fleet adds its ``shard`` identity, so a
#: routing client can verify it reached the shard it aimed for.
GREETING = {"serve": "repro", "version": PROTOCOL_VERSION}

#: Verbs the server understands.
OPS = ("submit", "status", "result", "cancel", "health", "metrics", "shutdown")

#: Maximum accepted request line (bytes); keeps a hostile/buggy client from
#: ballooning server memory.  Params are small parameter dicts, not data.
MAX_LINE_BYTES = 1_048_576


class ProtocolError(ValueError):
    """A malformed message (bad JSON, wrong shape, oversized line)."""


def _no_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text[:32]} overflows a float")
    return value


#: Strict JSON: ``NaN``/``Infinity`` and overflowing floats are refused,
#: since :func:`encode_message` could not send them back.
_DECODER = json.JSONDecoder(parse_constant=_no_constant, parse_float=_finite_float)


def encode_message(message: Dict[str, Any]) -> bytes:
    """One canonical NDJSON line for ``message`` (sorted keys, strict JSON)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode()


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Anything :func:`encode_message` could not send back raises
    :class:`ProtocolError`: bytes that are not UTF-8, ``NaN``,
    ``Infinity`` and numbers that overflow a float, an integer too long
    to convert, nesting deeper than the interpreter's recursion limit,
    and any value that is not an object.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = _DECODER.decode(line.decode())
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, the parse hooks' refusals and
        # that of an integer beyond sys.get_int_max_str_digits() are all
        # ValueErrors.
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


def error_response(
    code: str, detail: Optional[str] = None, **extra: Any
) -> Dict[str, Any]:
    """A failure response body with error ``code`` and optional detail."""
    response: Dict[str, Any] = {"ok": False, "error": code}
    if detail:
        response["detail"] = detail
    response.update(extra)
    return response


def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success response body."""
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response

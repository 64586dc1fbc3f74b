"""Flits: the byte-level unit on a wire."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List


class FlitKind(str, Enum):
    """What a one-byte wire slot carries."""

    ROUTE = "route"      # a source-route header byte
    DATA = "data"        # payload byte
    TAIL = "tail"        # last byte of the worm
    FRAG_TAIL = "ftail"  # end of an interrupted fragment (scheme 2)
    IDLE = "idle"        # IDLE fill character


@dataclass(frozen=True)
class Flit:
    """One byte-slot.

    ``wid`` ties the flit to its worm; ``value`` is the byte for ROUTE
    flits (port number, pointer or end marker) and is unused for payload
    (the simulation does not care about payload contents).
    """

    kind: FlitKind
    wid: int
    value: int = 0
    multicast: bool = False
    broadcast: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == FlitKind.ROUTE:
            return f"R({self.value})#{self.wid}"
        return f"{self.kind.value[0].upper()}#{self.wid}"


def worm_flits(
    wid: int,
    header: bytes,
    payload_bytes: int,
    multicast: bool = False,
    broadcast: bool = False,
) -> List[Flit]:
    """Build the flit stream for a worm: header bytes, payload, tail.

    Flits are immutable, so the payload is one DATA flit repeated."""
    if payload_bytes < 1:
        raise ValueError("worm needs at least one payload byte (the tail)")
    flits = [
        Flit(FlitKind.ROUTE, wid, value=b, multicast=multicast, broadcast=broadcast)
        for b in header
    ]
    data = Flit(FlitKind.DATA, wid, multicast=multicast, broadcast=broadcast)
    flits += [data] * (payload_bytes - 1)
    flits.append(Flit(FlitKind.TAIL, wid, multicast=multicast, broadcast=broadcast))
    return flits


def retag_flits(flits: List[Flit], wid: int) -> List[Flit]:
    """The same flit stream under worm id ``wid``.  A flit the stream
    repeats (the payload of :func:`worm_flits`) is copied once, so the
    copy shares it the same way."""
    copies: Dict[int, Flit] = {}
    out = []
    for flit in flits:
        copy = copies.get(id(flit))
        if copy is None:
            copy = copies[id(flit)] = Flit(
                flit.kind, wid, flit.value, flit.multicast, flit.broadcast
            )
        out.append(copy)
    return out

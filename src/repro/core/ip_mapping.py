"""Multicast IP interoperation (Section 8.1).

Multicast IP uses class D addresses (224.0.0.0/4), a 28-bit group space,
only ever as destination addresses.  The Myrinet implementation maps an IP
group to the *low eight bits* of its address; group 255 is reserved for
broadcast, leaving 255 usable Myrinet groups.  Because the mapping is
many-to-one, a Myrinet group must be maintained as the union of all IP
groups sharing the low byte, and receivers filter at the IP layer.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, List, Set, Union

from repro.core.groups import BROADCAST_GROUP_ID

IpLike = Union[str, int, ipaddress.IPv4Address]


def _to_address(address: IpLike) -> ipaddress.IPv4Address:
    if isinstance(address, ipaddress.IPv4Address):
        return address
    return ipaddress.IPv4Address(address)


def is_class_d(address: IpLike) -> bool:
    """True for 224.0.0.0 -- 239.255.255.255 (IP multicast)."""
    return _to_address(address).is_multicast


def myrinet_group_of(address: IpLike) -> int:
    """The Myrinet multicast group id for a class D address: its low byte.

    Note this never returns the broadcast id semantics -- an IP group whose
    low byte is 255 still maps to id 255, which the driver treats as
    broadcast; the mapper below tracks this case explicitly.
    """
    addr = _to_address(address)
    if not addr.is_multicast:
        raise ValueError(f"{addr} is not a class D (multicast) address")
    return int(addr) & 0xFF


class IpGroupMapper:
    """Driver-side state: which IP groups are joined, and the Myrinet groups
    their union requires.

    >>> mapper = IpGroupMapper()
    >>> mapper.join("224.0.1.5", host=3)
    5
    >>> mapper.join("239.9.9.5", host=4)   # same low byte: same group
    5
    >>> sorted(mapper.members_of_myrinet_group(5))
    [3, 4]
    """

    def __init__(self) -> None:
        #: myrinet gid -> set of joined IP groups mapping to it
        self._ip_groups: Dict[int, Set[ipaddress.IPv4Address]] = {}
        #: myrinet gid -> host -> set of IP groups that host joined
        self._memberships: Dict[int, Dict[int, Set[ipaddress.IPv4Address]]] = {}

    def join(self, address: IpLike, host: int) -> int:
        """Join ``host`` to an IP group; returns the Myrinet group id whose
        membership must now include the host."""
        addr = _to_address(address)
        gid = myrinet_group_of(addr)
        self._ip_groups.setdefault(gid, set()).add(addr)
        self._memberships.setdefault(gid, {}).setdefault(host, set()).add(addr)
        return gid

    def leave(self, address: IpLike, host: int) -> bool:
        """Leave an IP group; returns True when the host no longer needs the
        underlying Myrinet group at all."""
        addr = _to_address(address)
        gid = myrinet_group_of(addr)
        joined = self._memberships.get(gid, {}).get(host)
        if joined is None or addr not in joined:
            raise KeyError(f"host {host} has not joined {addr}")
        joined.remove(addr)
        if joined:
            return False
        del self._memberships[gid][host]
        if not any(
            addr in ips
            for ips in self._memberships.get(gid, {}).values()
        ):
            self._ip_groups[gid].discard(addr)
        return True

    def members_of_myrinet_group(self, gid: int) -> List[int]:
        """Hosts that must be members of Myrinet group ``gid`` (the union
        over all IP groups sharing the low byte)."""
        return sorted(self._memberships.get(gid, {}))

    def ip_groups_of(self, gid: int) -> List[ipaddress.IPv4Address]:
        return sorted(self._ip_groups.get(gid, set()))

    def accepts(self, host: int, gid: int, address: IpLike) -> bool:
        """Receiver-side IP filtering: a packet for ``address`` delivered on
        Myrinet group ``gid`` is passed up only if the host joined that
        exact IP group (Section 8.1's 'filtered by the receiving IP
        layer')."""
        addr = _to_address(address)
        if myrinet_group_of(addr) != gid:
            return False
        return addr in self._memberships.get(gid, {}).get(host, set())

    @property
    def broadcast_collisions(self) -> List[ipaddress.IPv4Address]:
        """IP groups whose low byte collides with the broadcast id 255;
        these ride the broadcast group and rely entirely on IP filtering."""
        return sorted(self._ip_groups.get(BROADCAST_GROUP_ID, set()))

"""Multicast group management.

The Myrinet implementation (Section 8) uses eight-bit multicast group
identifiers; group 255 is the broadcast address, leaving 255 addresses for
ordinary groups.  Members are host ids, kept in increasing order -- the
ordering the deadlock-prevention rules rely on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

#: Group id reserved for broadcast (Section 8.1).
BROADCAST_GROUP_ID = 255

#: Number of bits in a Myrinet multicast group identifier.
GROUP_ID_BITS = 8


class MulticastGroup:
    """One multicast group: an id and its member hosts (sorted by id)."""

    def __init__(self, gid: int, members: Iterable[int]) -> None:
        if not 0 <= gid < 2**GROUP_ID_BITS:
            raise ValueError(f"group id {gid} outside the 8-bit space")
        members = sorted(set(members))
        if len(members) < 2:
            raise ValueError("a multicast group needs at least two members")
        self.gid = gid
        self.members: List[int] = members

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def lowest(self) -> int:
        """The lowest-id member (the total-ordering serializer of Section 5)."""
        return self.members[0]

    @property
    def highest(self) -> int:
        return self.members[-1]

    def __contains__(self, host: int) -> bool:
        # A scan of the (at most a few dozen) sorted members: cheaper than
        # building a set per test, and always in step with remove_member.
        return host in self.members

    def index_of(self, host: int) -> int:
        """Position of ``host`` in the id-sorted member list."""
        try:
            return self.members.index(host)
        except ValueError:
            raise ValueError(f"host {host} is not in group {self.gid}") from None

    def remove_member(self, host: int) -> None:
        """Drop a (dead) host from the group.

        A group may shrink to a single member through failures; callers
        (e.g. :meth:`repro.core.adapters.MulticastEngine.handle_host_failure`)
        decide whether such a group is dissolved.
        """
        try:
            self.members.remove(host)
        except ValueError:
            raise ValueError(f"host {host} is not in group {self.gid}") from None
        if not self.members:
            raise ValueError(f"cannot remove the last member of group {self.gid}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Group {self.gid}: {self.members}>"


class GroupTable:
    """The network-wide registry of multicast groups.

    Each host adapter keeps (a view of) this table to map the group id in an
    incoming worm header to its successor information.
    """

    def __init__(self) -> None:
        self._groups: Dict[int, MulticastGroup] = {}

    def add(self, gid: int, members: Sequence[int]) -> MulticastGroup:
        """Register a group; rejects duplicate ids and the broadcast id."""
        if gid in self._groups:
            raise ValueError(f"group id {gid} already registered")
        if gid == BROADCAST_GROUP_ID:
            raise ValueError(f"group id {gid} is reserved for broadcast")
        group = MulticastGroup(gid, members)
        self._groups[gid] = group
        return group

    def add_broadcast(self, members: Sequence[int]) -> MulticastGroup:
        """Register the broadcast group (id 255, Section 8.1): its members
        are all hosts on the network."""
        if BROADCAST_GROUP_ID in self._groups:
            raise ValueError("broadcast group already registered")
        group = MulticastGroup(BROADCAST_GROUP_ID, members)
        self._groups[BROADCAST_GROUP_ID] = group
        return group

    def remove(self, gid: int) -> None:
        if gid not in self._groups:
            raise KeyError(f"no group {gid}")
        del self._groups[gid]

    def group(self, gid: int) -> MulticastGroup:
        try:
            return self._groups[gid]
        except KeyError:
            raise KeyError(f"no group {gid}") from None

    def __contains__(self, gid: int) -> bool:
        return gid in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def gids(self) -> List[int]:
        return sorted(self._groups)

    def groups_of(self, host: int) -> List[MulticastGroup]:
        """All groups ``host`` belongs to, in registration order (worm
        generation picks uniformly among these, per Section 7, so the
        order is part of every traffic sample path)."""
        return [g for g in self._groups.values() if host in g.members]

    def random_groups(
        self,
        gids: Sequence[int],
        hosts: Sequence[int],
        members_per_group: int,
        stream,
    ) -> List[MulticastGroup]:
        """Create groups with members chosen at random (the Figure 10 setup:
        ten groups of ten members chosen at random)."""
        if members_per_group > len(hosts):
            raise ValueError("not enough hosts for the requested group size")
        created = []
        for gid in gids:
            members = stream.sample(list(hosts), members_per_group)
            created.append(self.add(gid, members))
        return created

"""Rooted-tree multicasting (Section 6).

The tree is formed over the host-connectivity graph, one per group.  For
deadlock freedom and total ordering the paper requires hosts ordered by
increasing ID from the root down (children have higher IDs than their
parent) and the multicast to start from the root.  The alternative,
broadcast-on-tree, lets the originator flood from its own tree position;
the worm climbs (towards the root) in the first buffer class and descends
in the second, inverting direction at most once.

The default shape is the *heap* tree: members sorted by ID, node ``i``'s
children at positions ``branching*i + 1 .. branching*i + branching`` --
which satisfies the children-have-higher-IDs rule by construction.  A
greedy weighted shape is provided for the topology-aware extension.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.groups import MulticastGroup
from repro.core.hamiltonian import host_connectivity_graph
from repro.net.updown import UpDownRouting


class RootedTree:
    """A rooted multicast tree over a group's members.

    Parameters
    ----------
    group:
        The multicast group.
    branching:
        Maximum children per node for the heap shape (the paper's related
        work [VLB96] uses binary trees; 2 is the default).
    shape:
        ``"heap"`` -- ID-sorted heap layout (default, paper-compliant).
        ``"greedy_weighted"`` -- children attach to the already-placed node
        with the cheapest connecting route that still has a lower ID, which
        keeps the ID rule while shortening paths (needs ``routing``).
    routing:
        Route provider for the weighted shape.
    """

    def __init__(
        self,
        group: MulticastGroup,
        branching: int = 2,
        shape: str = "heap",
        routing: Optional[UpDownRouting] = None,
    ) -> None:
        if branching < 1:
            raise ValueError("branching must be at least 1")
        self.group = group
        self.branching = branching
        self.shape = shape
        members = list(group.members)  # already id-sorted
        self._children: Dict[int, List[int]] = {m: [] for m in members}
        self._parent: Dict[int, Optional[int]] = {}
        if shape == "heap":
            for index, host in enumerate(members):
                if index == 0:
                    self._parent[host] = None
                    continue
                parent = members[(index - 1) // branching]
                self._parent[host] = parent
                self._children[parent].append(host)
        elif shape == "greedy_weighted":
            if routing is None:
                raise ValueError("greedy_weighted shape requires a routing instance")
            weights = host_connectivity_graph(routing, members)
            placed = [members[0]]
            self._parent[members[0]] = None
            for host in members[1:]:
                candidates = [
                    p for p in placed if len(self._children[p]) < branching
                ]
                parent = min(candidates, key=lambda p: (weights[(p, host)], p))
                self._parent[host] = parent
                self._children[parent].append(host)
                placed.append(host)
        else:
            raise ValueError(f"unknown tree shape {shape!r}")
        for children in self._children.values():
            children.sort()

    @property
    def gid(self) -> int:
        return self.group.gid

    @property
    def root(self) -> int:
        """The lowest-id member (ID ordering puts it at the root)."""
        return self.group.members[0]

    @property
    def size(self) -> int:
        return len(self.group.members)

    def children(self, host: int) -> List[int]:
        try:
            return list(self._children[host])
        except KeyError:
            raise ValueError(f"host {host} not in tree of group {self.gid}") from None

    def parent(self, host: int) -> Optional[int]:
        try:
            return self._parent[host]
        except KeyError:
            raise ValueError(f"host {host} not in tree of group {self.gid}") from None

    def neighbors(self, host: int) -> List[int]:
        """Tree neighbours of ``host`` (parent + children)."""
        result = self.children(host)
        parent = self.parent(host)
        if parent is not None:
            result = [parent] + result
        return result

    def depth(self, host: int) -> int:
        depth = 0
        node = host
        while True:
            parent = self.parent(node)
            if parent is None:
                return depth
            node = parent
            depth += 1

    def remove_member(self, host: int) -> None:
        """Splice a (dead) host out of the tree, reattaching its children.

        A non-root host's children move to its parent: every child's ID
        exceeds the dead host's, which exceeds the parent's, so the paper's
        children-have-higher-IDs rule is preserved.  When the root dies its
        lowest-ID child (the lowest surviving member, by the ID rule)
        becomes the new root and adopts its siblings.  Reattachment may
        exceed ``branching`` -- a tolerated degradation until the group is
        rebuilt.  The caller updates the group membership separately.
        """
        if host not in self._parent:
            raise ValueError(f"host {host} not in tree of group {self.gid}")
        if len(self._parent) <= 2:
            raise ValueError(
                f"tree of group {self.gid} cannot shrink below two members"
            )
        orphans = self._children.pop(host)
        parent = self._parent.pop(host)
        if parent is None:
            # Root death: promote the lowest-id child.
            new_root, siblings = orphans[0], orphans[1:]
            self._parent[new_root] = None
            for child in siblings:
                self._parent[child] = new_root
            self._children[new_root].extend(siblings)
            self._children[new_root].sort()
        else:
            self._children[parent].remove(host)
            for child in orphans:
                self._parent[child] = parent
            self._children[parent].extend(orphans)
            self._children[parent].sort()

    def id_rule_holds(self) -> bool:
        """Verify the paper's rule: every child has a higher ID than its
        parent (this is what prevents buffer deadlocks, Section 6)."""
        return all(
            child > parent
            for parent, children in self._children.items()
            for child in children
        )

    def walk_preorder(self, start: Optional[int] = None) -> List[int]:
        """Depth-first order from ``start`` (default: root)."""
        start = self.root if start is None else start
        order = []
        stack = [start]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children(node)))
        return order

    def covers_all_members(self) -> bool:
        return sorted(self.walk_preorder()) == self.group.members

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RootedTree g{self.gid} root={self.root} n={self.size}>"


def tree_hop_length(tree: RootedTree, routing: UpDownRouting) -> int:
    """Total network hop count over all tree edges.

    The paper notes the tree achieves higher total throughput because 'the
    average hop length for each link of the tree is less than the average
    hop length for all pairs' -- this computes the tree side of that
    comparison.
    """
    total = 0
    for host in tree.group.members:
        parent = tree.parent(host)
        if parent is not None:
            total += routing.hop_count(parent, host)
    return total

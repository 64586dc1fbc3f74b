"""Deadlock-free up/down routing (Autonet / Myrinet style).

One node is chosen as the *root*; a BFS spanning tree assigns every node a
level (distance from the root).  Traversing a link towards the root (to a
node at lesser distance; node ID breaks ties between equal levels) is an
*up* hop, the reverse is a *down* hop.  A legal route traverses zero or more
up hops followed by zero or more down hops, which makes the channel
dependency graph acyclic and hence the routing deadlock-free [SBB+91, DS87].

Routes are computed as shortest legal paths with a deterministic tie-break,
matching the paper's "fixed choice of one path per source-destination pair
among all possible equal length paths" (Section 7.1).  The rule: a route is
the first-discovered state of one BFS per source over (node, phase) states,
each node's neighbors expanded in id order.  The BFS stops once every
requested node is discovered, which cuts it short but never reorders it, so
a route is the same whatever order routes are requested in, and whether
they come one pair at a time (:meth:`UpDownRouting.route_shared`), all at
once (:meth:`UpDownRouting.routes_from`) or as a multicast tree
(:meth:`UpDownRouting.multi_route`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.topology import Link, Topology

#: Route phases for the layered shortest-path search.
_UP, _DOWN = 0, 1

#: A directed hop: (from-node, to-node, link).
Hop = Tuple[int, int, Link]


class UpDownRouting:
    """Up/down route computation over a topology.

    Parameters
    ----------
    topology:
        The network.
    root:
        Root node id for the spanning tree.  Defaults to the lowest-id
        switch (the paper picks the root arbitrarily).
    """

    def __init__(self, topology: Topology, root: Optional[int] = None) -> None:
        if topology.fully_alive and not topology.is_connected():
            raise ValueError("up/down routing requires a connected topology")
        self.topology = topology
        if not topology.switches:
            raise ValueError("topology has no switches")
        if root is not None and topology.node(root).kind != "switch":
            raise ValueError(f"root {root} must be a switch")
        #: The root the caller asked for (kept across rebuilds; a rebuild
        #: falls back to the lowest live switch while it is dead).
        self._requested_root = root
        #: Number of spanning-tree recomputations (0 = the initial build).
        self.rebuilds = -1
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)compute the spanning tree, levels and search adjacency over
        the topology's *live* subgraph, discarding all memoized routes.

        This is the reconfiguration primitive: after a link/switch failure
        or repair the up/down tree is recomputed exactly as Autonet does.
        On a fully-alive topology the result is byte-identical to the
        original construction (the live subgraph *is* the graph).
        """
        topology = self.topology
        live_switches = [
            s for s in topology.switches if topology.node_alive(s)
        ]
        if not live_switches:
            raise ValueError("no live switches to route over")
        root = self._requested_root
        if root is None or not topology.node_alive(root):
            root = live_switches[0]
        self.root = root
        self.level: Dict[int, int] = {}
        self.parent: Dict[int, Optional[int]] = {}
        self._tree_links: Set[int] = set()
        # Sorted adjacency, computed once per rebuild: the route BFS visits
        # every node's neighbor list in deterministic id order, and
        # re-sorting a freshly built list per visit dominated
        # route-computation time.
        self._sorted_neighbors: Dict[int, List[Tuple[int, Link]]] = {
            node.id: sorted(
                topology.live_neighbors(node.id), key=lambda pair: pair[0]
            )
            for node in topology.nodes
            if topology.node_alive(node.id)
        }
        self._build_tree()
        # Per-edge search metadata: (peer, link, up_hop, crosslink), in
        # deterministic id order.  Folding is_up/is_crosslink into the
        # adjacency list keeps the BFS inner loop free of dict lookups.
        # Nodes severed from the root's component carry no search entries:
        # routes to them fail until a repair reconnects them.
        self._search_adj: Dict[int, List[Tuple[int, Link, bool, bool]]] = {
            nid: [
                (peer, link, self.is_up(nid, peer), link.id not in self._tree_links)
                for peer, link in pairs
            ]
            for nid, pairs in self._sorted_neighbors.items()
            if nid in self.level
        }
        self._route_cache: Dict[Tuple[int, int, bool], Tuple[Hop, ...]] = {}
        self._topo_version = topology.version
        self.rebuilds += 1

    def _refresh_if_stale(self) -> None:
        """Rebuild when the topology mutated since the last build.

        Every memoized-route entry point funnels through this check, so a
        topology mutation can never serve routes over links that no longer
        exist (the stale-cache bug dynamic reconfiguration surfaced).
        """
        if self.topology.version != self._topo_version:
            self.rebuild()

    # -- spanning tree --------------------------------------------------------
    def _build_tree(self) -> None:
        """BFS spanning tree from the root; deterministic neighbor order."""
        self.level[self.root] = 0
        self.parent[self.root] = None
        frontier = deque([self.root])
        while frontier:
            nid = frontier.popleft()
            for peer, link in self._sorted_neighbors[nid]:
                if peer in self.level:
                    continue
                self.level[peer] = self.level[nid] + 1
                self.parent[peer] = nid
                self._tree_links.add(link.id)
                frontier.append(peer)

    @property
    def tree_links(self) -> Set[int]:
        """Ids of links in the up/down spanning tree."""
        self._refresh_if_stale()
        return set(self._tree_links)

    def is_crosslink(self, link: Link) -> bool:
        """True if ``link`` is not part of the spanning tree (e.g. D-E in
        Figure 3)."""
        self._refresh_if_stale()
        return link.id not in self._tree_links

    def is_up(self, src: int, dst: int) -> bool:
        """True if traversing src -> dst is an *up* hop.

        Up means moving to a node at lesser distance from the root; equal
        levels are ordered by node id (lower id is 'higher', i.e. closer to
        the root).
        """
        ls, ld = self.level[src], self.level[dst]
        if ld != ls:
            return ld < ls
        return dst < src

    # -- routes ----------------------------------------------------------------
    def route(
        self, src: int, dst: int, restrict_to_tree: bool = False
    ) -> List[Hop]:
        """Shortest legal up*/down* route from ``src`` to ``dst``.

        ``restrict_to_tree`` confines the route to spanning-tree links (the
        Section 3 scheme that forbids crosslinks for deadlock-free
        switch-level multicast).
        """
        return list(self.route_shared(src, dst, restrict_to_tree))

    def route_shared(
        self, src: int, dst: int, restrict_to_tree: bool = False
    ) -> Tuple[Hop, ...]:
        """Memoized route as a shared immutable tuple (no per-call copy).

        The hot paths (worm injection, flit-level sends) call this once per
        worm; :meth:`route` wraps it with a defensive copy for callers that
        want a mutable list.
        """
        if src == dst:
            return ()
        self._refresh_if_stale()
        key = (src, dst, restrict_to_tree)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        hops = self._bfs(src, {dst}, restrict_to_tree).get(dst)
        if hops is None:
            raise ValueError(f"no legal up/down route from {src} to {dst}")
        result = tuple(hops)
        self._route_cache[key] = result
        return result

    def routes_from(
        self, src: int, dsts: Sequence[int], restrict_to_tree: bool = False
    ) -> Dict[int, Tuple[Hop, ...]]:
        """Memoized routes from ``src`` to each of ``dsts``, keyed in
        request order: the same tuples :meth:`route_shared` returns, but
        every cache miss is answered by one BFS from ``src`` instead of one
        BFS per pair.  Destinations without a legal route are left out
        (:meth:`route_shared` raises for them).
        """
        self._refresh_if_stale()
        cache = self._route_cache
        misses = {
            dst
            for dst in dsts
            if dst != src and (src, dst, restrict_to_tree) not in cache
        }
        if misses:
            for dst, hops in self._bfs(src, misses, restrict_to_tree).items():
                cache[(src, dst, restrict_to_tree)] = tuple(hops)
        routes: Dict[int, Tuple[Hop, ...]] = {}
        for dst in dsts:
            hops = () if dst == src else cache.get((src, dst, restrict_to_tree))
            if hops is not None:
                routes[dst] = hops
        return routes

    def _bfs(
        self, src: int, targets: Set[int], restrict_to_tree: bool
    ) -> Dict[int, List[Hop]]:
        """The route search: BFS over (node, phase) states from ``src``;
        phase flips irreversibly to DOWN.

        Stops once every node of ``targets`` (which must not contain
        ``src``) is discovered.  Returns each reachable target's route to
        its first-discovered state, keyed in discovery order.  No search
        state outlives the call.
        """
        start = (src, _UP)
        prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], Hop]] = {}
        seen = {start}
        frontier = deque([start])
        remaining = set(targets)
        found: Dict[int, Tuple[int, int]] = {}
        search_adj = self._search_adj
        while frontier and remaining:
            node, phase = frontier.popleft()
            for peer, link, up_hop, crosslink in search_adj.get(node, ()):
                if restrict_to_tree and crosslink:
                    continue
                if phase == _DOWN and up_hop:
                    continue  # down -> up transitions are illegal
                state = (peer, _UP if up_hop else _DOWN)
                if state in seen:
                    continue
                seen.add(state)
                prev[state] = ((node, phase), (node, peer, link))
                if peer in remaining:
                    remaining.discard(peer)
                    found[peer] = state
                    if not remaining:
                        break
                frontier.append(state)
        routes: Dict[int, List[Hop]] = {}
        for dst, state in found.items():
            hops: List[Hop] = []
            while state != start:
                state, hop = prev[state]
                hops.append(hop)
            hops.reverse()
            routes[dst] = hops
        return routes

    def multi_route(
        self, src: int, dsts: Sequence[int], restrict_to_tree: bool = False
    ) -> Dict[int, List[Hop]]:
        """Routes from ``src`` to several destinations out of a *single*
        layered BFS, so the paths are prefix-consistent and their union
        forms a tree (the switch-level multicast route of Section 3).
        Keys are in discovery order."""
        targets = set(dsts)
        if src in targets:
            raise ValueError("source cannot be a multicast destination")
        self._refresh_if_stale()
        routes = self._bfs(src, targets, restrict_to_tree)
        missing = targets - set(routes)
        if missing:
            raise ValueError(f"no legal route from {src} to {sorted(missing)}")
        return routes

    def multi_route_path(
        self, src: int, dsts: Sequence[int], restrict_to_tree: bool = False
    ) -> Dict[int, List[Hop]]:
        """Path-based (chain) multicast routes per the NoC-multicast
        taxonomy: one trunk visits the destination switches in a greedy
        nearest-neighbour order, branching off only to each local host.

        Destination ``i``'s hop list is the trunk up to its switch plus
        the final adapter hop, so the per-destination paths are strict
        prefix extensions of one another and their union is a caterpillar
        tree (contrast :meth:`multi_route`, whose union is a shortest-path
        tree).  Keys are in chain (visitation) order.

        Each chain segment is a legal up*/down* route on its own, but the
        concatenation generally is not -- path-based multicast trades the
        tree's replication fan-out for longer worms whose deadlock freedom
        must come from elsewhere (virtual channels; ``lanes >= 2``).
        """
        remaining = set(dsts)
        if src in remaining:
            raise ValueError("source cannot be a multicast destination")
        if not remaining:
            raise ValueError("multicast needs at least one destination")
        self._refresh_if_stale()
        topology = self.topology
        host_switch = {d: topology.host_switch(d) for d in remaining}
        adapter_hop: Dict[int, Hop] = {}
        for d in remaining:
            sw = host_switch[d]
            link = next(
                link for peer, link in topology.neighbors(sw) if peer == d
            )
            adapter_hop[d] = (sw, d, link)
        routes: Dict[int, List[Hop]] = {}
        trunk: List[Hop] = []
        cursor = src  # the host first, then the last visited switch
        while remaining:
            best = None
            for d in sorted(remaining):
                target = host_switch[d]
                length = (
                    0 if target == cursor
                    else len(self.route_shared(cursor, target, restrict_to_tree))
                )
                if best is None or length < best[0]:
                    best = (length, d)
            _, nxt = best
            target = host_switch[nxt]
            if target != cursor:
                trunk = trunk + list(
                    self.route_shared(cursor, target, restrict_to_tree)
                )
                cursor = target
            routes[nxt] = trunk + [adapter_hop[nxt]]
            remaining.discard(nxt)
        return routes

    def route_nodes(self, src: int, dst: int, restrict_to_tree: bool = False) -> List[int]:
        """The node sequence of :meth:`route`, including endpoints."""
        hops = self.route_shared(src, dst, restrict_to_tree)
        if not hops:
            return [src]
        return [hops[0][0]] + [hop[1] for hop in hops]

    def hop_count(self, src: int, dst: int) -> int:
        """Length (in hops) of the legal route between two nodes."""
        return len(self.route_shared(src, dst))

    def is_legal(self, nodes: Sequence[int]) -> bool:
        """Check that a node path obeys the up*/down* rule and uses real links."""
        phase = _UP
        for a, b in zip(nodes, nodes[1:]):
            if not any(peer == b for peer, _ in self.topology.neighbors(a)):
                return False
            if self.is_up(a, b):
                if phase == _DOWN:
                    return False
            else:
                phase = _DOWN
        return True

    def down_links(self, switch: int) -> List[Link]:
        """Spanning-tree links leading away from the root at ``switch``
        (the broadcast address of Section 3 forwards to all of these)."""
        self._refresh_if_stale()
        result = []
        for peer, link in self.topology.live_neighbors(switch):
            if link.id in self._tree_links and not self.is_up(switch, peer):
                result.append(link)
        return result


def check_deadlock_free(
    routing: UpDownRouting, pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> bool:
    """Verify acyclicity of the channel dependency graph induced by routes.

    For every route, each consecutive pair of directed channels adds a
    dependency edge; the routing is deadlock-free iff the graph is acyclic
    [DS87].  ``pairs`` defaults to all ordered pairs of live hosts.  Pairs
    are grouped by source, so each source costs one route BFS.  Raises
    ``ValueError`` if some pair has no legal route (a partition).
    """
    if pairs is None:
        hosts = routing.topology.live_hosts()
        pairs = [(a, b) for a in hosts for b in hosts if a != b]
    dsts_by_src: Dict[int, List[int]] = {}
    for src, dst in pairs:
        dsts_by_src.setdefault(src, []).append(dst)
    edges: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for src, dsts in dsts_by_src.items():
        routes = routing.routes_from(src, dsts)
        for dst in dsts:
            hops = routes.get(dst)
            if hops is None:
                raise ValueError(f"no legal up/down route from {src} to {dst}")
            channels = [(a, b) for a, b, _ in hops]
            for first, second in zip(channels, channels[1:]):
                edges.setdefault(first, set()).add(second)
            for channel in channels:
                edges.setdefault(channel, set())
    # Kahn's algorithm.
    indegree = {node: 0 for node in edges}
    for deps in edges.values():
        for dep in deps:
            indegree[dep] += 1
    ready = deque(node for node, deg in indegree.items() if deg == 0)
    visited = 0
    while ready:
        node = ready.popleft()
        visited += 1
        for dep in edges[node]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)
    return visited == len(edges)

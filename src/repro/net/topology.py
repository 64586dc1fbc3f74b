"""Network topologies: switches, hosts, links, and the paper's test networks.

A :class:`Topology` is an undirected multigraph of *switches* and *hosts*.
Hosts attach to exactly one switch (their adapter port); switches
interconnect freely.  Node identifiers are global integers; the protocols in
:mod:`repro.core` order hosts by these IDs, exactly as the paper orders hosts
by ID for deadlock prevention.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

SWITCH = "switch"
HOST = "host"


def _check_prop_delay(prop_delay: float) -> None:
    """Reject a propagation delay that is not a finite number >= 0: the
    engines schedule by it, and NaN never compares."""
    if not (prop_delay >= 0 and math.isfinite(prop_delay)):
        raise ValueError(
            f"prop_delay must be a finite number >= 0, got {prop_delay!r}"
        )


@dataclass(frozen=True)
class Node:
    """A network node: a crossbar switch or a host (adapter)."""

    id: int
    kind: str
    name: str

    @property
    def is_host(self) -> bool:
        return self.kind == HOST

    @property
    def is_switch(self) -> bool:
        return self.kind == SWITCH


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes.

    ``prop_delay`` is the one-way propagation delay in byte-times (the
    shufflenet experiments of Figure 11 use 1000 byte-times).
    """

    id: int
    a: int
    b: int
    prop_delay: float = 0.0

    def other(self, node: int) -> int:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an endpoint of link {self.id}")

    @property
    def ends(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class TopologyChange:
    """One liveness or structural mutation, as seen by change listeners.

    ``kind`` is one of ``link_fail``/``link_repair``/``node_fail``/
    ``node_repair``/``link_add``/``node_add``; ``target`` is the link or
    node id the change applies to.
    """

    kind: str
    target: int


class Topology:
    """An undirected switch/host graph with component liveness.

    Every node and link is *alive* when created; the fault-injection layer
    (:mod:`repro.faults`) toggles liveness through :meth:`fail_link` /
    :meth:`fail_node` and their repair counterparts.  Structural and
    liveness mutations bump :attr:`version`, which the route/channel caches
    downstream (:class:`~repro.net.updown.UpDownRouting`,
    :class:`~repro.net.wormnet.WormholeNetwork`) use to detect staleness.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._links: List[Link] = []
        self._adjacency: Dict[int, List[Link]] = {}
        self._host_link: Dict[int, Link] = {}
        self._dead_links: Set[int] = set()
        self._dead_nodes: Set[int] = set()
        #: Monotonic mutation counter; bumped by every structural or
        #: liveness change.
        self.version = 0
        self._listeners: List[Callable[["Topology", TopologyChange], None]] = []
        #: lanes -> crossbar port numbering (see crossbar_ports), held
        #: until a node or link is added.
        self._crossbar_ports: Dict[int, Tuple[List[int], int]] = {}

    def _mutated(self, kind: str, target: int) -> None:
        self.version += 1
        if kind == "node_add" or kind == "link_add":
            self._crossbar_ports.clear()
        if self._listeners:
            change = TopologyChange(kind, target)
            for listener in list(self._listeners):
                listener(self, change)

    def add_listener(
        self, fn: Callable[["Topology", TopologyChange], None]
    ) -> None:
        """Register ``fn(topology, change)`` to run on every mutation."""
        self._listeners.append(fn)

    def remove_listener(
        self, fn: Callable[["Topology", TopologyChange], None]
    ) -> None:
        self._listeners.remove(fn)

    # -- construction --------------------------------------------------------
    def add_switch(self, name: Optional[str] = None) -> int:
        """Add a switch; returns its node id."""
        nid = len(self._nodes)
        node = Node(nid, SWITCH, name or f"s{nid}")
        self._nodes[nid] = node
        self._adjacency[nid] = []
        self._mutated("node_add", nid)
        return nid

    def add_host(
        self, switch: int, name: Optional[str] = None, prop_delay: float = 0.0
    ) -> int:
        """Add a host attached to ``switch``; returns its node id."""
        _check_prop_delay(prop_delay)
        if self.node(switch).kind != SWITCH:
            raise ValueError(f"hosts must attach to switches, {switch} is a host")
        nid = len(self._nodes)
        node = Node(nid, HOST, name or f"h{nid}")
        self._nodes[nid] = node
        self._adjacency[nid] = []
        link = self._connect(nid, switch, prop_delay)
        self._host_link[nid] = link
        self._mutated("node_add", nid)
        return nid

    def add_link(self, a: int, b: int, prop_delay: float = 0.0) -> Link:
        """Add a switch-to-switch link.

        Parallel links between the same switch pair are rejected: directed
        channels are identified by their endpoint pair throughout the
        simulator.
        """
        if a == b:
            raise ValueError("self-links are not allowed")
        _check_prop_delay(prop_delay)
        for node in (a, b):
            if self.node(node).kind != SWITCH:
                raise ValueError(f"add_link joins switches only, {node} is a host")
        if any(link.other(a) == b for link in self._adjacency[a]):
            raise ValueError(f"link {a}-{b} already exists")
        return self._connect(a, b, prop_delay)

    def _connect(self, a: int, b: int, prop_delay: float) -> Link:
        link = Link(len(self._links), a, b, prop_delay)
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._mutated("link_add", link.id)
        return link

    # -- liveness -------------------------------------------------------------
    def fail_link(self, link_id: int) -> None:
        """Mark a link down (cable cut / port failure)."""
        if not 0 <= link_id < len(self._links):
            raise KeyError(f"no link with id {link_id}")
        if link_id not in self._dead_links:
            self._dead_links.add(link_id)
            self._mutated("link_fail", link_id)

    def repair_link(self, link_id: int) -> None:
        """Bring a failed link back up."""
        if not 0 <= link_id < len(self._links):
            raise KeyError(f"no link with id {link_id}")
        if link_id in self._dead_links:
            self._dead_links.discard(link_id)
            self._mutated("link_repair", link_id)

    def fail_node(self, nid: int) -> None:
        """Mark a switch or host down (crash / power loss).

        A dead node's links are implicitly unusable; they revive with the
        node unless individually failed.
        """
        self.node(nid)  # validate
        if nid not in self._dead_nodes:
            self._dead_nodes.add(nid)
            self._mutated("node_fail", nid)

    def repair_node(self, nid: int) -> None:
        self.node(nid)  # validate
        if nid in self._dead_nodes:
            self._dead_nodes.discard(nid)
            self._mutated("node_repair", nid)

    def link_alive(self, link_id: int) -> bool:
        return link_id not in self._dead_links

    def node_alive(self, nid: int) -> bool:
        return nid not in self._dead_nodes

    def link_usable(self, link: Link) -> bool:
        """True when the link and both its endpoints are alive."""
        return (
            link.id not in self._dead_links
            and link.a not in self._dead_nodes
            and link.b not in self._dead_nodes
        )

    @property
    def dead_links(self) -> Set[int]:
        return set(self._dead_links)

    @property
    def dead_nodes(self) -> Set[int]:
        return set(self._dead_nodes)

    @property
    def fully_alive(self) -> bool:
        return not self._dead_links and not self._dead_nodes

    def live_hosts(self) -> List[int]:
        """Alive host ids in increasing order."""
        return [
            h for h in self.hosts
            if h not in self._dead_nodes
            and self._host_link[h].id not in self._dead_links
        ]

    def live_neighbors(self, nid: int) -> Iterator[Tuple[int, Link]]:
        """Like :meth:`neighbors` but restricted to usable links."""
        for link in self._adjacency[nid]:
            if self.link_usable(link):
                yield link.other(nid), link

    # -- access ---------------------------------------------------------------
    def node(self, nid: int) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise KeyError(f"no node with id {nid} in topology {self.name!r}") from None

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    @property
    def switches(self) -> List[int]:
        return [n.id for n in self._nodes.values() if n.is_switch]

    @property
    def hosts(self) -> List[int]:
        """Host ids in increasing order (the paper's deadlock-prevention order)."""
        return sorted(n.id for n in self._nodes.values() if n.is_host)

    def crossbar_ports(self, lanes: int) -> Tuple[List[int], int]:
        """Port numbers of every switch's crossbar when each
        switch-to-switch link carries ``lanes`` lanes and a host link one:
        ``(ports, width)``.  ``ports[2 * link_id]`` is the first port of
        that link at its end ``a`` and ``ports[2 * link_id + 1]`` at its
        end ``b`` (-1 at a host): a switch numbers its links in adjacency
        order, one consecutive port per lane.  ``width`` is the most ports
        any switch has.  Liveness does not change the numbering, so it is
        computed once per lanes count and held until a node or a link is
        added; callers must not mutate it."""
        numbering = self._crossbar_ports.get(lanes)
        if numbering is None:
            nodes = self._nodes
            ports = [-1] * (2 * len(self._links))
            width = 0
            for sid, node in nodes.items():
                if not node.is_switch:
                    continue
                port = 0
                for link in self._adjacency[sid]:
                    ports[2 * link.id + (sid != link.a)] = port
                    if nodes[link.a].is_host or nodes[link.b].is_host:
                        port += 1
                    else:
                        port += lanes
                if port > width:
                    width = port
            numbering = self._crossbar_ports[lanes] = (ports, width)
        return numbering

    def adjacent(self, nid: int) -> List[Link]:
        """Links incident to ``nid``."""
        return list(self._adjacency[nid])

    def neighbors(self, nid: int) -> Iterator[Tuple[int, Link]]:
        """(peer id, link) pairs for every link at ``nid``."""
        for link in self._adjacency[nid]:
            yield link.other(nid), link

    def host_switch(self, host: int) -> int:
        """The switch a host attaches to."""
        link = self._host_link.get(host)
        if link is None:
            raise ValueError(f"{host} is not a host")
        return link.other(host)

    def host_link(self, host: int) -> Link:
        """The adapter link of ``host``."""
        link = self._host_link.get(host)
        if link is None:
            raise ValueError(f"{host} is not a host")
        return link

    def is_connected(self, live_only: bool = False) -> bool:
        """True when every node is reachable from every other.

        With ``live_only`` the walk is restricted to the live subgraph
        (dead nodes and their links excluded) -- the connectivity question
        reconfiguration must answer after a failure.
        """
        if live_only:
            nodes = [n for n in self._nodes if n not in self._dead_nodes]
            step = self.live_neighbors
        else:
            nodes = list(self._nodes)
            step = self.neighbors
        if not nodes:
            return True
        seen = set()
        stack = [nodes[0]]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            for peer, _ in step(nid):
                if peer not in seen and (not live_only or peer not in self._dead_nodes):
                    stack.append(peer)
        return len(seen) == len(nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Topology {self.name!r}: {len(self.switches)} switches, "
            f"{len(self.hosts)} hosts, {len(self._links)} links>"
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

#: Hard ceiling on switches a builder will create in one call -- large
#: enough for every 1000+-switch scenario the roadmap names, small enough
#: to catch runaway parameters (e.g. ``bidirectional_shufflenet(10, 9)``
#: would otherwise silently ask for nine billion switches).
MAX_SWITCHES = 1_048_576

#: Route bytes address output ports, so a switch's route-addressable port
#: indices must stay below ``BROADCAST_BYTE`` (0xFE, see
#: :mod:`repro.net.flitlevel.switch`): at most 254 ports per switch at one
#: lane.  Builders check the switch degree they are about to create;
#: :class:`~repro.net.flitlevel.network.FlitNetwork` re-validates exactly
#: (degree x lanes + host links) once the lane count is known.
ROUTE_PORT_LIMIT = 254


def _check_scale(builder: str, n_switches: int, degree: int) -> None:
    """Shared degenerate-size guard for the topology builders."""
    if n_switches > MAX_SWITCHES:
        raise ValueError(
            f"{builder}: {n_switches} switches exceeds MAX_SWITCHES="
            f"{MAX_SWITCHES}; reduce the size parameters"
        )
    if degree > ROUTE_PORT_LIMIT:
        raise ValueError(
            f"{builder}: switch degree {degree} exceeds the route-byte "
            f"port limit ({ROUTE_PORT_LIMIT}); source-route bytes cannot "
            f"address that many output ports"
        )


def torus(
    rows: int = 8,
    cols: int = 8,
    hosts_per_switch: int = 1,
    prop_delay: float = 0.0,
) -> Topology:
    """A rows x cols wraparound torus, the paper's 8x8 simulation topology.

    Each switch carries ``hosts_per_switch`` hosts (the paper attaches one).
    """
    if rows < 2 or cols < 2:
        raise ValueError("torus needs at least 2 rows and 2 columns")
    _check_scale("torus", rows * cols, 4 + hosts_per_switch)
    topo = Topology(name=f"torus-{rows}x{cols}")
    grid = [[topo.add_switch(f"s{r},{c}") for c in range(cols)] for r in range(rows)]
    seen = set()

    def _wire(a: int, b: int) -> None:
        # A 2-wide dimension wraps onto the same pair twice; keep one link.
        key = frozenset({a, b})
        if key not in seen:
            seen.add(key)
            topo.add_link(a, b, prop_delay)

    for r in range(rows):
        for c in range(cols):
            _wire(grid[r][c], grid[r][(c + 1) % cols])
    for c in range(cols):
        for r in range(rows):
            _wire(grid[r][c], grid[(r + 1) % rows][c])
    for r in range(rows):
        for c in range(cols):
            for h in range(hosts_per_switch):
                topo.add_host(grid[r][c], f"h{r},{c}.{h}")
    return topo


def mesh(rows: int, cols: int, hosts_per_switch: int = 1) -> Topology:
    """A rows x cols grid without wraparound links."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh needs positive dimensions")
    topo = Topology(name=f"mesh-{rows}x{cols}")
    grid = [[topo.add_switch(f"s{r},{c}") for c in range(cols)] for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link(grid[r][c], grid[r][c + 1])
            if r + 1 < rows:
                topo.add_link(grid[r][c], grid[r + 1][c])
    for r in range(rows):
        for c in range(cols):
            for h in range(hosts_per_switch):
                topo.add_host(grid[r][c], f"h{r},{c}.{h}")
    return topo


def bidirectional_shufflenet(
    p: int = 2, k: int = 3, prop_delay: float = 0.0
) -> Topology:
    """The (p, k) bidirectional shufflenet of [PLG95]; (2, 3) gives 24 nodes.

    Nodes are arranged in ``k`` columns of ``p**k`` rows; node (c, r) links to
    (c+1 mod k, (r*p + j) mod p**k) for j in 0..p-1, links made bidirectional.
    Each switch carries one host, as in the paper's Figure 11 experiment.
    """
    if p < 2 or k < 1:
        raise ValueError("shufflenet needs p >= 2 and k >= 1")
    rows = p**k
    # Each switch fans p links forward and receives p backward (plus one
    # host adapter); 1000+-switch instances, e.g. (2, 8) = 2048 switches,
    # stay well inside the route-byte port budget.
    _check_scale("bidirectional_shufflenet", k * rows, 2 * p + 1)
    topo = Topology(name=f"bshufflenet-{p},{k}")
    grid = [[topo.add_switch(f"s{c},{r}") for r in range(rows)] for c in range(k)]
    seen = set()
    for c in range(k):
        nxt = (c + 1) % k
        for r in range(rows):
            for j in range(p):
                r2 = (r * p + j) % rows
                key = frozenset({(c, r), (nxt, r2)})
                # k == 1 or p-cycle shuffles can generate duplicate pairs;
                # keep the multigraph simple.
                if key in seen or (c, r) == (nxt, r2):
                    continue
                seen.add(key)
                topo.add_link(grid[c][r], grid[nxt][r2], prop_delay)
    for c in range(k):
        for r in range(rows):
            # Adapter links are local: only switch-to-switch links carry the
            # (long) propagation delay in the Figure 11 experiments.
            topo.add_host(grid[c][r], f"h{c},{r}")
    return topo


def clos(
    spines: int = 4,
    leaves: int = 8,
    hosts_per_leaf: int = 4,
    prop_delay: float = 0.0,
) -> Topology:
    """A folded two-level Clos (leaf-spine): every leaf links to every
    spine, hosts attach to the leaves.

    Switches are named ``s{stage},{row}`` (stage 0 = spines, stage 1 =
    leaves).  A spine's degree is ``leaves`` and a leaf's is
    ``spines + hosts_per_leaf``, so both are bounded by the route-byte
    port limit -- large fabrics should grow via
    :func:`butterfly` / :func:`benes` stages rather than flat radix.
    """
    if spines < 1 or leaves < 2:
        raise ValueError("clos needs spines >= 1 and leaves >= 2")
    if hosts_per_leaf < 1:
        raise ValueError("clos needs hosts_per_leaf >= 1")
    _check_scale(
        "clos", spines + leaves, max(leaves, spines + hosts_per_leaf)
    )
    topo = Topology(name=f"clos-{spines}x{leaves}")
    spine_ids = [topo.add_switch(f"s0,{i}") for i in range(spines)]
    leaf_ids = [topo.add_switch(f"s1,{j}") for j in range(leaves)]
    for leaf in leaf_ids:
        for spine in spine_ids:
            topo.add_link(spine, leaf, prop_delay)
    for j, leaf in enumerate(leaf_ids):
        for h in range(hosts_per_leaf):
            topo.add_host(leaf, f"h{j}.{h}")
    return topo


def butterfly(
    k: int = 2,
    n: int = 3,
    hosts_per_switch: int = 1,
    prop_delay: float = 0.0,
) -> Topology:
    """A k-ary n-fly butterfly MIN: ``n`` stages of ``k**(n-1)`` switches.

    Between stages ``s`` and ``s+1`` a switch in row ``r`` links to every
    row that differs from ``r`` only in base-k digit ``n-2-s`` (most
    significant digit first), the classic destination-tag wiring.  Inner
    switches have degree ``2k``.  Hosts attach to the first and last
    stages (the terminal rows).  Switches are named ``s{stage},{row}``;
    ``butterfly(4, 6)`` is a 6144-switch instance for the 1000+-switch
    scenarios.
    """
    if k < 2 or n < 2:
        raise ValueError("butterfly needs k >= 2 and n >= 2")
    if hosts_per_switch < 1:
        raise ValueError("butterfly needs hosts_per_switch >= 1")
    rows = k ** (n - 1)
    _check_scale("butterfly", n * rows, 2 * k + hosts_per_switch)
    topo = Topology(name=f"butterfly-{k}ary{n}")
    grid = [
        [topo.add_switch(f"s{s},{r}") for r in range(rows)] for s in range(n)
    ]
    for s in range(n - 1):
        digit = n - 2 - s
        span = k**digit
        for r in range(rows):
            hi, rest = divmod(r, span * k)
            _old, lo = divmod(rest, span)
            for j in range(k):
                r2 = hi * span * k + j * span + lo
                topo.add_link(grid[s][r], grid[s + 1][r2], prop_delay)
    for stage in (0, n - 1):
        for r in range(rows):
            for h in range(hosts_per_switch):
                topo.add_host(grid[stage][r], f"h{stage},{r}.{h}")
    return topo


def benes(
    terminals: int = 8,
    hosts_per_switch: int = 1,
    prop_delay: float = 0.0,
) -> Topology:
    """A Benes rearrangeable MIN for ``terminals = 2**m`` endpoints:
    ``2m - 1`` stages of ``terminals / 2`` two-by-two switches (two
    back-to-back 2-ary butterflies sharing the middle stage).

    Between stages ``s`` and ``s+1`` row ``r`` links straight to ``r``
    and crossed to ``r ^ (1 << b)`` with ``b = m-2-s`` in the first half
    and its mirror ``b = s-(m-1)`` in the second.  Hosts attach to the
    first and last stages; switches are named ``s{stage},{row}``.
    ``benes(256)`` is a 1920-switch instance.
    """
    if terminals < 4 or terminals & (terminals - 1):
        raise ValueError("benes needs terminals = a power of two >= 4")
    if hosts_per_switch < 1:
        raise ValueError("benes needs hosts_per_switch >= 1")
    m = terminals.bit_length() - 1
    rows = terminals // 2
    stages = 2 * m - 1
    _check_scale("benes", stages * rows, 4 + hosts_per_switch)
    topo = Topology(name=f"benes-{terminals}")
    grid = [
        [topo.add_switch(f"s{s},{r}") for r in range(rows)]
        for s in range(stages)
    ]
    for s in range(stages - 1):
        bit = m - 2 - s if s < m - 1 else s - (m - 1)
        for r in range(rows):
            topo.add_link(grid[s][r], grid[s + 1][r], prop_delay)
            r2 = r ^ (1 << bit)
            if r2 > r:
                topo.add_link(grid[s][r], grid[s + 1][r2], prop_delay)
                topo.add_link(grid[s][r2], grid[s + 1][r], prop_delay)
    for stage in (0, stages - 1):
        for r in range(rows):
            for h in range(hosts_per_switch):
                topo.add_host(grid[stage][r], f"h{stage},{r}.{h}")
    return topo


def line(n_switches: int, hosts_per_switch: int = 1) -> Topology:
    """``n_switches`` switches in a chain."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    topo = Topology(name=f"line-{n_switches}")
    ids = [topo.add_switch() for _ in range(n_switches)]
    for a, b in zip(ids, ids[1:]):
        topo.add_link(a, b)
    for sid in ids:
        for _ in range(hosts_per_switch):
            topo.add_host(sid)
    return topo


def ring(n_switches: int, hosts_per_switch: int = 1) -> Topology:
    """``n_switches`` switches in a cycle."""
    if n_switches < 3:
        raise ValueError("a ring needs at least three switches")
    topo = Topology(name=f"ring-{n_switches}")
    ids = [topo.add_switch() for _ in range(n_switches)]
    for i, sid in enumerate(ids):
        topo.add_link(sid, ids[(i + 1) % n_switches])
    for sid in ids:
        for _ in range(hosts_per_switch):
            topo.add_host(sid)
    return topo


def star(n_leaves: int, hosts_per_leaf: int = 1) -> Topology:
    """A hub switch with ``n_leaves`` leaf switches, hosts on the leaves."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    topo = Topology(name=f"star-{n_leaves}")
    hub = topo.add_switch("hub")
    for _ in range(n_leaves):
        leaf = topo.add_switch()
        topo.add_link(hub, leaf)
        for _ in range(hosts_per_leaf):
            topo.add_host(leaf)
    return topo


def myrinet_testbed(hosts: int = 8, switches: int = 4) -> Topology:
    """The 4-switch / 8-host Myrinet configuration of the measurements
    (Section 8.2): switches in a chain, hosts spread evenly across them."""
    if switches < 1 or hosts < 1:
        raise ValueError("need at least one switch and one host")
    topo = Topology(name=f"myrinet-{switches}sw-{hosts}h")
    ids = [topo.add_switch() for _ in range(switches)]
    for a, b in zip(ids, ids[1:]):
        topo.add_link(a, b)
    for h in range(hosts):
        topo.add_host(ids[h % switches], f"host{h}")
    return topo


def random_irregular(
    n_switches: int,
    extra_links: int = 0,
    hosts_per_switch: int = 1,
    seed: int = 0,
) -> Topology:
    """A random connected topology: a random spanning tree plus
    ``extra_links`` random crosslinks (the 'almost a tree with a few
    crosslinks as back-ups' case discussed in Section 3)."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    rng = random.Random(seed)
    topo = Topology(name=f"irregular-{n_switches}+{extra_links}")
    ids = [topo.add_switch() for _ in range(n_switches)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    for i in range(1, n_switches):
        topo.add_link(shuffled[i], rng.choice(shuffled[:i]))
    existing = {frozenset(l.ends) for l in topo.links}
    candidates = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if frozenset({a, b}) not in existing
    ]
    rng.shuffle(candidates)
    for a, b in candidates[:extra_links]:
        topo.add_link(a, b)
    for sid in ids:
        for _ in range(hosts_per_switch):
            topo.add_host(sid)
    return topo


def hypercube(dimension: int, hosts_per_switch: int = 1) -> Topology:
    """A ``dimension``-cube of switches (2**dimension nodes), the classic
    wormhole-routing multiprocessor topology [NM93]."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    topo = Topology(name=f"hypercube-{dimension}")
    count = 2**dimension
    ids = [topo.add_switch(f"s{index:0{dimension}b}") for index in range(count)]
    for index in range(count):
        for bit in range(dimension):
            peer = index ^ (1 << bit)
            if peer > index:
                topo.add_link(ids[index], ids[peer])
    for sid in ids:
        for _ in range(hosts_per_switch):
            topo.add_host(sid)
    return topo


def complete_switches(n_switches: int, hosts_per_switch: int = 1) -> Topology:
    """Fully connected switch graph (every crosslink present): the extreme
    case for the Section 3 tree-restriction penalty, since up/down
    routing leaves most links unused."""
    if n_switches < 2:
        raise ValueError("need at least two switches")
    topo = Topology(name=f"complete-{n_switches}")
    ids = [topo.add_switch() for _ in range(n_switches)]
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            topo.add_link(a, b)
    for sid in ids:
        for _ in range(hosts_per_switch):
            topo.add_host(sid)
    return topo


def fig3_topology() -> Topology:
    """The five-switch scenario of Figure 3 (deadlock between a multicast and
    a unicast worm under up/down routing with a crosslink).

    Switches A, B, C, D, E; spanning-tree links A-B, B-C(via figure's layout
    A-C), C-D, B-E and crosslink D-E; hosts b (on E) and c (on D) plus source
    hosts on A.
    """
    topo = Topology(name="fig3")
    a = topo.add_switch("A")
    b = topo.add_switch("B")
    c = topo.add_switch("C")
    d = topo.add_switch("D")
    e = topo.add_switch("E")
    topo.add_link(a, b)
    topo.add_link(a, c)
    topo.add_link(c, d)
    topo.add_link(b, e)
    topo.add_link(d, e)  # the crosslink
    topo.add_host(a, "srcM")  # multicast source
    topo.add_host(a, "srcU")  # unicast source
    topo.add_host(e, "host_b")
    topo.add_host(d, "host_c")
    topo.add_host(c, "host_y")  # the figure's unicast source routing via C
    return topo

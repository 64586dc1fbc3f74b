"""Poisson worm sources (Section 7's traffic model).

Each host generates worms by a Poisson process with geometrically
distributed lengths (mean 400 bytes in the paper).  The *offered load* is
the output-link utilization per host, so the mean inter-arrival time is
``mean_length / offered_load`` byte-times.  A host that belongs to at least
one multicast group turns each new worm into a multicast with probability
``multicast_fraction``, choosing the group uniformly among its memberships;
all other worms are unicasts to uniformly chosen destinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.adapters import MulticastEngine
from repro.net.worm import MAX_WORM_BYTES
from repro.sim.engine import Simulator
from repro.sim.events import URGENT
from repro.sim.rng import RandomStreams


@dataclass
class TrafficConfig:
    """Per-host Poisson traffic parameters.

    Attributes
    ----------
    offered_load:
        Output-link utilization per host (the x axis of Figures 10/11).
    mean_length:
        Mean worm length in bytes (geometric; the paper uses 400).
    min_length:
        Smallest worm (header floor) in bytes.
    multicast_fraction:
        Probability that a group member's new worm is a multicast
        (the paper's 'proportion of generated multicast worms').
    """

    offered_load: float = 0.05
    mean_length: float = 400.0
    min_length: int = 16
    multicast_fraction: float = 0.1
    #: Worms are capped here; with finite adapter buffers set this at (or
    #: below) the buffer size -- the paper's Section 4 notes oversized
    #: messages must be split by the originating host.
    max_length: int = MAX_WORM_BYTES

    def __post_init__(self) -> None:
        if not 0 < self.offered_load <= 1:
            raise ValueError(f"offered load {self.offered_load} outside (0, 1]")
        if self.mean_length <= self.min_length:
            raise ValueError("mean_length must exceed min_length")
        if not 0 <= self.multicast_fraction <= 1:
            raise ValueError("multicast_fraction outside [0, 1]")
        if self.max_length < self.mean_length:
            raise ValueError("max_length must be at least the mean length")
        if self.max_length > MAX_WORM_BYTES:
            raise ValueError(f"max_length exceeds Myrinet max {MAX_WORM_BYTES}")

    @property
    def mean_interarrival(self) -> float:
        """Mean time between worm generations at one host, byte-times."""
        return self.mean_length / self.offered_load


class TrafficGenerator:
    """Runs one Poisson source per host."""

    def __init__(
        self,
        sim: Simulator,
        engine: MulticastEngine,
        config: TrafficConfig,
        rng: Optional[RandomStreams] = None,
        hosts: Optional[List[int]] = None,
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.config = config
        self.rng = rng or engine.rng
        self.hosts = list(hosts) if hosts is not None else engine.net.topology.hosts
        self.generated_worms = 0
        self.generated_multicasts = 0
        self._started = False

    def start(self) -> None:
        """Launch the per-host sources; a second call raises RuntimeError."""
        if self._started:
            raise RuntimeError("traffic generator already started")
        self._started = True
        for host in self.hosts:
            others = [h for h in self.hosts if h != host]
            if others:
                _PoissonSource(self, host, others)

    @property
    def multicast_share(self) -> float:
        """Observed fraction of generated worms that were multicasts."""
        if self.generated_worms == 0:
            return 0.0
        return self.generated_multicasts / self.generated_worms


class _PoissonSource:
    """One host's Poisson source, as a queue entry that re-enqueues itself.

    The first :meth:`_process` is the bootstrap, enqueued urgent at
    :meth:`TrafficGenerator.start` where a generator process's
    ``Initialize`` would land; it draws the first inter-arrival time.
    Every later one is an arrival: it draws the worm's length, sends the
    worm, and then draws the next inter-arrival time and enqueues itself
    there, as a generator would create its next ``Timeout``.  So every
    entry keeps the instant, priority and order of the generator process
    this replaces, and each stream draws in the same sequence, without a
    Timeout, an event dispatch and a generator resume per arrival.
    """

    __slots__ = (
        "traffic", "engine", "topology", "config", "host", "others",
        "arrivals", "lengths", "choices", "started",
    )

    def __init__(
        self, traffic: TrafficGenerator, host: int, others: List[int]
    ) -> None:
        rng = traffic.rng
        self.traffic = traffic
        self.engine = traffic.engine
        self.topology = traffic.engine.net.topology
        self.config = traffic.config
        self.host = host
        self.others = others
        self.arrivals = rng.stream(f"traffic.arrivals.h{host}")
        self.lengths = rng.stream(f"traffic.lengths.h{host}")
        self.choices = rng.stream(f"traffic.choices.h{host}")
        self.started = False
        traffic.sim.schedule_entry(self, 0.0, URGENT)

    def _process(self) -> None:
        if self.started:
            self._arrive()
        else:
            self.started = True
        self.traffic.sim.schedule_entry(
            self, self.arrivals.exponential(self.config.mean_interarrival)
        )

    def _arrive(self) -> None:
        config = self.config
        host = self.host
        length = min(
            self.lengths.geometric(config.mean_length, minimum=config.min_length),
            config.max_length,
        )
        if not self.topology.node_alive(host):
            # A crashed host stops generating, but the RNG draws above
            # still happen so its streams stay aligned if it comes back.
            return
        # Re-resolved every message: host death splices members out of
        # (or dissolves) groups mid-run.  Fault-free runs see a static
        # list, and no RNG draw depends on it until `if groups`.
        engine = self.engine
        traffic = self.traffic
        groups = engine.groups.groups_of(host)
        traffic.generated_worms += 1
        choices = self.choices
        if groups and choices.bernoulli(config.multicast_fraction):
            group = choices.choice(groups)
            traffic.generated_multicasts += 1
            engine.multicast(origin=host, gid=group.gid, length=length)
        else:
            engine.unicast(host, choices.choice(self.others), length)

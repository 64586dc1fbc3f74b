"""Discrete-event simulation kernel.

A small, dependency-free, simpy-style kernel used as the substitute for the
Maisie simulation language the paper's simulator [BGK+96] was written in.

The kernel provides:

* :class:`~repro.sim.engine.Simulator` -- the event loop and clock.
* :class:`~repro.sim.events.Event` and :class:`~repro.sim.events.Timeout`.
* :class:`~repro.sim.process.Process` -- generator-coroutine processes.
* :class:`~repro.sim.resources.Container` -- byte-counted pools with
  blocking gets (adapter buffer pools, the testbed cards' input buffers).
* :meth:`~repro.sim.engine.Simulator.schedule_entry` and
  :meth:`~repro.sim.engine.Simulator.entry_queue` -- queue entries that
  re-enqueue themselves, which the worm runs, Poisson sources and testbed
  cards use in place of processes.
* :mod:`~repro.sim.monitor` -- statistics collectors.
* :mod:`~repro.sim.rng` -- named, reproducible random streams.

The simulation clock unit throughout the reproduction is the **byte-time**:
the time to transmit one byte on a 640 Mb/s Myrinet link (12.5 ns).
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Container
from repro.sim.monitor import Histogram, RateMeter, TallyStat, TimeWeightedStat
from repro.sim.rng import RandomStreams
from repro.sim.trace import SimTrace

__all__ = [
    "Container",
    "Event",
    "Histogram",
    "Process",
    "RandomStreams",
    "RateMeter",
    "SimTrace",
    "Simulator",
    "TallyStat",
    "Timeout",
    "TimeWeightedStat",
]

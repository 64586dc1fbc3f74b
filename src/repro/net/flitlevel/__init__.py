"""Byte/flit-granular wormhole substrate.

This package models the network at the byte level, like the Maisie
simulator of [BGK+96]: slack buffers with STOP/GO watermarks (Figure 1),
crossbar switches that strip route bytes and replicate multicast worms in
the fabric, IDLE fills on blocked multicast branches, and the three
switch-level deadlock-avoidance schemes of Section 3:

* ``IDLE_FILL`` -- the base scheme: a blocked multicast branch makes the
  other branches transmit IDLE characters (deadlock-prone with crosslinks,
  Figure 3; safe when all routes are restricted to the up/down tree).
* ``INTERRUPT`` -- scheme 2: non-blocked branches interrupt transmission
  (releasing their ports), resuming later with a prepended header; the
  destination reassembles the fragments.
* ``IDLE_FLUSH`` -- scheme 3: ports transmitting IDLE for a while are
  flagged multicast-IDLE, and a unicast blocked by such a port is flushed
  (backward reset) and retransmitted by its source after a random timeout.

The flit-level model is used for the switch-fabric multicast experiments
and the deadlock demonstrations; the large latency sweeps (Figures 10/11)
use the faster worm-level model in :mod:`repro.net.wormnet`.
"""

from repro.net.flitlevel.flits import Flit, FlitKind
from repro.net.flitlevel.slack import SlackBuffer
from repro.net.flitlevel.wire import Wire
from repro.net.flitlevel.network import (
    DeadlockDetected,
    FlitNetwork,
    MulticastMode,
)

__all__ = [
    "DeadlockDetected",
    "Flit",
    "FlitKind",
    "FlitNetwork",
    "MulticastMode",
    "SlackBuffer",
    "Wire",
]

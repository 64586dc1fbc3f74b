"""Parallel sweep execution for the paper's figure reproductions.

Every figure in the evaluation (Figs. 10-13) is a sweep over independent
(scheme × load × proportion) points; this package turns those sweeps from
a serial for-loop into a cached, parallel, deterministic subsystem:

* :class:`~repro.sweep.spec.SweepSpec` -- a cartesian parameter grid with
  deterministic per-point seed derivation;
* :func:`~repro.sweep.runner.run_sweep` -- fans points out over a
  ``multiprocessing`` pool; parallel records are byte-identical to a
  sequential run because every point owns its simulator and seed;
* :class:`~repro.sweep.cache.SweepCache` -- an on-disk result cache keyed
  by config **and** a fingerprint of the simulator sources, so re-runs
  after a code change only simulate what the change could affect;
* :mod:`~repro.sweep.figures` -- the figure grids (shared by benchmarks
  and the CLI);
* ``python -m repro.sweep`` -- the command-line front end.
"""

from repro.sweep.cache import SweepCache, code_fingerprint
from repro.sweep.figures import fig10_spec, fig11_spec, fig12_spec
from repro.sweep.points import POINT_KINDS, execute_point, point_kind
from repro.sweep.runner import (
    SweepOutcome,
    default_jobs,
    records_to_results,
    records_to_testbed_results,
    run_sweep,
)
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_key, derive_seed

__all__ = [
    "POINT_KINDS",
    "SweepCache",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "canonical_key",
    "code_fingerprint",
    "default_jobs",
    "derive_seed",
    "execute_point",
    "fig10_spec",
    "fig11_spec",
    "fig12_spec",
    "point_kind",
    "records_to_results",
    "records_to_testbed_results",
    "run_sweep",
]

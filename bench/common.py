"""Helpers shared by the workloads: record hashing, pins and statistics."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"
#: Scratch space for traces and fleet run-dirs (ignored by git).
OUT_DIR = ROOT / ".bench_out"

#: The seed whose records are pinned in ``reference/``.
REFERENCE_SEED = 1
#: Cold launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 9


def record_hash(record: Any) -> str:
    """sha256 of a record's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def item_id(kind: str, params: Dict[str, Any]) -> str:
    """Stable name of one unit of work: its kind and full parameters."""
    from repro.sweep.spec import canonical_key

    return hashlib.sha256(f"{kind}|{canonical_key(params)}".encode()).hexdigest()[:16]


def load_pins(workload: str) -> Dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["records"]


def write_pins(workload: str, records: Dict[str, str]) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": REFERENCE_SEED, "records": records},
        indent=1, sort_keys=True,
    ) + "\n")
    return path


class Ledger:
    """Counts attempted and failed items and checks every record.

    A record fails when its item raised, when it differs from an earlier
    copy of the same item (determinism, and traced == untraced), when the
    item is pinned and the hash differs from the pin, or when the caller
    says the item must be pinned and it is not.
    """

    def __init__(self, pins: Dict[str, str]) -> None:
        self.pins = pins
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(
        self, item: str, record: Optional[Any], error: str = "", pinned: bool = False
    ) -> bool:
        """Account one attempted item; returns whether it passed."""
        self.attempted += 1
        if record is None:
            self.fail(f"{item}: {error or 'no record'}")
            return False
        digest = record_hash(record)
        first = self.seen.setdefault(item, digest)
        if first != digest:
            self.fail(f"{item}: record differs from an earlier copy")
            return False
        pin = self.pins.get(item)
        if pin is None and pinned:
            self.fail(f"{item}: no pinned reference")
            return False
        if pin is not None and pin != digest:
            self.fail(f"{item}: record does not match its pin")
            return False
        return True


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


#: CPU seconds of ``host_speed``'s loop on the reference machine (2-vCPU
#: Xeon VM, Python 3.11.7) while no other tenant shares its core.
CALIBRATION_S = 0.0017


def host_speed() -> float:
    """How fast this host runs Python now, relative to the reference
    machine at rest: ``CALIBRATION_S`` over the CPU time of a fixed loop
    that runs no ``repro`` code.

    On a shared host another tenant on the same core slows every
    instruction alike; on the reference machine that halves the speed for
    seconds at a time and moved raw pass times by 20 % between runs.  The
    benchmark scales each timed sample by the readings of a
    :class:`SpeedMeter` taken while it ran, so its times read as seconds
    on the reference machine at rest, and a change in ``repro`` code still
    moves them in full.
    """
    began = time.thread_time()
    table: Dict[int, int] = {}
    for i in range(16_000):
        table[i & 255] = table.get(i & 255, 0) + i
    return CALIBRATION_S / (time.thread_time() - began)


class SpeedMeter:
    """Reads :func:`host_speed` every ``period_s`` in a background thread,
    turn by turn on each of ``cpus`` (default: every CPU this process may
    use).

    On the reference machine each core's speed flips between two levels
    (~0.65 and ~1.05 of rest) several times a second, the cores
    independently, so readings at the two ends of a long stretch of work
    say little about the stretch.  Work in this process pins itself to one
    CPU and meters only that one; the meter thread then holds the GIL for
    ~1.7 ms of every ``period_s``, which slows such work by ~7 %, the same
    in every run.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None,
                 period_s: float = 0.025) -> None:
        self.cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
        self.period_s = period_s
        #: ``(perf_counter at the end of the reading, speed)``, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedMeter":
        self.samples.append((time.perf_counter(), host_speed()))
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        turn = 0
        while not self._stop.wait(self.period_s):
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})  # this thread only
            turn += 1
            speed = host_speed()
            self.samples.append((time.perf_counter(), speed))

    def speed_since(self, start: float) -> float:
        """Mean of the readings taken since ``start`` and of the last one
        before it, so a stretch shorter than ``period_s`` gets the latest."""
        samples = self.samples[:]
        first = bisect.bisect_left(samples, start, key=lambda sample: sample[0])
        return statistics.fmean(speed for _t, speed in samples[max(0, first - 1):])


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

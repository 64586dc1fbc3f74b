"""The ``served`` workload: a sweep client driving a local fleet over HTTP.

``python -m repro.cluster`` runs in its own process group with a fresh
run-dir and no cache dir.  The client drives it the way
``ClusterClient.run_points`` drives a sweep: each pass sends ``POST /submit``
for all of its requests up front, so every shard has work queued at once,
and then collects the records in submission order with
``GET /result/{id}?wait=1``.  One keep-alive connection carries both.
Fresh requests cycle through nine fixed variants of three point kinds;
every fourth request repeats an earlier one, which the serve layer answers
from its job history (or coalesces onto the running job) without a worker.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    REFERENCE_SEED,
    ROOT,
    SETUP_LAUNCHES,
    Ledger,
    SpeedMeter,
    item_id,
    load_pins,
    median,
    percentile,
)
from tracing import Tracer

SHARDS = 2
WORKERS = 1
#: Requests per pass; every ``REPEAT_EVERY``-th repeats an earlier
#: request, the rest are fresh.
PER_PASS = 24
REPEAT_EVERY = 4
#: Passes whose records are pinned at the reference seed.
PINNED_PASSES = 3
#: Every n-th distinct request is re-run in-process after the window and
#: must match the served record byte for byte.
VERIFY_EVERY = 10
#: Seconds the fleet gets to exit after SIGTERM before stragglers count
#: as leaked.
LEAK_GRACE_S = 5.0
READY_TIMEOUT_S = 60.0
RESULT_WAIT_S = 60.0


def templates() -> List[Tuple[str, Dict[str, Any]]]:
    """Fresh requests cycle through these, so every pass carries the same
    mix of work; the seed draws each request's simulation seed.  Three
    kinds, three variants each: a small Fig-11 shufflenet point (scale
    0.2), a 2x2 Fig-3 offset grid of 64-byte worms (schemes 1-3) and a
    30 ms Myrinet testbed window."""
    from repro.sweep.figures import fig11_spec

    fig11 = fig11_spec(scale=0.2).base
    fig3 = {"mc_delays": 2, "uc_delays": 2, "worm_bytes": 64}
    myrinet = {"measure_us": 30_000.0}
    return [
        ("load_point", dict(fig11, scheme="tree", load=0.05, multicast_fraction=0.10)),
        ("fig3_offsets", dict(fig3, scheme="s1_tree_restricted")),
        ("myrinet_throughput", dict(myrinet, packet_size=1024, all_send=False)),
        ("load_point", dict(fig11, scheme="hamiltonian", load=0.05, multicast_fraction=0.20)),
        ("fig3_offsets", dict(fig3, scheme="s2_interrupt")),
        ("myrinet_throughput", dict(myrinet, packet_size=8192, all_send=True)),
        ("load_point", dict(fig11, scheme="tree", load=0.07, multicast_fraction=0.15)),
        ("fig3_offsets", dict(fig3, scheme="s3_idle_flush")),
        ("myrinet_throughput", dict(myrinet, packet_size=4096, all_send=False)),
    ]


class RequestStream:
    """Deterministic requests of the client: fresh points and repeats."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"served/{seed}")
        self.templates = templates()
        self.history: List[Tuple[str, Dict[str, Any]]] = []
        self._sent = 0

    def next_pass(self) -> List[Tuple[str, Dict[str, Any], bool]]:
        """``PER_PASS`` requests: ``(kind, params, is_repeat)``."""
        return [self._next() for _ in range(PER_PASS)]

    def _next(self) -> Tuple[str, Dict[str, Any], bool]:
        self._sent += 1
        if self._sent % REPEAT_EVERY == 0:
            kind, params = self.rng.choice(self.history)
            return kind, params, True
        kind, base = self.templates[len(self.history) % len(self.templates)]
        params = dict(base, seed=self.rng.randrange(1, 2**31))
        self.history.append((kind, params))
        return kind, params, False


# -- fleet ----------------------------------------------------------------------
class Fleet:
    """A ``python -m repro.cluster`` process group and its address."""

    def __init__(self, run_dir: Path) -> None:
        ready = run_dir / "ready.json"
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [
            sys.executable, "-m", "repro.cluster",
            "--shards", str(SHARDS), "--workers", str(WORKERS),
            "--http-port", "0", "--run-dir", str(run_dir),
            "--ready-file", str(ready), "--quiet",
        ]
        began = self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        deadline = began + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                self.stop(grace=0.0)
                raise RuntimeError(f"fleet exited with {self.process.returncode}")
            try:
                address = json.loads(ready.read_text())
                break
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            if time.perf_counter() > deadline:
                self.stop(grace=0.0)
                raise RuntimeError("fleet not ready in time")
            time.sleep(0.005)
        #: Raw seconds from launch (``launched``) to ready.
        self.ready_s = time.perf_counter() - began
        self.host, self.port = address["host"], address["port"]
        self.shard_ids = [shard["id"] for shard in address["shards"]]

    def members(self) -> List[int]:
        """Live (non-zombie) processes of the fleet's process group."""
        return [pid for pid, _rss in _group(self.pgid)]

    def rss_mb(self) -> float:
        """Sum of the peak resident sets (VmHWM) of the group's processes."""
        return sum(rss for _pid, rss in _group(self.pgid)) / 1024.0

    def stop(self, grace: float) -> int:
        """SIGTERM the supervisor; after ``grace`` seconds count the group's
        survivors (leaked processes), then SIGKILL the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + grace
        while self.members() and time.perf_counter() < deadline:
            time.sleep(0.05)
        leaked = len(self.members())
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        deadline = time.perf_counter() + 10.0
        while self.members() and time.perf_counter() < deadline:
            time.sleep(0.02)
        return leaked


def _group(pgid: int) -> List[Tuple[int, int]]:
    """``(pid, VmHWM KiB)`` of every live process in process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if fields[0] == "Z" or int(fields[2]) != pgid:
                continue
            hwm = 0
            with open(f"/proc/{entry}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm = int(line.split()[1])
            found.append((int(entry), hwm))
        except (OSError, IndexError, ValueError):
            continue
    return found


# -- the client -------------------------------------------------------------------
class _Client:
    def __init__(self, fleet: Fleet) -> None:
        self.conn = http.client.HTTPConnection(fleet.host, fleet.port, timeout=RESULT_WAIT_S + 30)

    def call(self, method: str, path: str, body: Optional[Dict[str, Any]] = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")


class _Sample:
    """What one request saw, client side.  Times are raw ``perf_counter``
    seconds; ``speed`` scales durations to the reference host."""

    __slots__ = ("item", "kind", "params", "repeat", "record", "error", "speed",
                 "began", "submitted", "asked", "done", "shard", "job", "server",
                 "ring_us")

    def __init__(self, item, kind, params, repeat) -> None:
        self.item, self.kind, self.params, self.repeat = item, kind, params, repeat
        self.record = None
        self.error = ""
        self.speed = 1.0
        #: Submit sent / acknowledged, result asked for / received.
        self.began = self.submitted = self.asked = self.done = 0.0
        self.ring_us = 0.0
        self.shard = self.job = None
        #: ``GET /status`` body (traced passes only).
        self.server: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Submit to record in hand, at reference host speed."""
        return (self.done - self.began) * self.speed

    @property
    def submit(self) -> float:
        """Round trip of ``POST /submit``, at reference host speed."""
        return (self.submitted - self.began) * self.speed


_ERRORS = (OSError, http.client.HTTPException, ValueError, KeyError)


def _run_pass(client: _Client, samples: List[_Sample]) -> None:
    """Submit every request, then collect every record in order."""
    clock = time.perf_counter
    for sample in samples:
        sample.began = clock()
        try:
            status, body = client.call(
                "POST", "/submit", {"kind": sample.kind, "params": sample.params}
            )
            sample.submitted = clock()
            if status != 200:
                sample.error = f"submit HTTP {status}: {body.get('error')}"
                continue
            sample.job, sample.shard = body["job"], body.get("shard")
        except _ERRORS as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
    for sample in samples:
        if sample.error:
            continue
        sample.asked = clock()
        try:
            status, body = client.call(
                "GET", f"/result/{sample.job}?wait=1&timeout={RESULT_WAIT_S:g}"
            )
            sample.done = clock()
            if status != 200:
                sample.error = f"result HTTP {status}: {body.get('error')}"
                continue
            sample.record = body["record"]
        except _ERRORS as exc:
            sample.error = f"{type(exc).__name__}: {exc}"


def _trace_pass(client: _Client, samples: List[_Sample], tracer: Tracer, ring) -> None:
    """After a traced pass: fetch each job's server timestamps, time the
    gateway's routing step on the same ring and key, and record one span
    per request with its two client round trips as children."""
    clock = time.perf_counter
    for sample in samples:
        if sample.error:
            continue
        try:
            status, body = client.call("GET", f"/status/{sample.job}")
        except _ERRORS as exc:
            status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
        if status != 200:
            sample.record, sample.error = None, f"status HTTP {status}: {body.get('error')}"
            continue
        sample.server = body
        began = clock()
        ring.owners(sample.job, 2)
        sample.ring_us = (clock() - began) * 1e6 * sample.speed
        root = tracer.add_span("request", sample.began, sample.done, -1, sample.job)
        tracer.add_span("cluster.submit", sample.began, sample.submitted, root, None)
        tracer.add_span("cluster.result", sample.asked, sample.done, root, None)


def run(name: str, seed: int, seconds: float, trace: bool,
        trace_path: Optional[Path] = None) -> Dict[str, Any]:
    from repro.cluster.ring import HashRing

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="served-", dir=OUT_DIR) as tmp:
        # Launch to ready, at reference host speed; the last fleet stays up.
        setups = []
        with SpeedMeter() as meter:
            for index in range(SETUP_LAUNCHES):
                fleet = Fleet(Path(tmp) / f"fleet{index}")
                setups.append(fleet.ready_s * meter.speed_since(fleet.launched))
                if index < SETUP_LAUNCHES - 1:
                    fleet.stop(grace=0.0)
        try:
            outcome = _measure(fleet, seed, seconds, trace, HashRing(fleet.shard_ids))
        finally:
            leaked = fleet.stop(grace=LEAK_GRACE_S)
    passes = outcome["passes"]

    ledger = Ledger(load_pins(name))
    pin_items = set()
    for pass_no, (_traced, _took, samples) in enumerate(passes):
        pinned = seed == REFERENCE_SEED and pass_no < PINNED_PASSES
        for sample in samples:
            ledger.check(sample.item, sample.record, sample.error, pinned=pinned)
            if pinned:
                pin_items.add(sample.item)
    pin_items |= _verify_in_process(passes, ledger)

    # Latency percentiles of each pass, then the median pass: like
    # ``wall_s``, one pass slowed by another tenant does not move them.
    latencies = [[s.latency for s in samples if not s.error]
                 for _t, _took, samples in passes]
    latencies = [pass_latencies for pass_latencies in latencies if pass_latencies]
    result = {
        "ledger": ledger,
        "e2e": {
            "wall_s": median(took for _t, took, _samples in passes),
            "latency_p50_ms": median(percentile(l, 50) for l in latencies) * 1e3,
            "latency_p95_ms": median(percentile(l, 95) for l in latencies) * 1e3,
            "peak_rss_mb": outcome["rss_mb"],
        },
        "setup_s": median(setups),
        "window_s": outcome["window_s"],
        "passes": len(passes),
        "pin_items": pin_items,
    }
    tracer = outcome["tracer"]
    if tracer is not None:
        result["layers"] = _layer_metrics(passes, outcome["snapshot"], leaked)
        if trace_path is not None:
            for problem in tracer.export_chrome(trace_path)[:1]:
                ledger.fail(f"chrome trace invalid: {problem}")
    return result


def _measure(fleet: Fleet, seed: int, seconds: float, trace: bool, ring) -> Dict[str, Any]:
    """Passes of ``PER_PASS`` requests until ``seconds`` are up (traced:
    alternating untraced / traced, at least one of each).  A
    :class:`SpeedMeter` reads both cores through the run (the client thread
    only waits on its socket meanwhile); each pass is scaled by the
    readings taken while it ran.  Returns the passes as
    ``(traced, seconds, samples)``."""
    tracer = Tracer() if trace else None
    client = _Client(fleet)
    stream = RequestStream(seed)
    passes: List[Tuple[bool, float, List[_Sample]]] = []
    min_passes = 2 if trace else 1
    clock = time.perf_counter
    start = clock()
    try:
        with SpeedMeter() as meter:
            while len(passes) < min_passes or clock() - start < seconds:
                traced = trace and len(passes) % 2 == 1
                samples = [_Sample(item_id(kind, params), kind, params, repeat)
                           for kind, params, repeat in stream.next_pass()]
                began = clock()
                _run_pass(client, samples)
                took = clock() - began
                speed = meter.speed_since(began)
                for sample in samples:
                    sample.speed = speed
                if traced:
                    _trace_pass(client, samples, tracer, ring)
                passes.append((traced, took * speed, samples))
        window = clock() - start
        status, body = client.call("GET", "/metrics")
        snapshot = body.get("snapshot") if status == 200 else None
        rss = fleet.rss_mb()
    finally:
        client.conn.close()
    return {"passes": passes, "snapshot": snapshot, "rss_mb": rss,
            "window_s": window, "tracer": tracer}


def _verify_in_process(passes, ledger: Ledger) -> set:
    """Re-run every ``VERIFY_EVERY``-th distinct request in this process:
    the served record must be byte-identical to a direct execution.  The
    first requests of the reference seed run too and must match their
    pins, whatever the seed.  Returns the pinned anchor items."""
    from repro.serve.jobs import make_point
    from repro.sweep.points import execute_point

    distinct = [s for _t, _took, samples in passes for s in samples if not s.repeat]
    checks = [(s.kind, s.params, False) for s in distinct[::VERIFY_EVERY]]
    anchor = RequestStream(REFERENCE_SEED).next_pass()[:3]
    checks += [(kind, params, True) for kind, params, repeat in anchor if not repeat]
    anchors = set()
    for kind, params, pinned in checks:
        item = item_id(kind, params)
        if pinned:
            anchors.add(item)
        try:
            record = execute_point(kind, make_point(kind, params).executor_params())
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            ledger.check(item, None, f"{type(exc).__name__}: {exc}")
            continue
        ledger.check(item, record, pinned=pinned)
    return anchors


def _metric(snapshot: Optional[Dict[str, Any]], name: str) -> float:
    if not snapshot:
        return 0.0
    return sum(
        entry.get("value") or 0.0 for entry in snapshot["metrics"] if entry["name"] == name
    )


def _layer_metrics(passes, snapshot, leaked: int) -> Dict[str, float]:
    """The served layer metrics.  ``trace.span_coverage_pct`` is left out:
    a request's children are its two client round trips, which say nothing
    about the gateway, ring, serve or worker layers."""
    traced = [s for on, _took, samples in passes if on for s in samples if not s.error]
    executed = [s for s in traced if not s.repeat and s.server
                and s.server.get("started_at") is not None]

    def server_ms(sample: _Sample, begin: str, end: str) -> float:
        return (sample.server[end] - sample.server[begin]) * sample.speed * 1e3

    waits = [server_ms(s, "submitted_at", "started_at") for s in executed]
    execs = [server_ms(s, "started_at", "finished_at") for s in executed]
    overheads = [s.latency * 1e3 - server_ms(s, "submitted_at", "finished_at")
                 for s in executed]
    submits = [s.submit * 1e3 for s in traced]
    routed = [s for _on, _took, samples in passes for s in samples if s.shard]
    shares: Dict[str, int] = {}
    for s in routed:
        shares[s.shard] = shares.get(s.shard, 0) + 1
    times_on = [took for on, took, _samples in passes if on]
    times_off = [took for on, took, _samples in passes if not on]
    submitted = _metric(snapshot, "serve.submitted")
    hits = _metric(snapshot, "serve.cache_hits") + _metric(snapshot, "serve.coalesced")
    sizes = [e for e in (snapshot or {}).get("metrics", []) if e["name"] == "serve.batch_size"]
    return {
        "cluster.submit_ms.p50": percentile(submits, 50),
        "cluster.submit_ms.p99": percentile(submits, 99),
        "cluster.overhead_ms.p50": percentile(overheads, 50),
        "cluster.ring_owners_us": median(s.ring_us for s in traced),
        "cluster.shard_share.max": max(shares.values()) / len(routed) if routed else 0.0,
        "cluster.leaked_procs": leaked,
        "serve.wait_ms.p50": percentile(waits, 50),
        "serve.wait_ms.p99": percentile(waits, 99),
        "serve.exec_ms.p50": percentile(execs, 50),
        "serve.exec_ms.p99": percentile(execs, 99),
        "serve.hit_ratio": hits / submitted if submitted else 0.0,
        "serve.batches": _metric(snapshot, "serve.batches") / len(passes) if passes else 0.0,
        "serve.batch_size.mean": sizes[0]["mean"] if sizes and sizes[0].get("mean") else 0.0,
        "trace.overhead_pct": (
            100.0 * (median(times_on) / median(times_off) - 1.0) if times_off else 0.0
        ),
    }

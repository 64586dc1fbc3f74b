#!/usr/bin/env python
"""End-to-end smoke of ``repro.cluster``: the scripted session CI runs.

Starts a real ``python -m repro.cluster`` process (3 serve shards plus
the HTTP gateway), then drives one scripted HTTP session against it:

1. ``GET /health`` — all shards alive;
2. ``POST /submit`` a Figure 3 offset-grid point, wait on
   ``GET /result/{id}?wait=1``, assert the record is byte-identical to
   running the same point in-process;
3. fan a small sweep out across the ring, then **kill one shard**
   (a clean ``shutdown`` op straight to its TCP port), collect the
   first record, and **kill a second shard** while the rest are still
   being collected — every record must still come back byte-identical,
   re-executed by the next live shard in each key's ring order (with
   two of three shards dead, keys whose first two shards both died go
   to the third);
4. ``GET /health`` again — degraded, two shards down;
5. ``GET /metrics`` — the fleet-merged snapshot, written to
   ``<out>/metrics.json`` for ``python -m repro.obs validate``;
6. SIGTERM the supervisor and reap it.

Exits non-zero on any violated expectation.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py --out results/cluster_smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster.ring import HashRing  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.sweep.points import execute_point  # noqa: E402

#: A small but real flit-level point: the Figure 3 offset grid, reduced.
POINT_KIND = "fig3_offsets"
POINT_PARAMS = {
    "scheme": "s3_idle_flush",
    "mc_delays": 2,
    "uc_delays": 2,
    "worm_bytes": 64,
    "max_ticks": 20_000,
}
POINT_SEED = 3

#: The fan-out sweep whose collection straddles the shard kill.
SWEEP_POINTS = [
    {"kind": "nap", "params": {"duration": 0.3, "tag": f"smoke{i}"}, "seed": i}
    for i in range(6)
]


def http_json(base: str, method: str, target: str, body=None, timeout=120.0):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base + target, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=False)


def shutdown_shard(shard: dict) -> None:
    """A clean ``shutdown`` op straight to the shard's TCP port."""
    with ServeClient(shard["host"], shard["port"], timeout=30.0) as doomed:
        assert doomed.shutdown()["stopping"] is True


def wait_for_ready(ready_file: Path, process, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"cluster exited early with code {process.returncode}"
            )
        if ready_file.is_file():  # written atomically: whole once there
            return json.loads(ready_file.read_text())
        time.sleep(0.1)
    raise RuntimeError("cluster did not become ready in time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("results/cluster_smoke"),
        help="output directory (metrics.json, session.json)",
    )
    parser.add_argument("--shards", type=int, default=3)
    args = parser.parse_args()
    if args.shards < 3:
        parser.error("--shards must be at least 3: the session kills two")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ready_file = out / "ready.json"
    ready_file.unlink(missing_ok=True)

    cluster = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cluster",
            "--shards", str(args.shards),
            "--workers", "1",
            "--http-port", "0",
            "--run-dir", str(out / "fleet"),
            "--cache-dir", str(out / "cache"),
            "--ready-file", str(ready_file),
        ],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    session = {"steps": []}

    def step(name: str, **info):
        print(f"[cluster-smoke] {name}: {info}")
        session["steps"].append({"step": name, **info})

    try:
        address = wait_for_ready(ready_file, cluster)
        base = f"http://{address['host']}:{address['port']}"
        shards = {s["id"]: s for s in address["shards"]}
        assert len(shards) == args.shards, address

        status, health = http_json(base, "GET", "/health")
        assert status == 200 and health["status"] == "ok", health
        assert health["shards_alive"] == args.shards, health
        step("health", shards_alive=health["shards_alive"])

        status, submitted = http_json(
            base, "POST", "/submit",
            {"kind": POINT_KIND, "params": POINT_PARAMS, "seed": POINT_SEED},
        )
        assert status == 200 and submitted["ok"], submitted
        status, fetched = http_json(
            base, "GET", f"/result/{submitted['job']}?wait=1&timeout=120"
        )
        assert status == 200, fetched
        params = dict(POINT_PARAMS)
        params["seed"] = POINT_SEED
        direct = execute_point(POINT_KIND, params)
        assert canonical(fetched["record"]) == canonical(direct), (
            "served record != direct record"
        )
        step(
            "fig3-determinism",
            shard=submitted["shard"],
            byte_identical=True,
            deadlocks=fetched["record"]["deadlocked"],
        )

        submits = []
        for point in SWEEP_POINTS:
            status, body = http_json(base, "POST", "/submit", point)
            assert status == 200, body
            submits.append(body)
        victim = submits[0]["shard"]
        step("sweep-submitted", jobs=len(submits), victim=victim)

        # Kill the shard that accepted the first sweep job.
        shutdown_shard(shards[victim])
        step("shard-killed", shard=victim)

        def fetch(body) -> dict:
            status, result = http_json(
                base, "GET", f"/result/{body['job']}?wait=1&timeout=120"
            )
            assert status == 200, result
            return result["record"]

        records = [fetch(submits[0])]
        # Mid-collection, kill the live shard that shares the front of the
        # most uncollected keys' ring orders with the first victim: those
        # keys must go to the third shard.
        ring = HashRing(list(shards))
        fronts = [set(ring.owners(body["job"], 2)) for body in submits[1:]]

        def doubly_hit(candidate: str) -> int:
            return fronts.count({victim, candidate})

        second = max(sorted(set(shards) - {victim}), key=doubly_hit)
        shutdown_shard(shards[second])
        step(
            "second-shard-killed",
            shard=second,
            keys_past_two_dead_shards=doubly_hit(second),
        )
        records += [fetch(body) for body in submits[1:]]
        for point, record in zip(SWEEP_POINTS, records):
            params = dict(point["params"])
            params["seed"] = point["seed"]
            assert canonical(record) == canonical(
                execute_point(point["kind"], params)
            ), f"record diverged after failover: {point}"
        step("failover-determinism", records=len(records), byte_identical=True)

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, health = http_json(base, "GET", "/health")
            if health.get("shards_alive") == args.shards - 2:
                break
            time.sleep(0.5)
        assert status == 200 and health["status"] == "degraded", health
        assert health["shards_alive"] == args.shards - 2, health
        for dead in (victim, second):
            assert health["shards"][dead] == {"status": "down"}, health
        step("degraded-health", shards_alive=health["shards_alive"])

        status, metrics = http_json(base, "GET", "/metrics")
        assert status == 200, metrics
        assert metrics["shards_merged"] == args.shards - 2, metrics
        (out / "metrics.json").write_text(
            json.dumps(
                metrics["snapshot"], indent=2, sort_keys=True, allow_nan=False
            )
        )
        step(
            "metrics",
            shards_merged=metrics["shards_merged"],
            entries=len(metrics["snapshot"]["metrics"]),
        )

        cluster.send_signal(signal.SIGTERM)
        cluster.wait(timeout=60.0)
        step("shutdown", returncode=cluster.returncode)
        assert cluster.returncode == 0, cluster.returncode
    finally:
        if cluster.poll() is None:
            cluster.terminate()
            try:
                cluster.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                cluster.kill()
        (out / "session.json").write_text(
            json.dumps(session, indent=2, sort_keys=True)
        )

    print(f"[cluster-smoke] OK — artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

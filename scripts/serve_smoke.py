#!/usr/bin/env python
"""End-to-end smoke of ``repro.serve``: the scripted session CI runs.

Starts a real ``python -m repro.serve`` server process, then drives one
client session against it:

1. ``health`` — liveness;
2. ``submit`` a Figure 3 offset-grid point -> poll ``status`` -> fetch the
   ``result``;
3. assert the served record is byte-identical to running the same point
   in-process (the service's determinism guarantee);
4. resubmit the same spec -> must answer from cache without executing;
5. fetch ``metrics`` and write the snapshot to ``<out>/metrics.json`` for
   ``python -m repro.obs validate --metrics`` to check;
6. ``shutdown`` and reap the server process.

Exits non-zero on any violated expectation.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --out results/serve_smoke
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

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


def wait_for_ready(ready_file: Path, process, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {process.returncode}"
            )
        if ready_file.is_file():  # written atomically: whole once there
            return json.loads(ready_file.read_text())
        time.sleep(0.1)
    raise RuntimeError("server did not become ready in time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("results/serve_smoke"),
        help="output directory (metrics.json, session.json)",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ready_file = out / "ready.json"
    ready_file.unlink(missing_ok=True)

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--workers", str(args.workers),
            "--cache-dir", str(out / "cache"),
            "--ready-file", str(ready_file),
        ],
        env={**__import__("os").environ, "PYTHONPATH": str(REPO / "src")},
    )
    session = {"steps": []}

    def step(name: str, **info):
        print(f"[serve-smoke] {name}: {info}")
        session["steps"].append({"step": name, **info})

    try:
        address = wait_for_ready(ready_file, server)
        client = ServeClient(address["host"], address["port"], timeout=120.0)

        health = client.health()
        assert health["status"] == "ok", health
        step("health", workers=health["workers"], pid=health["pid"])

        submitted = client.submit(POINT_KIND, POINT_PARAMS, seed=POINT_SEED)
        assert submitted["cached"] is False, submitted
        job = submitted["job"]
        step("submit", job=job[:16], state=submitted["state"])

        polls = 0
        while True:
            status = client.status(job)
            if status["state"] in ("done", "failed", "cancelled"):
                break
            polls += 1
            time.sleep(0.2)
        assert status["state"] == "done", status
        step("status-poll", polls=polls, state=status["state"])

        served = client.result(job, wait=False)["record"]

        params = dict(POINT_PARAMS)
        params["seed"] = POINT_SEED
        direct = execute_point(POINT_KIND, params)
        served_bytes = json.dumps(served, sort_keys=True, allow_nan=False)
        direct_bytes = json.dumps(direct, sort_keys=True, allow_nan=False)
        assert served_bytes == direct_bytes, "served record != direct record"
        step("determinism", byte_identical=True, deadlocks=served["deadlocked"])

        resubmit = client.submit(POINT_KIND, POINT_PARAMS, seed=POINT_SEED)
        assert resubmit["cached"] is True, resubmit
        assert resubmit["job"] == job, resubmit
        step("resubmit", cached=True)

        snapshot = client.metrics()
        executed = sum(
            e["value"]
            for e in snapshot["metrics"]
            if e["name"] == "serve.executed"
        )
        assert executed == 1.0, f"expected exactly one execution, got {executed}"
        (out / "metrics.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True, allow_nan=False)
        )
        step("metrics", entries=len(snapshot["metrics"]), executed=executed)

        client.shutdown()
        client.close()
        server.wait(timeout=30.0)
        step("shutdown", returncode=server.returncode)
        assert server.returncode == 0, server.returncode
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
        (out / "session.json").write_text(
            json.dumps(session, indent=2, sort_keys=True)
        )

    print(f"[serve-smoke] OK — artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Launch and supervise a local fleet of ``repro.serve`` shard processes.

Each shard is one ``python -m repro.serve`` OS process on an ephemeral
port with a ``--ready-file`` (the same contract :mod:`scripts.serve_smoke`
uses); :class:`LocalFleet` collects the announced addresses into
:class:`ShardSpec` entries for the gateway, and exposes ``kill``/``poll``
so harnesses can take shards down mid-run.

Shards deliberately share one ``--cache-dir`` when given: the job-id
space is content-addressed, so any shard's write-through is every
shard's read-through — a failover re-execution is usually a disk hit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ShardSpec:
    """Address of one ``repro.serve`` instance in the fleet."""

    id: str
    host: str
    port: int


class FleetError(RuntimeError):
    """A shard failed to launch or announce itself in time."""


class LocalFleet:
    """N supervised ``repro.serve`` processes on one machine."""

    def __init__(
        self,
        shards: int = 3,
        workers: int = 1,
        run_dir: Optional[Path] = None,
        host: str = "127.0.0.1",
        cache_dir: Optional[Path] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.count = int(shards)
        self.workers = int(workers)
        self.host = host
        self.run_dir = Path(run_dir) if run_dir else Path("results/cluster")
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.processes: Dict[str, subprocess.Popen] = {}
        self.specs: List[ShardSpec] = []

    @staticmethod
    def shard_name(index: int) -> str:
        return f"shard{index}"

    def _spawn(self, shard_id: str) -> subprocess.Popen:
        shard_dir = self.run_dir / shard_id
        shard_dir.mkdir(parents=True, exist_ok=True)
        ready = shard_dir / "ready.json"
        ready.unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "repro.serve",
            "--host", self.host,
            "--port", "0",
            "--workers", str(self.workers),
            "--shard-id", shard_id,
            "--ready-file", str(ready),
            "--quiet",
        ]
        if self.cache_dir is not None:
            command += ["--cache-dir", str(self.cache_dir)]
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(src)
        )
        return subprocess.Popen(command, env=env)

    def start(self, timeout: float = 60.0) -> List[ShardSpec]:
        """Launch every shard and wait for all ready files.

        A shard writes its ready file atomically, so a file that exists is
        whole.
        """
        for index in range(self.count):
            shard_id = self.shard_name(index)
            self.processes[shard_id] = self._spawn(shard_id)
        deadline = time.monotonic() + timeout
        self.specs = []
        for index in range(self.count):
            shard_id = self.shard_name(index)
            ready = self.run_dir / shard_id / "ready.json"
            process = self.processes[shard_id]
            while True:
                if process.poll() is not None:
                    self.stop()
                    raise FleetError(
                        f"{shard_id} exited with {process.returncode} "
                        f"before announcing readiness"
                    )
                if ready.is_file():
                    address = json.loads(ready.read_text())
                    break
                if time.monotonic() > deadline:
                    self.stop()
                    raise FleetError(f"{shard_id} not ready within {timeout}s")
                time.sleep(0.05)
            self.specs.append(
                ShardSpec(
                    id=shard_id, host=address["host"], port=address["port"]
                )
            )
        return self.specs

    def poll(self) -> Dict[str, Optional[int]]:
        """Exit code per shard (None = still running)."""
        return {
            shard_id: process.poll()
            for shard_id, process in self.processes.items()
        }

    def kill(self, shard_id: str, timeout: float = 10.0) -> None:
        """Terminate one shard (simulated death; it is *not* respawned)."""
        process = self.processes[shard_id]
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
                process.wait(timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every shard process."""
        for shard_id in list(self.processes):
            self.kill(shard_id, timeout=timeout)
        self.processes = {}

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""``python -m repro.serve`` leaves no worker processes behind.

A fleet supervisor stops its shards with SIGTERM; the serve CLI must take
its normal shutdown path and close the worker pool.  A shard that dies
without that chance (SIGKILL) must not strand its workers either: their
pipe reads EOF and they exit.  Workers also must not keep a stopped
server's listening socket alive.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
GRACE_S = 5.0

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


def _children(pid):
    """Pids of the live processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)


def _start_server(tmp_path):
    """A ``python -m repro.serve`` session leader and its worker pids.

    The ready file is written atomically, so it is read as soon as it
    exists.  Any failure before the caller's ``try`` takes over kills the
    whole process group, workers included.
    """
    ready = tmp_path / "ready.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--workers", "2", "--port", "0",
         "--ready-file", str(ready), "--quiet"],
        env=env, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                pytest.fail("repro.serve did not become ready")
            time.sleep(0.05)
        assert json.loads(ready.read_text())["pid"] == proc.pid
        workers = _children(proc.pid)
        assert len(workers) >= 2, workers
    except BaseException:
        _kill_group(proc)
        raise
    return proc, workers


def _survivors(workers):
    deadline = time.monotonic() + GRACE_S
    while time.monotonic() < deadline:
        left = [pid for pid in workers if _alive(pid)]
        if not left:
            return []
        time.sleep(0.05)
    return [pid for pid in workers if _alive(pid)]


def test_stopped_server_port_is_not_held_by_sibling_workers():
    """In-process servers: the second server's workers fork after the
    first server listens; stopping the first must still free its port."""
    from repro.serve import ServeConfig, ServerThread
    from repro.serve.client import ServeClient

    first = ServerThread(ServeConfig(workers=1))
    first.start()
    second = ServerThread(ServeConfig(workers=1))
    second.start()
    try:
        # A reply proves the second server's worker is up and past its
        # start-up, where it lets go of the sockets it inherited.
        with ServeClient(second.host, second.port, timeout=30.0) as client:
            client.submit_and_wait("nap", {"tag": "ready"}, timeout=30.0)
        port = first.port
        first.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5.0)
    finally:
        second.stop()


@pytest.mark.parametrize(
    "signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"]
)
def test_no_worker_survives_the_server(tmp_path, signum):
    proc, workers = _start_server(tmp_path)
    try:
        proc.send_signal(signum)
        proc.wait(timeout=30)
        assert _survivors(workers) == []
        if signum == signal.SIGTERM:
            assert proc.returncode == 0
    finally:
        _kill_group(proc)

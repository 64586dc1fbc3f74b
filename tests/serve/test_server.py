"""End-to-end service tests over a live TCP server in this process.

The acceptance property lives here: a record obtained through
``repro.serve`` is byte-identical to the same point run via
``repro.sweep`` — plus cache read-through/write-through in both
directions, job life-cycle edges, priority ordering and crash recovery.
"""

import json
import multiprocessing
import os
import socket
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread
from repro.sweep import SweepCache, SweepSpec, run_sweep
from repro.sweep.points import point_kind

#: The cheap real-simulation spec used for determinism/cache assertions.
SMALL_TESTBED = dict(
    kind="myrinet_throughput",
    grid={"packet_size": [1024]},
    base={"warmup_us": 5_000.0, "measure_us": 20_000.0},
)

IS_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


@point_kind("_serve_test_die")
def _die(params):
    """Kill the worker process outright (crash-path tests, fork only)."""
    os._exit(17)


@point_kind("_serve_test_flaky")
def _flaky(params):
    """Fail on the first run, succeed after (marker file as memory)."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("x")
        raise RuntimeError("flaky first attempt")
    return {"attempt": "second", "tag": params.get("tag")}


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(workers=2, job_timeout=60.0)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    c = ServeClient(server.host, server.port)
    yield c
    c.close()


def canonical(record):
    return json.dumps(record, sort_keys=True, allow_nan=False).encode()


# -- acceptance: determinism --------------------------------------------------
def test_serve_record_byte_identical_to_sweep(client):
    spec = SweepSpec(**SMALL_TESTBED)
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1).records[0]
    served = client.submit_and_wait(
        point.kind, point.params, seed=point.seed, timeout=60.0
    )
    assert canonical(served) == canonical(direct)


# -- cache integration --------------------------------------------------------
def test_write_through_feeds_a_later_sweep(tmp_path):
    spec = SweepSpec(**SMALL_TESTBED)
    point = spec.points()[0]
    with ServerThread(ServeConfig(workers=1), cache_dir=tmp_path) as thread:
        with ServeClient(thread.host, thread.port) as c:
            served = c.submit_and_wait(
                point.kind, point.params, seed=point.seed, timeout=60.0
            )
    outcome = run_sweep(spec, jobs=1, cache=SweepCache(tmp_path))
    assert outcome.cached == 1 and outcome.executed == 0
    assert canonical(outcome.records[0]) == canonical(served)


def test_read_through_reuses_a_prior_sweep(tmp_path):
    spec = SweepSpec(**SMALL_TESTBED)
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1, cache=SweepCache(tmp_path)).records[0]
    with ServerThread(ServeConfig(workers=1), cache_dir=tmp_path) as thread:
        with ServeClient(thread.host, thread.port) as c:
            submitted = c.submit(point.kind, point.params, seed=point.seed)
            assert submitted["cached"] is True
            assert submitted["state"] == "done"
            served = c.result(submitted["job"])["record"]
            snap = c.metrics()
    assert canonical(served) == canonical(direct)
    hits = [
        e
        for e in snap["metrics"]
        if e["name"] == "serve.cache_hits" and e["tags"].get("src") == "disk"
    ]
    assert hits and hits[0]["value"] == 1.0


# -- job life cycle -----------------------------------------------------------
def test_status_reports_timings(client):
    job = client.submit("nap", {"duration": 0.02, "tag": "status"})["job"]
    client.result(job, wait=True, timeout=30.0)
    status = client.status(job)
    assert status["state"] == "done"
    assert status["attempts"] == 1
    assert status["finished_at"] >= status["submitted_at"]


def test_executor_exception_fails_job_without_retry(client):
    # load_point with no params raises KeyError('topology') in the worker.
    job = client.submit("load_point", {})["job"]
    with pytest.raises(ServeError) as err:
        client.result(job, wait=True, timeout=30.0)
    assert err.value.code == "failed"
    assert "KeyError" in (err.value.detail or "")
    assert client.status(job)["attempts"] == 1


def test_unknown_kind_rejected(client):
    with pytest.raises(ServeError) as err:
        client.submit("no_such_kind", {})
    assert err.value.code == "unknown_kind"


def test_unknown_job_and_bad_requests(client):
    with pytest.raises(ServeError) as err:
        client.status("feedfeed")
    assert err.value.code == "unknown_job"
    assert client.call("status")["error"] == "bad_request"
    assert client.call("dance")["error"] == "unknown_op"
    assert client.call("submit", kind=7)["error"] == "bad_request"


def test_seq_is_echoed(client):
    response = client.call("health", seq=42)
    assert response["seq"] == 42 and response["ok"] is True


def test_cancel_only_queued_jobs(tmp_path):
    config = ServeConfig(workers=1, batch_max=1, job_timeout=30.0)
    with ServerThread(config) as thread:
        with ServeClient(thread.host, thread.port) as c:
            blocker = c.submit("nap", {"duration": 0.6, "tag": "blk"})["job"]
            victim = c.submit("nap", {"duration": 0.0, "tag": "victim"})["job"]
            assert c.cancel(victim)["state"] == "cancelled"
            with pytest.raises(ServeError) as err:
                c.result(victim, wait=False)
            assert err.value.code == "cancelled"
            # Cancelled jobs are resubmittable and then actually run.
            rerun = c.submit("nap", {"duration": 0.0, "tag": "victim"})
            assert rerun["job"] == victim and rerun["cached"] is False
            assert c.result(victim, wait=True, timeout=30.0)["state"] == "done"
            c.result(blocker, wait=True, timeout=30.0)
            with pytest.raises(ServeError) as err:
                c.cancel(blocker)
            assert err.value.code == "not_cancellable"


def test_priority_orders_execution(tmp_path):
    config = ServeConfig(workers=1, batch_max=1, job_timeout=30.0)
    with ServerThread(config) as thread:
        with ServeClient(thread.host, thread.port) as c:
            c.submit("nap", {"duration": 0.4, "tag": "gate"})
            jobs = {}
            for prio in (5, 1, 3):
                jobs[prio] = c.submit(
                    "nap", {"duration": 0.0, "tag": f"p{prio}"}, priority=prio
                )["job"]
            done = [c.result(jobs[p], timeout=30.0) for p in (5, 1, 3)]
            assert all(r["state"] == "done" for r in done)
            finished = {
                p: c.status(jobs[p])["finished_at"] for p in (5, 1, 3)
            }
            assert finished[1] <= finished[3] <= finished[5]


@pytest.mark.skipif(not IS_FORK, reason="crash kind needs fork inheritance")
def test_worker_crash_retries_then_fails_and_pool_recovers():
    config = ServeConfig(
        workers=2, max_retries=1, retry_backoff=0.05, job_timeout=30.0
    )
    with ServerThread(config) as thread:
        with ServeClient(thread.host, thread.port) as c:
            doomed = c.submit("_serve_test_die", {"tag": "boom"})["job"]
            with pytest.raises(ServeError) as err:
                c.result(doomed, wait=True, timeout=60.0)
            assert err.value.code == "failed"
            assert "crash" in (err.value.detail or "")
            status = c.status(doomed)
            assert status["attempts"] == 2  # original + one retry
            # The pool replaced the dead processes and still serves.
            record = c.submit_and_wait("nap", {"duration": 0.0, "tag": "ok"})
            assert record["napped"] == 0.0
            health = c.health()
            assert health["workers_alive"] == 2
            assert health["worker_replacements"] >= 2
            snap = c.metrics()
            crashes = [
                e for e in snap["metrics"] if e["name"] == "serve.worker_crashes"
            ]
            retries = [e for e in snap["metrics"] if e["name"] == "serve.retries"]
            assert crashes and crashes[0]["value"] >= 2.0
            assert retries and retries[0]["value"] == 1.0


# -- request-line limits -------------------------------------------------------
def test_submit_line_beyond_asyncio_default_is_accepted(client):
    """Regression: the server must raise asyncio's 64 KiB stream limit to
    the documented 1 MiB protocol cap — a large-but-legal submit works."""
    tag = "x" * 70_000
    record = client.submit_and_wait(
        "nap", {"duration": 0.0, "tag": tag}, timeout=30.0
    )
    assert record["napped"] == 0.0


def test_oversized_line_rejected_and_connection_survives(client):
    response = client.call(
        "submit",
        kind="nap",
        params={"duration": 0.0, "tag": "y" * 1_100_000},
        seq=7,
    )
    assert response["error"] == "bad_request"
    assert "exceeds" in response["detail"]
    # The connection resynchronized past the oversized line: the same
    # socket still serves requests instead of being dropped.
    assert client.health()["status"] == "ok"
    record = client.submit_and_wait(
        "nap", {"duration": 0.0, "tag": "after-oversize"}, timeout=30.0
    )
    assert record["napped"] == 0.0


def test_malformed_lines_answered_bad_request_and_connection_survives(server):
    bad_lines = [
        b'{"op":"health","seq":NaN}',
        b'{"op":"health","x":"\xff"}',
        b"[" * 5000,
        b'{"op":"health","seq":1e999}',
        b'{"op":"health","seq":' + b"1" * 5000 + b"}",
        b'{"op":"result","job":"feedfeed","wait":true,"timeout":"soon"}',
        b'{"op":"result","job":"feedfeed","wait":true,"timeout":[1]}',
    ]
    with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
        stream = sock.makefile("rwb")
        assert json.loads(stream.readline())["serve"] == "repro"
        for line in bad_lines:
            stream.write(line + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False, line[:40]
            assert response["error"] == "bad_request", line[:40]
        stream.write(b'{"op":"health","seq":1}\n')
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"] is True and response["seq"] == 1


# -- finish-history bookkeeping ------------------------------------------------
@pytest.mark.skipif(not IS_FORK, reason="flaky kind needs fork inheritance")
def test_resubmitted_failure_keeps_one_history_slot(tmp_path):
    """Regression: fail -> resubmit -> done used to leave two history
    entries for one key, and trimming then evicted the *fresh* record."""
    config = ServeConfig(workers=1, history=2, job_timeout=30.0)
    with ServerThread(config) as thread:
        with ServeClient(thread.host, thread.port) as c:
            params = {"marker": str(tmp_path / "flaky.marker"), "tag": "slot"}
            doomed = c.submit("_serve_test_flaky", params)["job"]
            with pytest.raises(ServeError) as err:
                c.result(doomed, wait=True, timeout=30.0)
            assert err.value.code == "failed"
            again = c.submit("_serve_test_flaky", params)
            assert again["job"] == doomed and again["cached"] is False
            assert c.result(doomed, wait=True, timeout=30.0)["state"] == "done"
            # A second finished job fills history to its bound of 2; with
            # the stale duplicate entry this trimmed the done job away.
            c.submit_and_wait("nap", {"duration": 0.0, "tag": "filler"})
            assert c.result(doomed, wait=False)["state"] == "done"
            assert c.status(doomed)["attempts"] == 1


# -- rate-bucket hygiene -------------------------------------------------------
def test_idle_rate_buckets_are_pruned():
    config = ServeConfig(
        workers=1, rate=1000.0, burst=20.0, bucket_idle_s=0.2
    )
    with ServerThread(config) as thread:
        with ServeClient(thread.host, thread.port) as c:
            for who in ("ada", "bob"):
                c.submit(
                    "nap", {"duration": 0.0, "tag": f"rb-{who}"}, client=who
                )
            time.sleep(0.6)  # both buckets go idle past the horizon
            c.submit("nap", {"duration": 0.0, "tag": "rb-cy"}, client="cy")
            gauges = [
                e
                for e in c.metrics()["metrics"]
                if e["name"] == "serve.rate_buckets"
            ]
            assert gauges and gauges[0]["value"] == 1.0


def test_health_and_metrics_shapes(client):
    health = client.health()
    assert health["status"] == "ok" and health["workers"] == 2
    snapshot = client.metrics()
    from repro.obs.report import validate_metrics

    assert validate_metrics(snapshot) == []
    names = {e["name"] for e in snapshot["metrics"]}
    assert {"serve.queue_depth", "serve.workers_alive"} <= names


def test_shutdown_op_stops_server():
    thread = ServerThread(ServeConfig(workers=1))
    thread.start()
    with ServeClient(thread.host, thread.port) as c:
        assert c.shutdown()["stopping"] is True
    thread.stop(timeout=30.0)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            ServeClient(thread.host, thread.port).close()
        except (ConnectionError, OSError):
            break
        time.sleep(0.05)
    else:
        pytest.fail("server kept accepting connections after shutdown")

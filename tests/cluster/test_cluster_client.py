"""A fleet as its clients see it: one HTTP gateway over three live shards.

The gateway is the only way into a fleet, so these tests talk to it over
HTTP and check what a caller of the whole fleet relies on: a sweep's
records equal :func:`repro.sweep.runner.run_sweep`'s, the merged
``/metrics`` snapshot is the sum of what the shards report on their own,
a shard dying under a parked result wait costs nothing but time, and a
job id the gateway never memoised stays ``unknown_job`` when its shard
is gone.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cluster import HashRing
from repro.cluster.gateway import GatewayThread
from repro.obs.report import validate_metrics
from repro.serve import ServeClient
from repro.serve.jobs import make_point
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import point_key

from .conftest import Fleet, canonical

#: A multi-point sweep whose keys scatter across the ring.
NAP_SWEEP = dict(
    kind="nap",
    grid={"tag": ["a", "b", "c", "d", "e", "f"]},
    base={"duration": 0.05},
)


@pytest.fixture(scope="module")
def fleet():
    f = Fleet(shards=3)
    yield f
    f.stop()


@pytest.fixture(scope="module")
def gateway(fleet):
    with GatewayThread(fleet.specs) as gw:
        yield gw


@pytest.fixture()
def conn(gateway):
    c = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60.0)
    yield c
    c.close()


def request(conn, method, target, body=None):
    data = None if body is None else json.dumps(body).encode()
    conn.request(method, target, body=data)
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode())


def submit_all(conn, points):
    submits = []
    for point in points:
        body = {"kind": point.kind, "params": point.params, "seed": point.seed}
        status, submitted = request(conn, "POST", "/submit", body)
        assert status == 200, submitted
        submits.append(submitted)
    return submits


def collect(conn, job):
    status, result = request(conn, "GET", f"/result/{job}?wait=1&timeout=60")
    assert status == 200, result
    return result


def counter(snapshot, name, **tags):
    """The value of one counter in a snapshot (0 if never bumped)."""
    for entry in snapshot["metrics"]:
        if entry["name"] == name and entry["tags"] == tags:
            return entry["value"]
    return 0


# -- acceptance: determinism --------------------------------------------------
def test_cluster_sweep_byte_identical_to_run_sweep(conn, fleet):
    spec = SweepSpec(**NAP_SWEEP)
    points = spec.points()
    direct = run_sweep(spec, jobs=1).records
    ring = HashRing([s.id for s in fleet.specs])
    submits = submit_all(conn, points)
    # Nothing is down, so every job runs on its key's ring primary.
    for point, submitted in zip(points, submits):
        assert submitted["job"] == point_key(point)
        assert submitted["shard"] == ring.primary(submitted["job"])
    results = [collect(conn, s["job"]) for s in submits]
    assert [r["shard"] for r in results] == [s["shard"] for s in submits]
    records = [r["record"] for r in results]
    assert len(records) == len(direct) == 6
    assert [canonical(r) for r in records] == [canonical(r) for r in direct]


# -- fleet introspection -------------------------------------------------------
def test_health_and_merged_metrics(conn, fleet):
    spec = SweepSpec(
        kind="nap", grid={"tag": ["m0", "m1", "m2"]}, base={"duration": 0.0}
    )
    for submitted in submit_all(conn, spec.points()):
        collect(conn, submitted["job"])
    status, health = request(conn, "GET", "/health")
    assert status == 200 and health["status"] == "ok"
    assert health["shards_alive"] == health["shards_total"] == 3
    for shard_id, body in health["shards"].items():
        assert body["status"] == "ok" and body["shard"] == shard_id
    status, metrics = request(conn, "GET", "/metrics")
    assert status == 200 and metrics["shards_merged"] == 3
    merged = metrics["snapshot"]
    assert validate_metrics(merged) == []
    own = []
    for shard in fleet.specs:
        with ServeClient(shard.host, shard.port) as client:
            own.append(client.metrics())
    # The fleet is idle, so the job counters cannot move between the
    # gateway's merge and the shards' own answers.
    for name in ("serve.submitted", "serve.completed"):
        total = sum(counter(s, name, kind="nap") for s in own)
        assert counter(merged, name, kind="nap") == total >= 3, name


# -- failover ------------------------------------------------------------------
def test_shard_death_mid_sweep_fails_over_and_stays_identical():
    spec = SweepSpec(
        kind="nap",
        grid={"tag": ["k0", "k1", "k2", "k3", "k4", "k5"]},
        base={"duration": 0.3},
    )
    direct = run_sweep(spec, jobs=1).records
    fleet = Fleet(shards=3)
    try:
        with GatewayThread(fleet.specs) as gw:
            c = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
            submits = submit_all(c, spec.points())
            victim = submits[0]["shard"]
            victim_spec = next(s for s in fleet.specs if s.id == victim)
            with ServeClient(victim_spec.host, victim_spec.port) as probe:
                parked_before = counter(
                    probe.metrics(), "serve.requests", op="result"
                )
            # Park a wait for the victim's first job at the victim, then
            # kill it while that job is still running: the gateway must
            # fail the parked wait over and still answer with the record.
            parked = {}

            def wait_first():
                p = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
                try:
                    parked["result"] = collect(p, submits[0]["job"])
                finally:
                    p.close()

            waiter = threading.Thread(target=wait_first, daemon=True)
            waiter.start()
            deadline = time.monotonic() + 30.0
            with ServeClient(victim_spec.host, victim_spec.port) as probe:
                while (
                    counter(probe.metrics(), "serve.requests", op="result")
                    == parked_before
                ):
                    assert time.monotonic() < deadline, "wait never parked"
                    time.sleep(0.005)
            fleet.kill(victim)
            waiter.join(60.0)
            assert not waiter.is_alive()
            assert parked["result"]["shard"] != victim
            records = [parked["result"]["record"]] + [
                collect(c, s["job"])["record"] for s in submits[1:]
            ]
            status, health = request(c, "GET", "/health")
            assert status == 200 and health["status"] == "degraded"
            assert health["shards_alive"] == 2
            assert health["shards"][victim] == {"status": "down"}
            c.close()
    finally:
        fleet.stop()
    assert [canonical(r) for r in records] == [canonical(r) for r in direct]


# -- protocol errors propagate untouched ---------------------------------------
def test_unknown_job_without_memo_propagates():
    point = make_point("nap", {"duration": 0.0, "tag": "memo"})
    body = {"kind": point.kind, "params": point.params}
    fleet = Fleet(shards=3)
    try:
        with GatewayThread(fleet.specs) as memo_gw:
            c = http.client.HTTPConnection(
                memo_gw.host, memo_gw.port, timeout=60.0
            )
            status, submitted = request(c, "POST", "/submit", body)
            assert status == 200, submitted
            record = collect(c, submitted["job"])["record"]
            fleet.kill(submitted["shard"])
            # A gateway that memoised the submit recomputes the job on
            # the next shard of its ring order ...
            again = collect(c, submitted["job"])
            assert again["shard"] != submitted["shard"]
            assert canonical(again["record"]) == canonical(record)
            c.close()
        # ... a fresh gateway has no memo: with both shards that computed
        # the job gone, the last shard's unknown_job reaches the client.
        fleet.kill(again["shard"])
        with GatewayThread(fleet.specs) as bare_gw:
            c = http.client.HTTPConnection(
                bare_gw.host, bare_gw.port, timeout=60.0
            )
            status, lost = request(c, "GET", f"/result/{submitted['job']}")
            c.close()
    finally:
        fleet.stop()
    assert status == 404 and lost["error"] == "unknown_job"

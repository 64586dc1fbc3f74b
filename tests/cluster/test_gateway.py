"""HTTP gateway: protocol parity, error mapping, failover, keep-alive."""

import http.client
import json
import socket

import pytest

from repro.cluster import ClusterClient
from repro.cluster.gateway import GatewayThread
from repro.sweep import SweepSpec, run_sweep

from .conftest import Fleet, canonical


@pytest.fixture(scope="module")
def fleet():
    # batch_max=1 keeps a blocker from dragging its queue-mate into the
    # same dispatch, so cancel-while-queued is testable.
    f = Fleet(shards=3, batch_max=1)
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


# -- acceptance: byte identity through HTTP, shard death included --------------
def test_http_sweep_byte_identical_even_when_a_shard_dies():
    spec = SweepSpec(
        kind="nap",
        grid={"tag": ["h0", "h1", "h2", "h3", "h4", "h5"]},
        base={"duration": 0.2},
    )
    direct = run_sweep(spec, jobs=1).records
    fleet = Fleet(shards=3)
    try:
        with GatewayThread(fleet.specs) as gw:
            c = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
            submits = []
            for point in spec.points():
                status, body = request(
                    c,
                    "POST",
                    "/submit",
                    {
                        "kind": point.kind,
                        "params": point.params,
                        "seed": point.seed,
                    },
                )
                assert status == 200, body
                submits.append(body)
            fleet.kill(submits[0]["shard"])
            records = []
            for body in submits:
                status, result = request(
                    c, "GET", f"/result/{body['job']}?wait=1&timeout=60"
                )
                assert status == 200, result
                records.append(result["record"])
            c.close()
    finally:
        fleet.stop()
    assert [canonical(r) for r in records] == [canonical(r) for r in direct]


# -- parity with the TCP protocol ---------------------------------------------
def test_http_record_matches_run_sweep(conn):
    spec = SweepSpec(
        kind="nap", grid={"tag": ["gw-parity"]}, base={"duration": 0.0}
    )
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1).records[0]
    status, submitted = request(
        conn,
        "POST",
        "/submit",
        {"kind": point.kind, "params": point.params, "seed": point.seed},
    )
    assert status == 200 and submitted["ok"] is True
    assert submitted["state"] in ("queued", "running", "done")
    status, result = request(
        conn, "GET", f"/result/{submitted['job']}?wait=1&timeout=30"
    )
    assert status == 200
    assert canonical(result["record"]) == canonical(direct)
    status, job_status = request(conn, "GET", f"/status/{submitted['job']}")
    assert status == 200 and job_status["state"] == "done"


def test_cancel_roundtrip_and_result_wait(conn, fleet):
    # Steer blocker and victim onto the same shard: fix the blocker, then
    # walk victim tags until the ring agrees on a shared primary.
    with ClusterClient(fleet.specs) as cc:
        blocker_params = {"duration": 0.8, "tag": "gw-blocker"}
        primary = cc.ring.primary(cc.key_for("nap", blocker_params))
        for i in range(256):
            victim_params = {"duration": 0.0, "tag": f"gw-victim-{i}"}
            if cc.ring.primary(cc.key_for("nap", victim_params)) == primary:
                break
        else:  # pragma: no cover - 256 misses at p=2/3 each
            pytest.fail("no co-resident victim tag found")
    status, blocker = request(
        conn, "POST", "/submit", {"kind": "nap", "params": blocker_params}
    )
    assert status == 200
    status, victim = request(
        conn, "POST", "/submit", {"kind": "nap", "params": victim_params}
    )
    assert status == 200 and victim["state"] == "queued"
    status, cancelled = request(conn, "POST", f"/cancel/{victim['job']}")
    assert status == 200 and cancelled["state"] == "cancelled"
    status, body = request(conn, "GET", f"/result/{victim['job']}")
    assert status == 410 and body["error"] == "cancelled"
    status, body = request(
        conn, "GET", f"/result/{blocker['job']}?wait=1&timeout=30"
    )
    assert status == 200 and body["record"]["napped"] == 0.8


# -- error mapping -------------------------------------------------------------
def test_pending_result_maps_to_202(conn):
    status, submitted = request(
        conn,
        "POST",
        "/submit",
        {"kind": "nap", "params": {"duration": 0.5, "tag": "gw-pending"}},
    )
    assert status == 200
    status, body = request(conn, "GET", f"/result/{submitted['job']}")
    assert status == 202 and body["error"] == "pending"
    status, body = request(
        conn, "GET", f"/result/{submitted['job']}?wait=1&timeout=30"
    )
    assert status == 200


def test_http_error_statuses(conn):
    status, body = request(conn, "GET", "/result/" + "feedfeed" * 8)
    assert status == 404 and body["error"] == "unknown_job"
    status, body = request(conn, "GET", "/no/such/route")
    assert status == 404 and body["error"] == "bad_request"
    status, body = request(conn, "POST", "/submit", {"kind": "no_such_kind"})
    assert status == 400 and body["error"] == "unknown_kind"
    status, body = request(conn, "POST", "/submit", {"params": {}})
    assert status == 400 and body["error"] == "bad_request"
    status, body = request(
        conn, "POST", "/submit", {"kind": "nap", "params": "not-a-dict"}
    )
    assert status == 400 and body["error"] == "bad_request"
    bad_bodies = [
        b"{not json",
        b'{"kind":"nap","params":{"tag":"\xff"}}',
        b'{"kind":"nap","params":{"duration":NaN}}',
        b'{"kind":"nap","params":{"duration":1e999}}',
        b"[" * 5000,
    ]
    for body in bad_bodies:
        conn.request("POST", "/submit", body=body)
        response = conn.getresponse()
        assert response.status == 400, body[:40]
        assert json.loads(response.read())["error"] == "bad_request", body[:40]
    for timeout in ("nan", "inf", "-inf", "soon"):
        status, body = request(
            conn, "GET", f"/result/{'feedfeed' * 8}?wait=1&timeout={timeout}"
        )
        assert status == 400 and body["error"] == "bad_request", timeout


def test_oversized_body_rejected(gateway):
    with socket.create_connection(
        (gateway.host, gateway.port), timeout=30.0
    ) as raw:
        raw.sendall(
            b"POST /submit HTTP/1.1\r\n"
            b"Host: fleet\r\n"
            b"Content-Length: 9999999999\r\n"
            b"\r\n"
        )
        head = raw.recv(65536).split(b"\r\n", 1)[0]
    assert b"400" in head


# -- connection handling -------------------------------------------------------
def test_keep_alive_reuses_one_connection(conn):
    status, first = request(conn, "GET", "/health")
    sock = conn.sock
    status2, second = request(conn, "GET", "/health")
    assert status == status2 == 200
    assert conn.sock is sock, "gateway closed a keep-alive connection"
    assert first["status"] == second["status"] == "ok"


# -- fleet endpoints -----------------------------------------------------------
def test_health_and_metrics_endpoints(conn):
    status, health = request(conn, "GET", "/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["shards_alive"] == health["shards_total"] == 3
    status, metrics = request(conn, "GET", "/metrics")
    assert status == 200 and metrics["shards_merged"] == 3
    from repro.obs.report import validate_metrics

    assert validate_metrics(metrics["snapshot"]) == []
    names = {e["name"] for e in metrics["snapshot"]["metrics"]}
    assert {"serve.queue_depth", "serve.rate_buckets"} <= names

"""HTTP gateway: protocol parity, placement, failover, error mapping.

The acceptance property lives here: a sweep sent through the gateway —
shard deaths included — returns records byte-identical to
:func:`repro.sweep.runner.run_sweep` on the same spec.
"""

import asyncio
import http.client
import json
import logging
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterGateway, HashRing, ShardSpec
from repro.cluster.gateway import (
    GatewayThread,
    _BadRequest,
    _parse_target,
    _read_request,
)
from repro.obs.report import validate_metrics
from repro.serve.jobs import make_point
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import point_key

from .conftest import Fleet, canonical

#: The cheap real-simulation spec shared with the serve suite.
SMALL_TESTBED = dict(
    kind="myrinet_throughput",
    grid={"packet_size": [1024]},
    base={"warmup_us": 5_000.0, "measure_us": 20_000.0},
)


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


def ring_order(fleet, kind, params, seed=None):
    """The shards a submit of this spec tries, first choice first."""
    ids = [spec.id for spec in fleet.specs]
    key = point_key(make_point(kind, params, seed))
    return HashRing(ids).owners(key, len(ids))


def point_body(point):
    return {"kind": point.kind, "params": point.params, "seed": point.seed}


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
                status, body = request(c, "POST", "/submit", point_body(point))
                assert status == 200, body
                submits.append(body)
            # Kill the shard that accepted the first job while the sweep
            # is in flight; its jobs must be re-executed on other shards.
            victim = submits[0]["shard"]
            fleet.kill(victim)
            records = []
            for body in submits:
                status, result = request(
                    c, "GET", f"/result/{body['job']}?wait=1&timeout=60"
                )
                assert status == 200, result
                records.append(result["record"])
            status, health = request(c, "GET", "/health")
            assert status == 200 and health["status"] == "degraded"
            assert health["shards_alive"] == 2
            assert health["shards"][victim] == {"status": "down"}
            # The merged fleet snapshot still validates without the corpse.
            status, metrics = request(c, "GET", "/metrics")
            assert status == 200 and metrics["shards_merged"] == 2
            assert validate_metrics(metrics["snapshot"]) == []
            c.close()
    finally:
        fleet.stop()
    assert [canonical(r) for r in records] == [canonical(r) for r in direct]


def test_failover_walks_the_whole_ring():
    """With the first two shards of a key's ring order dead, the third
    computes the point: any shard can, so the fleet answers while one
    shard lives."""
    spec = SweepSpec(
        kind="nap", grid={"tag": ["whole-ring"]}, base={"duration": 0.0}
    )
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1).records[0]
    fleet = Fleet(shards=3)
    try:
        order = ring_order(fleet, point.kind, point.params, point.seed)
        fleet.kill(order[0])
        fleet.kill(order[1])
        with GatewayThread(fleet.specs) as gw:
            c = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
            status, submitted = request(c, "POST", "/submit", point_body(point))
            assert status == 200, submitted
            assert submitted["shard"] == order[2]
            status, result = request(
                c, "GET", f"/result/{submitted['job']}?wait=1&timeout=60"
            )
            assert status == 200, result
            assert result["shard"] == order[2]
            c.close()
    finally:
        fleet.stop()
    assert canonical(result["record"]) == canonical(direct)


def test_all_shards_down_answers_cluster_down():
    fleet = Fleet(shards=2)
    specs = fleet.specs
    fleet.stop()
    with GatewayThread(specs) as gw:
        c = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
        status, body = request(
            c, "POST", "/submit", {"kind": "nap", "params": {"tag": "doomed"}}
        )
        c.close()
    assert status == 503 and body["error"] == "cluster_down"


def test_duplicate_shard_ids_rejected():
    twice = [
        ShardSpec(id="shard0", host="127.0.0.1", port=1),
        ShardSpec(id="shard0", host="127.0.0.1", port=2),
    ]
    with pytest.raises(ValueError):
        ClusterGateway(twice)


# -- parity with the TCP protocol ---------------------------------------------
def test_http_record_matches_run_sweep(conn):
    spec = SweepSpec(
        kind="nap", grid={"tag": ["gw-parity"]}, base={"duration": 0.0}
    )
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1).records[0]
    status, submitted = request(conn, "POST", "/submit", point_body(point))
    assert status == 200 and submitted["ok"] is True
    assert submitted["state"] in ("queued", "running", "done")
    status, result = request(
        conn, "GET", f"/result/{submitted['job']}?wait=1&timeout=30"
    )
    assert status == 200
    assert canonical(result["record"]) == canonical(direct)
    status, job_status = request(conn, "GET", f"/status/{submitted['job']}")
    assert status == 200 and job_status["state"] == "done"


def test_real_simulation_point_byte_identical(conn):
    spec = SweepSpec(**SMALL_TESTBED)
    point = spec.points()[0]
    direct = run_sweep(spec, jobs=1).records[0]
    status, submitted = request(conn, "POST", "/submit", point_body(point))
    assert status == 200, submitted
    status, result = request(
        conn, "GET", f"/result/{submitted['job']}?wait=1&timeout=60"
    )
    assert status == 200, result
    assert canonical(result["record"]) == canonical(direct)


def test_submit_lands_on_the_ring_primary(conn, fleet):
    params = {"duration": 0.0, "tag": "placement"}
    status, submitted = request(
        conn, "POST", "/submit", {"kind": "nap", "params": params}
    )
    assert status == 200, submitted
    assert submitted["job"] == point_key(make_point("nap", params))
    assert submitted["shard"] == ring_order(fleet, "nap", params)[0]
    status, _ = request(
        conn, "GET", f"/result/{submitted['job']}?wait=1&timeout=30"
    )
    assert status == 200


def test_cancel_roundtrip_and_result_wait(conn, fleet):
    # Steer blocker and victim onto the same shard: fix the blocker, then
    # walk victim tags until the ring agrees on a shared primary.
    blocker_params = {"duration": 0.8, "tag": "gw-blocker"}
    primary = ring_order(fleet, "nap", blocker_params)[0]
    for i in range(256):
        victim_params = {"duration": 0.0, "tag": f"gw-victim-{i}"}
        if ring_order(fleet, "nap", victim_params)[0] == primary:
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


def _raw_request(gateway, data):
    """Send raw request bytes on a fresh connection and read until the
    gateway closes it: ``(status, JSON body)``."""
    with socket.create_connection(
        (gateway.host, gateway.port), timeout=30.0
    ) as raw:
        raw.sendall(data)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    head, _sep, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), f"no reply to {data!r}"
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize("target", ["//[x", "http://["])
def test_malformed_target_answers_400(gateway, target):
    # urlsplit raises on an unclosed IPv6 bracket; the connection used to
    # drop with no reply.
    status, body = _raw_request(
        gateway,
        f"GET {target} HTTP/1.1\r\nHost: fleet\r\n"
        "Connection: close\r\n\r\n".encode(),
    )
    assert status == 400 and body["error"] == "bad_request"
    assert "malformed request target" in body["detail"]


@pytest.mark.parametrize("length,body", [("1_0", b"0123456789"), ("+2", b"{}")])
def test_content_length_must_be_digits(gateway, length, body):
    # int() reads "1_0" as 10 and "+2" as 2; RFC 9110 allows digits only.
    status, reply = _raw_request(
        gateway,
        b"GET /health HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n"
        b"Content-Length: " + length.encode() + b"\r\n\r\n" + body,
    )
    assert status == 400 and reply["error"] == "bad_request"
    assert "Content-Length" in reply["detail"]


#: Request fragments, so the parser property reaches past the request line.
_HTTP_PIECES = st.sampled_from([
    b"GET ", b"POST ", b"/health", b"/submit", b"//[x", b"?wait=1&a=", b" ",
    b"HTTP/1.1", b"\r\n", b"\n", b"Content-Length:", b"Connection: close",
    b":", b"0", b"7", b"1_0", b"+2", b"-1", b"\xff", b"{}", b"99999999999",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(_HTTP_PIECES, max_size=40).map(b"".join),
))
def test_read_request_parses_or_raises_bad_request(data):
    async def read():
        # A small line limit reaches the "too long" paths too.
        reader = asyncio.StreamReader(limit=64)
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    try:
        request = asyncio.run(read())
    except _BadRequest:
        return
    if request is not None:
        method, target, headers, body = request
        assert method == method.upper() and target
        assert len(body) == int(headers.get("content-length", "0"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(
        ["/", "//", "[", "]", "x", "?", "&", "=", "%", "%zz", "#", ":",
         "http:", "::1", "\u2100", "1"]
    ), max_size=12).map("".join),
))
def test_parse_target_parses_or_raises_bad_request(target):
    try:
        route, path, query = _parse_target(target)
    except _BadRequest:
        return
    assert path == [part for part in route.split("/") if part]
    assert all(isinstance(v, str) for v in query.values())


# -- connection handling -------------------------------------------------------
def test_keep_alive_reuses_one_connection(conn):
    status, first = request(conn, "GET", "/health")
    sock = conn.sock
    status2, second = request(conn, "GET", "/health")
    assert status == status2 == 200
    assert conn.sock is sock, "gateway closed a keep-alive connection"
    assert first["status"] == second["status"] == "ok"


def test_stop_with_a_keep_alive_client_logs_no_error(fleet, caplog):
    """Stopping the gateway while an HTTP/1.1 keep-alive client holds
    its connection open (as curl and browsers do) ends the connection's
    handler before the event loop tears down.  A handler still parked
    waiting for the next request would be cancelled by the teardown,
    which Python 3.11 logs as an ``asyncio`` ERROR with a
    ``CancelledError`` traceback; 3.10 and 3.12 do not log it, so there
    this test passes either way."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    gateway = GatewayThread(fleet.specs)
    gateway.start()
    client = http.client.HTTPConnection(gateway.host, gateway.port,
                                        timeout=60.0)
    try:
        status, health = request(client, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
        gateway.stop(timeout=30.0)
        assert not gateway._thread.is_alive()
    finally:
        client.close()
    errors = [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert errors == [], [record.getMessage() for record in errors]


# -- fleet endpoints -----------------------------------------------------------
def test_health_and_metrics_endpoints(conn):
    status, health = request(conn, "GET", "/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["shards_alive"] == health["shards_total"] == 3
    assert all(body["status"] == "ok" for body in health["shards"].values())
    status, metrics = request(conn, "GET", "/metrics")
    assert status == 200 and metrics["shards_merged"] == 3
    assert validate_metrics(metrics["snapshot"]) == []
    names = {e["name"] for e in metrics["snapshot"]["metrics"]}
    assert {"serve.queue_depth", "serve.workers_alive"} <= names


def test_shard_dying_during_a_health_request_is_reported_down():
    """A shard that dies right after answering its health probe must not
    drop the client's connection: the request still answers 200, and the
    next one reports the shard down."""
    fleet = Fleet(shards=3)
    try:
        with GatewayThread(fleet.specs) as gw:
            probe = gw.gateway._probe

            async def probe_then_kill(shard_id):
                response = await probe(shard_id)
                if shard_id == "shard1" and response is not None:
                    fleet.kill("shard1")
                return response

            gw.gateway._probe = probe_then_kill
            c = http.client.HTTPConnection(gw.host, gw.port, timeout=60.0)
            status, _ = request(c, "GET", "/health")
            assert status == 200
            assert "shard1" not in fleet.threads
            status, health = request(c, "GET", "/health")
            c.close()
    finally:
        fleet.stop()
    assert status == 200 and health["status"] == "degraded"
    assert health["shards_alive"] == 2
    assert health["shards"]["shard1"] == {"status": "down"}

"""Service concurrency soak: the satellite acceptance scenario.

≥8 concurrent clients submit overlapping specs against one live server
and the test asserts, without any server restart:

* **coalescing/dedup** — N submits of one spec cost exactly one execution;
* **cache reuse** — resubmits after completion answer from memory or the
  on-disk cache, never recompute;
* **load shedding** — a tiny queue bound rejects excess submits with an
  explicit ``overloaded`` error instead of queueing without bound;
* **timeout recovery** — a hung job is killed by the per-job timeout and
  its batchmates/neighbours still complete.
"""

import collections
import json
import threading

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

N_CLIENTS = 8
N_SPECS = 4


def _counter(snapshot, name, **tags):
    """Sum of a counter family's values matching the given tags subset."""
    total = 0.0
    for entry in snapshot["metrics"]:
        if entry["name"] != name or entry["type"] != "counter":
            continue
        if all(entry["tags"].get(k) == str(v) for k, v in tags.items()):
            total += entry["value"]
    return total


def test_soak_coalescing_and_cache(tmp_path):
    """8 clients × 4 overlapping specs -> 4 executions, identical records."""
    config = ServeConfig(workers=2, batch_max=2, job_timeout=60.0)
    specs = [
        {"duration": 0.2, "tag": f"spec{i}"} for i in range(N_SPECS)
    ]
    results = collections.defaultdict(list)
    errors = []

    with ServerThread(config, cache_dir=tmp_path) as server:

        def hammer(client_index):
            try:
                with ServeClient(server.host, server.port) as client:
                    # Stagger spec order per client so submits overlap in
                    # every phase (queued, running, done).
                    order = [
                        (client_index + offset) % N_SPECS
                        for offset in range(N_SPECS)
                    ]
                    for spec_index in order:
                        record = client.submit_and_wait(
                            "nap", specs[spec_index], timeout=60.0
                        )
                        results[spec_index].append(record)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((client_index, exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        assert not errors, errors
        with ServeClient(server.host, server.port) as client:
            snapshot = client.metrics()
            # Resubmit every spec once more: all four must answer from
            # memory/cache, not execute.
            for spec in specs:
                response = client.submit("nap", spec)
                assert response["cached"] is True

    # Every client saw every spec; all records for one spec are identical.
    for spec_index in range(N_SPECS):
        records = results[spec_index]
        assert len(records) == N_CLIENTS
        blobs = {json.dumps(r, sort_keys=True) for r in records}
        assert len(blobs) == 1

    # The defining property: 32 submits, exactly 4 executions.
    assert _counter(snapshot, "serve.submitted") == N_CLIENTS * N_SPECS
    assert _counter(snapshot, "serve.executed") == N_SPECS
    coalesced = _counter(snapshot, "serve.coalesced")
    cache_hits = _counter(snapshot, "serve.cache_hits")
    assert coalesced + cache_hits == N_CLIENTS * N_SPECS - N_SPECS
    assert coalesced >= 1  # overlap genuinely happened in flight


def test_soak_resubmits_hit_disk_cache_across_restart(tmp_path):
    """A fresh server over the same cache dir answers without executing."""
    spec = {"duration": 0.0, "tag": "durable"}
    with ServerThread(ServeConfig(workers=1), cache_dir=tmp_path) as first:
        with ServeClient(first.host, first.port) as client:
            before = client.submit_and_wait("nap", spec, timeout=30.0)
    with ServerThread(ServeConfig(workers=1), cache_dir=tmp_path) as second:
        with ServeClient(second.host, second.port) as client:
            response = client.submit("nap", spec)
            assert response["cached"] is True
            after = client.result(response["job"])["record"]
            snapshot = client.metrics()
    assert json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True)
    assert _counter(snapshot, "serve.cache_hits", src="disk") == 1
    assert _counter(snapshot, "serve.executed") == 0


def test_soak_load_shedding_under_tiny_queue():
    """Submits beyond the admission bound shed with explicit errors."""
    config = ServeConfig(
        workers=1, max_queue=2, batch_max=1, job_timeout=60.0
    )
    with ServerThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            blocker = client.submit("nap", {"duration": 0.6, "tag": "gate"})
            outcomes = []
            for index in range(6):
                try:
                    client.submit("nap", {"duration": 0.0, "tag": f"s{index}"})
                    outcomes.append("accepted")
                except ServeError as exc:
                    assert exc.code == "overloaded"
                    outcomes.append("shed")
            snapshot = client.metrics()
            # Accepted work still completes after the burst.
            client.result(blocker["job"], wait=True, timeout=30.0)
    assert outcomes.count("accepted") == 2
    assert outcomes.count("shed") == 4
    assert _counter(snapshot, "serve.shed", reason="queue_full") == 4


def test_soak_hung_job_times_out_without_stalling_others():
    """The per-job timeout kills a hung job; neighbours finish; pool heals."""
    config = ServeConfig(workers=2, batch_max=1, job_timeout=1.0)
    with ServerThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            hung = client.submit("nap", {"duration": 60.0, "tag": "hang"})["job"]
            quick = [
                client.submit("nap", {"duration": 0.05, "tag": f"q{i}"})["job"]
                for i in range(4)
            ]
            for job in quick:
                assert client.result(job, wait=True, timeout=30.0)["state"] == "done"
            with pytest.raises(ServeError) as err:
                client.result(hung, wait=True, timeout=30.0)
            assert err.value.code == "failed"
            assert "timeout" in (err.value.detail or "")
            health = client.health()
            assert health["workers_alive"] == 2
            assert health["worker_replacements"] >= 1
            # The server keeps serving after the kill — no restart needed.
            record = client.submit_and_wait(
                "nap", {"duration": 0.0, "tag": "after"}, timeout=30.0
            )
            assert record["tag"] == "after"


def test_soak_batch_timeout_spares_innocent_batchmates():
    """A hung job in a multi-job batch fails alone; batchmates re-run solo."""
    config = ServeConfig(workers=1, batch_max=4, job_timeout=1.5)
    with ServerThread(config) as server:
        with ServeClient(server.host, server.port) as client:
            # Occupy the single worker so the next submits queue together…
            gate = client.submit("nap", {"duration": 0.3, "tag": "gate"})["job"]
            hung = client.submit("nap", {"duration": 60.0, "tag": "hang2"})["job"]
            innocents = [
                client.submit("nap", {"duration": 0.0, "tag": f"inn{i}"})["job"]
                for i in range(2)
            ]
            client.result(gate, wait=True, timeout=30.0)
            for job in innocents:
                assert (
                    client.result(job, wait=True, timeout=30.0)["state"] == "done"
                )
            with pytest.raises(ServeError) as err:
                client.result(hung, wait=True, timeout=30.0)
            assert "timeout" in (err.value.detail or "")

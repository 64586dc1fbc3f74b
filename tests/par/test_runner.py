"""Coordinator behavior: status reconstruction, rejection, metadata."""

import pytest

from repro.net.flitlevel.network import MulticastMode
from repro.net.topology import torus
from repro.par import (
    ParScenario,
    get_scenario,
    run_partitioned,
    run_sequential,
)
from repro.sweep.points import execute_point


def _unicast_pair(net):
    hosts = net.topology.hosts
    net.send_unicast(hosts[0], hosts[5], payload_bytes=80)
    net.send_unicast(hosts[5], hosts[0], payload_bytes=80, start_delay=4)


def test_statuses_match_sequential():
    for name, expected in [("fig3_base", "deadlock"), ("fig3_s1", "delivered")]:
        net, status = run_sequential(name, "active")
        assert status == expected
        for k in (1, 2):
            result = run_partitioned(name, k, engine="active")
            assert result.status == status
            assert result.now == net.now


def test_timeout_status_reconstructed():
    scenario = ParScenario(
        name="tiny_budget",
        topology=lambda: torus(3, 3),
        traffic=_unicast_pair,
        net_kwargs={"seed": 9},
        max_ticks=40,          # far too small to deliver
        quiet_limit=2_000,
    )
    net, status = run_sequential(scenario, "active")
    assert status == "timeout"
    for k in (1, 2):
        result = run_partitioned(scenario, k, engine="active")
        assert result.status == "timeout"
        assert result.now == net.now == 40


def test_idle_flush_mode_is_rejected_for_every_k():
    scenario = ParScenario(
        name="s3_rejected",
        topology=lambda: torus(3, 3),
        traffic=_unicast_pair,
        net_kwargs={"seed": 9, "mode": MulticastMode.IDLE_FLUSH},
    )
    for k in (1, 2):
        with pytest.raises(ValueError, match="idle_flush"):
            run_partitioned(scenario, k)


def test_host_multicast_is_rejected():
    def traffic(net):
        hosts = net.topology.hosts
        net.create_host_group(1, hosts[:3])
        net.send_host_multicast(hosts[0], 1, payload_bytes=64)

    scenario = ParScenario(
        name="host_mc_rejected",
        topology=lambda: torus(3, 3),
        traffic=traffic,
        net_kwargs={"seed": 9},
    )
    with pytest.raises(ValueError, match="host-adapter multicast"):
        run_partitioned(scenario, 2)


def test_unknown_backend_and_fault_kind():
    with pytest.raises(ValueError, match="backend"):
        run_partitioned("mixed_torus", 2, backend="threads")
    scenario = ParScenario(
        name="bad_fault",
        topology=lambda: torus(3, 3),
        traffic=_unicast_pair,
        net_kwargs={"seed": 9},
        faults=((10, "fail_adapter", 0),),
    )
    with pytest.raises(ValueError, match="fault kind"):
        run_partitioned(scenario, 2)


def test_process_backend_requires_registered_scenario():
    scenario = ParScenario(
        name="not_registered",
        topology=lambda: torus(3, 3),
        traffic=_unicast_pair,
        net_kwargs={"seed": 9},
    )
    with pytest.raises(ValueError, match="registered"):
        run_partitioned(scenario, 2, backend="process")


def test_result_metadata():
    result = run_partitioned("saturated_torus_8", 4, engine="active")
    assert result.scenario == "saturated_torus_8"
    assert result.k == 4
    assert result.engine == "active"
    assert result.backend == "inline"
    assert result.scheme == "torus-rows"
    assert result.cut_links == 32
    assert result.window == 1
    assert result.windows_run > 0
    assert result.events > 0
    assert len(result.shard_events) == 4
    assert sum(result.shard_events) == result.events
    assert result.flits_exchanged > 0
    assert result.wall_seconds > 0
    assert 0 < result.critical_path_seconds <= result.wall_seconds
    assert result.obs_snapshot is None  # obs=False default


def test_worm_id_counters_survive_a_run():
    # A partitioned run rebins the module-global worm-id counters for its
    # replicas; afterwards a fresh sequential run must still get unique,
    # increasing wids.
    import repro.net.flitlevel.network as netmod

    run_partitioned("mixed_torus", 2, engine="active")
    a = next(netmod._flit_worm_ids)
    run_partitioned("mixed_torus", 4, engine="active")
    b = next(netmod._flit_worm_ids)
    assert b > a


def test_cli_crosscheck_smoke(capsys):
    from repro.par.__main__ import main

    rc = main(["crosscheck", "--partitions", "2", "--scenario", "fig3_s1",
               "--digests"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK   fig3_s1 [K=2]" in out
    assert "digest" in out


def test_scenario_registry_lookup():
    assert get_scenario("fig3_base").name == "fig3_base"
    with pytest.raises(KeyError, match="unknown par scenario"):
        get_scenario("nope")


def test_partitioned_run_point_defaults_to_active():
    record = execute_point(
        "partitioned_run", {"scenario": "mixed_torus", "partitions": 2}
    )
    assert record["engine"] == "active"
    assert record["match"] is True


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_partitioned_run_point_rejects_unknown_engine(backend):
    # Rejected before any shard is built, so the process backend raises
    # the same error instead of losing it in a worker.
    with pytest.raises(ValueError, match="unknown engine 'array'; known: "
                                         "active, dense"):
        execute_point("partitioned_run", {
            "scenario": "mixed_torus", "engine": "array", "backend": backend,
        })

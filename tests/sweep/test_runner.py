"""Runner tests: parallel determinism and record rehydration."""

import json
import math

import pytest

from repro.sweep import (
    SweepSpec,
    default_jobs,
    records_to_results,
    records_to_testbed_results,
    run_sweep,
)
from repro.sweep.figures import fig10_spec
from repro.sweep.points import execute_point, point_kind, sanitize_record

#: A cheap 4-point testbed sweep used where simulation content is irrelevant.
SMALL_TESTBED = dict(
    kind="myrinet_throughput",
    grid={"packet_size": [1024, 2048], "all_send": [False, True]},
    base={"warmup_us": 5_000.0, "measure_us": 20_000.0},
)


def test_parallel_matches_sequential_records():
    """The acceptance property: a 4-worker run is byte-identical to jobs=1."""
    spec = fig10_spec(
        loads=[0.04, 0.05], schemes=["hamiltonian-sf", "tree-sf"], scale=0.1
    )
    sequential = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=4)
    assert parallel.records == sequential.records
    assert parallel.workers == 4
    assert sequential.workers == 1
    assert len(parallel.records) == 4


def test_records_come_back_in_point_order():
    spec = SweepSpec(**SMALL_TESTBED)
    outcome = run_sweep(spec, jobs=2)
    sizes = [(r["packet_size"], r["all_send"]) for r in outcome.records]
    assert sizes == [(1024, False), (1024, True), (2048, False), (2048, True)]


def test_records_are_strict_json():
    spec = SweepSpec(**SMALL_TESTBED)
    outcome = run_sweep(spec, jobs=1)
    # allow_nan=False raises if any NaN/Infinity survived sanitization.
    json.dumps(outcome.records, allow_nan=False)


def test_sanitize_record_canonicalizes():
    raw = {"a": math.nan, "b": (1, 2), "c": {3: math.nan}, "d": 1.5}
    assert sanitize_record(raw) == {
        "a": None,
        "b": [1, 2],
        "c": {"3": None},
        "d": 1.5,
    }


def test_records_to_results_restores_nan():
    spec = fig10_spec(loads=[0.04], schemes=["tree-sf"], scale=0.1)
    record = run_sweep(spec, jobs=1).records[0]
    assert record["ci_half_width"] is None  # too few batches at this scale
    result = records_to_results([record])[0]
    assert math.isnan(result.ci_half_width)
    assert result.scheme == "tree-sf"


def test_records_to_testbed_results_restores_int_keys():
    spec = SweepSpec(**SMALL_TESTBED)
    result = records_to_testbed_results(run_sweep(spec, jobs=1).records)[0]
    assert all(isinstance(k, int) for k in result.per_host_throughput)
    assert all(isinstance(k, int) for k in result.per_host_loss)


def test_executor_receives_derived_seed():
    @point_kind("_echo_seed_test")
    def _echo(params):
        return dict(params)

    spec = SweepSpec(
        kind="_echo_seed_test",
        grid={"x": [1, 2]},
        base_seed=7,
        derive_seeds=True,
    )
    outcome = run_sweep(spec, jobs=1)
    expected = [p.seed for p in spec.points()]
    assert [r["seed"] for r in outcome.records] == expected
    assert expected[0] != expected[1]


def test_unknown_point_kind_raises():
    with pytest.raises(ValueError, match="unknown point kind"):
        execute_point("no-such-kind", {})


def test_duplicate_point_kind_rejected():
    with pytest.raises(ValueError, match="already registered"):
        point_kind("load_point")(lambda params: params)


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1  # clamped


def test_default_jobs_malformed_env_names_the_var(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
        default_jobs()



"""Tests of the benchmark harness itself (cheap points only).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import sweeps  # noqa: E402
import tracing  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
E2E = {m["name"] for m in CONFIG["end_to_end"]}
LAYERS = {m["name"] for m in CONFIG["per_layer"]}
WORKLOADS = {w["name"] for w in CONFIG["workloads"]}


def test_benchmark_json_names_and_limits():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in CONFIG[section]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(E2E) <= 16
    assert 1 <= len(LAYERS) <= 128
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= CONFIG["run_seconds"] <= 60


def test_every_layer_metric_names_what_it_moves():
    assert set(run.LAYER_MOVES) == LAYERS
    for name, moves in run.LAYER_MOVES.items():
        if moves is None:  # validity and hygiene: moves nothing by design
            assert name.startswith("trace.") or name == "cluster.leaked_procs"
            continue
        metric, workloads = moves
        assert metric in E2E, name
        assert workloads and set(workloads) <= WORKLOADS, name


def test_workloads_report_exactly_the_layer_metrics():
    swept = sweeps._layer_metrics([[{}]], [[1.0]], [[1.0]], 1)
    serving = served._layer_metrics([(True, 1.0, [])], None, 0)
    assert set(swept) | set(serving) == LAYERS


def _cheap_points():
    """One point of every layer the tracer wraps, each well under a second."""
    from repro.sweep.figures import faults_spec, fig11_spec, fig12_spec, repair_spec, vc_lanes_spec
    from repro.sweep.spec import SweepSpec

    specs = [
        fig12_spec(sizes=[8192], scale=0.2),
        fig11_spec(loads=[0.03], fractions=[0.05], schemes=["tree"], scale=0.1),
        faults_spec(loads=[0.04], link_failures=[1], scale=0.2),
        repair_spec(drops=[3]),
        SweepSpec(kind="fig3_offsets", grid={"scheme": ["s3_idle_flush"]},
                  base={"mc_delays": 1, "uc_delays": 2}),
        vc_lanes_spec(topologies=["torus"], modes=["idle_fill"], lanes=[2]),
    ]
    return [sweeps._single(spec.points()[0]) for spec in specs]


def test_records_identical_with_wrappers_installed_and_wrappers_removed(tmp_path):
    points = _cheap_points()
    plain = [sweeps._execute(spec) for _item, spec in points]
    assert all(record is not None for record, _error in plain)
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.installed_wrappers()
        traced = []
        for index, (_item, spec) in enumerate(points):
            with tracer.root("point", key=index):
                traced.append(sweeps._execute(spec))
    assert tracing.installed_wrappers() == []
    assert [common.record_hash(r) for r, _e in traced] == [
        common.record_hash(r) for r, _e in plain
    ]
    layers = {span[0] for span in tracer.spans}
    assert {"sim.run", "topology.build", "updown.build", "flitlevel.build",
            "flitlevel.run", "myrinet.run", "faults.campaign",
            "traffic.build_engine"} <= layers
    assert tracer.kernel.events > 0 and tracer.counts["flitlevel.ticks"] > 0
    assert tracer.counts["wormnet.refreshes"] > 0
    assert tracer.export_chrome(tmp_path / "trace.json") == []


def test_layer_self_times_partition_the_point():
    tracer = tracing.Tracer()
    with tracer:
        with tracer.root("point", key=0) as root:
            sweeps._execute(_cheap_points()[2][1])
    span = tracer.spans[root]
    times = tracer.layer_times(root)
    assert abs(sum(times.values()) - (span[2] - span[1])) < 1e-6
    assert all(value >= 0 for value in times.values())


def test_tampered_record_counts_as_failure():
    item, spec = sweeps.grid("paper_wormlevel", common.REFERENCE_SEED)[-1]
    record, error = sweeps._execute(spec)
    pins = common.load_pins("paper_wormlevel")
    good = common.Ledger(pins)
    assert good.check(item, record, error, pinned=True) and good.failed == 0
    tampered = dict(record, loss_rate_per_host=record["loss_rate_per_host"] + 1e-9)
    bad = common.Ledger(pins)
    assert not bad.check(item, tampered, pinned=True)
    assert (bad.failed, bad.attempted) == (1, 1)
    drifted = common.Ledger({})
    drifted.check(item, record)
    assert not drifted.check(item, tampered) and drifted.failed == 1
    unpinned = common.Ledger({})
    assert not unpinned.check(item, record, pinned=True)


def test_roadmap_reference_point_check():
    assert sweeps.check_roadmap_point(
        {"mean_multicast_latency": 3850.4376, "mean_channel_utilization": 0.1283988}
    )
    assert not sweeps.check_roadmap_point(
        {"mean_multicast_latency": 3851.0, "mean_channel_utilization": 0.1283988}
    )


def test_request_stream_is_deterministic_and_repeats_a_quarter():
    def requests(seed):
        stream = served.RequestStream(seed)
        return [r for _ in range(4) for r in stream.next_pass()]

    first = requests(7)
    assert first == requests(7)
    assert first != requests(8)
    fresh = [(kind, params) for kind, params, repeat in first if not repeat]
    repeats = [(kind, params) for kind, params, repeat in first if repeat]
    assert len(repeats) * 4 == len(first)
    assert all(repeat in fresh for repeat in repeats)
    assert len({json.dumps(p, sort_keys=True) for _k, p in fresh}) == len(fresh)
    assert {kind for kind, _p in fresh} == {
        "load_point", "fig3_offsets", "myrinet_throughput"
    }


def _runs(path: Path, walls, failed=0, trace=0):
    """One run per wall time; ``failed`` is a count for every run or a
    list with one count per run."""
    counts = failed if isinstance(failed, list) else [failed] * len(walls)
    with open(path, "w") as fh:
        for seed, (wall, fails) in enumerate(zip(walls, counts)):
            fh.write(json.dumps({
                "workload": "paper_wormlevel", "seed": seed, "trace": trace, "seconds": 20,
                "correct": fails == 0, "attempted": 100, "failed": fails,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            }) + "\n")
    return path


def test_compare_flags_regression_and_passes_identical_runs(tmp_path):
    walls = [10.0, 10.1, 9.9, 10.05, 9.95]
    a = _runs(tmp_path / "a.jsonl", walls)
    lines, regressed = compare.compare(a, a, CONFIG)
    assert not regressed
    assert any("wall_s" in line and "within bound" in line for line in lines)

    b = _runs(tmp_path / "b.jsonl", [1.2 * w for w in walls])
    lines, regressed = compare.compare(a, b, CONFIG)
    assert regressed
    assert any("wall_s" in line and "regressed" in line for line in lines)
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0

    noisy = _runs(tmp_path / "noisy.jsonl", [7.0, 13.0, 10.0, 8.0, 12.0])
    _lines, regressed = compare.compare(a, noisy, CONFIG)
    assert not regressed

    # One failing run among passing ones, untraced or traced, is enough.
    for name, failed, trace in (("failing.jsonl", 1, 0), ("one.jsonl", [0, 0, 0, 0, 1], 0),
                                ("traced.jsonl", [0, 0, 0, 0, 1], 1)):
        b = _runs(tmp_path / name, walls, failed=failed, trace=trace)
        lines, regressed = compare.compare(a, b, CONFIG)
        assert regressed, name
        assert any("error_rate" in line and "regressed" in line for line in lines)
    flaky = _runs(tmp_path / "flaky.jsonl", walls, failed=[1, 0, 0, 0, 0])
    _lines, regressed = compare.compare(flaky, flaky, CONFIG)
    assert not regressed


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "served", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""``python -m repro.obs`` — inspect exported observability files.

Subcommands
-----------
``fig3``
    Run the Figure 3 scenario twice — untraced and traced — assert the
    delivery records are byte-identical (tracing must not perturb the
    simulation), and export ``trace.jsonl``, ``trace.chrome.json``,
    ``metrics.json`` and ``deliveries.json`` into an output directory.
``summary``
    Print per-name event counts and completed-span statistics of a JSONL
    trace (and, optionally, a metrics snapshot overview).
``validate``
    Check a JSONL and/or Chrome trace (strict JSON, monotonic timestamps,
    every ``E`` matched by an earlier ``B``) and/or a metrics snapshot
    (sorted unique identities, known types, finite values) — the check the
    CI smoke jobs run over exported artifacts.
``hot-channels``
    Rank a per-channel gauge family (default ``link.flits``) from a
    metrics snapshot, hottest first.
``latency``
    Render a latency histogram family from a metrics snapshot as ASCII
    bars.

Example::

    python -m repro.obs fig3 --out /tmp/fig3obs
    python -m repro.obs hot-channels --metrics /tmp/fig3obs/metrics.json
    python -m repro.obs latency --metrics /tmp/fig3obs/metrics.json \
        --name flit.delivery_latency_hist
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import Observability
from repro.obs.report import (
    format_metrics_summary,
    format_trace_summary,
    hot_channels,
    load_chrome,
    load_jsonl,
    load_metrics,
    render_latency,
    trace_summary,
    validate_events,
    validate_metrics,
)


def _run_fig3(scheme: str, engine: str, worm_bytes: int, max_ticks: int, obs):
    """One Figure 3 run with direct access to the per-worm records.

    Mirrors :func:`repro.core.switch_mcast.run_fig3_scenario` but returns
    the network so the CLI can export wid-normalized delivery records (worm
    ids come from a process-global counter, so two runs in one process get
    different ids for the same worms — the records are compared by
    content, not id).
    """
    from repro.core.switch_mcast import (
        SwitchScheme,
        build_switch_multicast_network,
    )
    from repro.net.topology import fig3_topology

    topology = fig3_topology()
    names = {topology.node(h).name: h for h in topology.hosts}
    net = build_switch_multicast_network(
        topology, SwitchScheme(scheme), seed=3, engine=engine, obs=obs
    )
    net.send_multicast(
        names["srcM"],
        [names["host_b"], names["host_c"]],
        payload_bytes=worm_bytes,
        start_delay=0,
    )
    net.send_unicast(
        names["host_y"], names["host_b"], payload_bytes=worm_bytes, start_delay=5
    )
    status = net.run(max_ticks=max_ticks, quiet_limit=3_000, raise_on_deadlock=False)
    if obs is not None:
        obs.snapshot_flitnet(net)
    return net, status


def _delivery_records(net) -> List[Dict[str, Any]]:
    """Worm-id-free delivery records, in record insertion order."""
    return [
        {
            "src": record.src,
            "dests": sorted(record.dests),
            "payload_bytes": record.payload_bytes,
            "injected_at": record.injected_at,
            "delivered_at": {str(h): t for h, t in sorted(record.delivered_at.items())},
            "retransmissions": record.retransmissions,
        }
        for record in net.records.values()
    ]


def _cmd_fig3(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    plain_net, plain_status = _run_fig3(
        args.scheme, args.engine, args.worm_bytes, args.max_ticks, obs=None
    )
    obs = Observability(trace_capacity=args.trace_capacity)
    traced_net, traced_status = _run_fig3(
        args.scheme, args.engine, args.worm_bytes, args.max_ticks, obs=obs
    )

    plain = {
        "status": plain_status,
        "ticks": plain_net.now,
        "flushes": plain_net.flushes,
        "deliveries": _delivery_records(plain_net),
    }
    traced = {
        "status": traced_status,
        "ticks": traced_net.now,
        "flushes": traced_net.flushes,
        "deliveries": _delivery_records(traced_net),
    }
    identical = json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)
    if not identical:
        print("FAIL: delivery records differ between traced and untraced runs")
        return 1
    print(
        f"tracing on/off identical: {traced_status}, {traced_net.now} ticks, "
        f"{len(traced['deliveries'])} worm records"
    )

    n_jsonl = obs.tracer.export_jsonl(out / "trace.jsonl")
    n_chrome = obs.tracer.export_chrome(out / "trace.chrome.json")
    snapshot = obs.snapshot(traced_net.now)
    (out / "metrics.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True, allow_nan=False)
    )
    (out / "deliveries.json").write_text(
        json.dumps(traced, indent=2, sort_keys=True, allow_nan=False)
    )
    print(
        f"exported to {out}: trace.jsonl ({n_jsonl} events), "
        f"trace.chrome.json ({n_chrome} events), metrics.json "
        f"({len(snapshot['metrics'])} metrics), deliveries.json"
    )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    header, events = load_jsonl(args.trace)
    print(format_trace_summary(trace_summary(header, events)))
    if args.metrics:
        print()
        print(format_metrics_summary(load_metrics(args.metrics)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.trace and not args.chrome and not args.metrics:
        print("nothing to validate: pass --trace, --chrome and/or --metrics")
        return 2
    failed = False
    if args.trace:
        header, events = load_jsonl(args.trace)
        problems = validate_events(events, header=header)
        _report_validation(args.trace, len(events), problems)
        failed |= bool(problems)
    if args.chrome:
        entries = load_chrome(args.chrome)
        problems = validate_events(entries)
        _report_validation(args.chrome, len(entries), problems)
        failed |= bool(problems)
    if args.metrics:
        snapshot = load_metrics(args.metrics)
        problems = validate_metrics(snapshot)
        _report_validation(
            args.metrics, len(snapshot.get("metrics", [])), problems
        )
        failed |= bool(problems)
    return 1 if failed else 0


def _report_validation(path, count: int, problems: List[str]) -> None:
    if problems:
        print(f"{path}: INVALID ({len(problems)} problems)")
        for problem in problems[:20]:
            print(f"  - {problem}")
        if len(problems) > 20:
            print(f"  ... and {len(problems) - 20} more")
    else:
        print(f"{path}: OK ({count} events)")


def _cmd_hot_channels(args: argparse.Namespace) -> int:
    snapshot = load_metrics(args.metrics)
    ranked = hot_channels(snapshot, name=args.name, top=args.top)
    if not ranked:
        from repro.obs.report import gauge_names

        known = ", ".join(gauge_names(snapshot)) or "(none)"
        print(f"no gauge {args.name!r} in snapshot; known gauges: {known}")
        return 1
    width = max(len(label) for label, _ in ranked)
    print(f"top {len(ranked)} by {args.name}:")
    for label, value in ranked:
        print(f"  {label.ljust(width)}  {value:g}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    snapshot = load_metrics(args.metrics)
    try:
        print(render_latency(snapshot, args.name, width=args.width))
    except ValueError as error:
        print(str(error))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect exported observability traces and metric snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser(
        "fig3", help="run a traced Figure 3 scenario and export its files"
    )
    fig3.add_argument("--out", required=True, help="output directory")
    fig3.add_argument(
        "--scheme",
        default="s3_idle_flush",
        choices=["base", "s1_tree_restricted", "s2_interrupt", "s3_idle_flush"],
    )
    fig3.add_argument(
        "--engine", default="active", choices=["active", "dense"]
    )
    fig3.add_argument("--worm-bytes", type=int, default=400)
    fig3.add_argument("--max-ticks", type=int, default=100_000)
    fig3.add_argument("--trace-capacity", type=int, default=65536)
    fig3.set_defaults(fn=_cmd_fig3)

    summary = sub.add_parser("summary", help="summarize a JSONL trace")
    summary.add_argument("--trace", required=True, help="trace.jsonl path")
    summary.add_argument("--metrics", default=None, help="metrics.json path")
    summary.set_defaults(fn=_cmd_summary)

    validate = sub.add_parser(
        "validate", help="check trace/metrics file invariants"
    )
    validate.add_argument("--trace", default=None, help="trace.jsonl path")
    validate.add_argument("--chrome", default=None, help="trace.chrome.json path")
    validate.add_argument("--metrics", default=None, help="metrics.json path")
    validate.set_defaults(fn=_cmd_validate)

    hot = sub.add_parser("hot-channels", help="rank per-channel gauges")
    hot.add_argument("--metrics", required=True, help="metrics.json path")
    hot.add_argument("--name", default="link.flits", help="gauge family to rank")
    hot.add_argument("--top", type=int, default=10)
    hot.set_defaults(fn=_cmd_hot_channels)

    latency = sub.add_parser("latency", help="render a latency histogram")
    latency.add_argument("--metrics", required=True, help="metrics.json path")
    latency.add_argument(
        "--name",
        default="flit.delivery_latency_hist",
        help="histogram family to render",
    )
    latency.add_argument("--width", type=int, default=50, help="bar width")
    latency.set_defaults(fn=_cmd_latency)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

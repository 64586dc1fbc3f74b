"""Loaders, validators and renderers for exported observability files.

Three file kinds flow out of an instrumented run:

* a JSONL trace (``EventTracer.export_jsonl``) — header line + one event
  per line;
* a Chrome trace (``EventTracer.export_chrome``) — ``{"traceEvents":
  [...]}``, loadable in ``chrome://tracing`` / Perfetto;
* a metrics snapshot (``Observability.snapshot`` serialized as JSON).

This module reads all three back, checks the invariants the exporters
promise (monotonic timestamps, matched B/E pairs, strict JSON), and turns
them into the plain-text reports the ``python -m repro.obs`` CLI prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import metric_label, summarize_entry
from repro.obs.tracer import JSONL_KIND, JSONL_VERSION


# -- loading ----------------------------------------------------------------
def load_jsonl(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read an exported JSONL trace; returns ``(header, events)``."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("kind") != JSONL_KIND:
        raise ValueError(
            f"{path}: not a {JSONL_KIND} file (kind={header.get('kind')!r})"
        )
    if header.get("version") != JSONL_VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
    return header, [json.loads(line) for line in lines[1:]]


def load_chrome(path) -> List[Dict[str, Any]]:
    """Read an exported Chrome trace; returns its event entries."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents key)")
    return data["traceEvents"]


def load_metrics(path) -> Dict[str, Any]:
    """Read a serialized metrics/observability snapshot."""
    with open(path) as fh:
        snapshot = json.load(fh)
    if "metrics" not in snapshot:
        raise ValueError(f"{path}: not a metrics snapshot (no metrics key)")
    return snapshot


# -- validation -------------------------------------------------------------
def validate_events(
    events: List[Dict[str, Any]], header: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Invariant check for a list of trace events (JSONL or Chrome form).

    Returns a list of human-readable problems (empty == valid):

    * timestamps are monotonically non-decreasing in recording order;
    * every ``E`` closes an earlier ``B`` of the same span (``key`` in the
      JSONL form, ``tid`` in the Chrome form);
    * phases are limited to B/E/i;
    * the header's event count (when given) matches the body.
    """
    problems: List[str] = []
    if header is not None and header.get("events") != len(events):
        problems.append(
            f"header says {header.get('events')} events, file has {len(events)}"
        )
    last_ts: Optional[float] = None
    open_depth: Dict[Tuple[str, Any], int] = {}
    for index, event in enumerate(events):
        ph = event.get("ph")
        ts = event.get("ts")
        name = event.get("name")
        if ph not in ("B", "E", "i"):
            problems.append(f"event {index}: unknown phase {ph!r}")
            continue
        if not isinstance(ts, (int, float)):
            problems.append(f"event {index}: non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {index}: ts {ts} goes backwards (previous {last_ts})"
            )
        last_ts = ts
        span = (name, event.get("key", event.get("tid", 0)))
        if ph == "B":
            open_depth[span] = open_depth.get(span, 0) + 1
        elif ph == "E":
            depth = open_depth.get(span, 0)
            if depth <= 0:
                problems.append(
                    f"event {index}: E without matching B for span {span}"
                )
            else:
                open_depth[span] = depth - 1
    return problems


#: Collector kinds a snapshot may contain, with their required fields.
_METRIC_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "tally": ("count", "mean", "m2", "min", "max"),
    "histogram": ("low", "high", "bins", "counts"),
    "rate": ("total", "events", "elapsed"),
    "time_weighted": ("integral", "elapsed", "value"),
}


def validate_metrics(snapshot: Dict[str, Any]) -> List[str]:
    """Invariant check for a metrics snapshot (empty list == valid).

    Checks the promises :meth:`MetricsRegistry.snapshot` and
    :func:`merge_snapshots` make: a supported version, entries sorted by
    ``(name, tags)`` identity with no duplicates, known collector types
    carrying their required fields, histogram count vectors sized
    ``bins + 2`` (underflow + bins + overflow), and strict JSON — no NaN
    or infinity anywhere (``json.load`` happily parses both).
    """
    problems: List[str] = []
    from repro.obs.metrics import SNAPSHOT_VERSION

    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        problems.append(f"unsupported snapshot version {version!r}")
    entries = snapshot.get("metrics")
    if not isinstance(entries, list):
        problems.append("'metrics' is not a list")
        return problems

    def bad_float(value: Any) -> bool:
        return isinstance(value, float) and (
            value != value or value in (float("inf"), float("-inf"))
        )

    last_identity = None
    seen = set()
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"entry {index}: not an object")
            continue
        name, tags, kind = entry.get("name"), entry.get("tags"), entry.get("type")
        if not isinstance(name, str) or not isinstance(tags, dict):
            problems.append(f"entry {index}: missing name/tags")
            continue
        identity = (name, tuple(sorted(tags.items())))
        if identity in seen:
            problems.append(f"entry {index}: duplicate metric {identity}")
        seen.add(identity)
        if last_identity is not None and identity < last_identity:
            problems.append(
                f"entry {index}: out of sorted order ({name}{tags} after "
                f"{last_identity[0]})"
            )
        last_identity = identity
        fields = _METRIC_FIELDS.get(kind)
        if fields is None:
            problems.append(f"entry {index}: unknown type {kind!r}")
            continue
        missing = [f for f in fields if f not in entry]
        if missing:
            problems.append(f"entry {index} ({name}): missing fields {missing}")
            continue
        if kind == "histogram" and len(entry["counts"]) != entry["bins"] + 2:
            problems.append(
                f"entry {index} ({name}): counts has {len(entry['counts'])} "
                f"slots, expected bins+2 = {entry['bins'] + 2}"
            )
        for field_name in fields:
            value = entry.get(field_name)
            values = value if isinstance(value, list) else [value]
            if any(bad_float(v) for v in values):
                problems.append(
                    f"entry {index} ({name}): non-finite {field_name}"
                )
    return problems


# -- reports ----------------------------------------------------------------
def _entries_by_name(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    return [e for e in snapshot.get("metrics", []) if e["name"] == name]


def gauge_names(snapshot: Dict[str, Any]) -> List[str]:
    """Distinct gauge metric names present in a snapshot."""
    return sorted(
        {e["name"] for e in snapshot.get("metrics", []) if e["type"] == "gauge"}
    )


def hot_channels(
    snapshot: Dict[str, Any], name: str = "link.flits", top: int = 10
) -> List[Tuple[str, float]]:
    """Top-``top`` gauge entries of metric ``name``, hottest first.

    Works on any per-channel/per-link gauge family: ``link.flits`` (flit
    engines), ``channel.utilization`` (worm-level network),
    ``myrinet.host_throughput_mbps`` (testbed).
    """
    ranked = [
        (metric_label(entry["name"], entry["tags"]), entry["value"])
        for entry in _entries_by_name(snapshot, name)
        if entry["type"] == "gauge" and entry["value"] is not None
    ]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked[:top]


def histogram_names(snapshot: Dict[str, Any]) -> List[str]:
    """Distinct histogram metric names present in a snapshot."""
    return sorted(
        {e["name"] for e in snapshot.get("metrics", []) if e["type"] == "histogram"}
    )


def render_histogram(entry: Dict[str, Any], width: int = 50) -> str:
    """ASCII bar rendering of one histogram snapshot entry."""
    low, high, bins = entry["low"], entry["high"], entry["bins"]
    counts = entry["counts"]
    total = sum(counts)
    label = metric_label(entry["name"], entry["tags"])
    lines = [f"{label}  (n={total}, range [{low:g}, {high:g}))"]
    if total == 0:
        lines.append("  (empty)")
        return "\n".join(lines)
    bin_width = (high - low) / bins
    peak = max(counts)
    rows = [("< low", counts[0])]
    rows += [
        (f"[{low + i * bin_width:g}, {low + (i + 1) * bin_width:g})", counts[i + 1])
        for i in range(bins)
    ]
    rows.append((">= high", counts[-1]))
    label_width = max(len(r[0]) for r in rows)
    for row_label, count in rows:
        if count == 0:
            continue
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  {row_label.rjust(label_width)}  {count:8d}  {bar}")
    return "\n".join(lines)


def render_latency(snapshot: Dict[str, Any], name: str, width: int = 50) -> str:
    """Render every histogram entry registered under ``name``."""
    entries = [
        e for e in _entries_by_name(snapshot, name) if e["type"] == "histogram"
    ]
    if not entries:
        known = ", ".join(histogram_names(snapshot)) or "(none)"
        raise ValueError(f"no histogram {name!r} in snapshot; known: {known}")
    return "\n\n".join(render_histogram(entry, width=width) for entry in entries)


def trace_summary(
    header: Dict[str, Any], events: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Aggregate an event list: per-name counts and completed-span stats."""
    by_name: Dict[str, Dict[str, int]] = {}
    open_spans: Dict[Tuple[str, Any], List[float]] = {}
    durations: Dict[str, List[float]] = {}
    for event in events:
        name, ph = event["name"], event["ph"]
        by_name.setdefault(name, {"B": 0, "E": 0, "i": 0})[ph] += 1
        span = (name, event.get("key", event.get("tid", 0)))
        if ph == "B":
            open_spans.setdefault(span, []).append(event["ts"])
        elif ph == "E":
            stack = open_spans.get(span)
            if stack:
                durations.setdefault(name, []).append(event["ts"] - stack.pop())
    span_stats = {
        name: {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
        }
        for name, values in sorted(durations.items())
    }
    return {
        "events": len(events),
        "recorded": header.get("recorded", len(events)),
        "dropped": header.get("dropped", 0),
        "first_ts": events[0]["ts"] if events else None,
        "last_ts": events[-1]["ts"] if events else None,
        "by_name": dict(sorted(by_name.items())),
        "spans": span_stats,
    }


def format_trace_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`trace_summary`."""
    lines = [
        f"events: {summary['events']} retained "
        f"({summary['recorded']} recorded, {summary['dropped']} dropped)",
    ]
    if summary["first_ts"] is not None:
        lines.append(f"time:   [{summary['first_ts']:g}, {summary['last_ts']:g}]")
    lines.append("per-name counts:")
    for name, counts in summary["by_name"].items():
        parts = ", ".join(f"{ph}={n}" for ph, n in counts.items() if n)
        lines.append(f"  {name}: {parts}")
    if summary["spans"]:
        lines.append("completed spans:")
        for name, stats in summary["spans"].items():
            lines.append(
                f"  {name}: n={stats['count']} mean={stats['mean']:.1f} "
                f"min={stats['min']:g} max={stats['max']:g}"
            )
    return "\n".join(lines)


def format_metrics_summary(snapshot: Dict[str, Any], top: int = 20) -> str:
    """Compact table of a metrics snapshot's most informative entries."""
    lines = [f"metrics: {len(snapshot.get('metrics', []))} entries"]
    shown = 0
    for entry in snapshot.get("metrics", []):
        if shown >= top:
            remaining = len(snapshot["metrics"]) - shown
            lines.append(f"  ... and {remaining} more")
            break
        summary = summarize_entry(entry)
        rendered = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in summary.items()
            if v is not None
        )
        label = metric_label(entry["name"], entry["tags"])
        lines.append(f"  [{entry['type']}] {label}: {rendered or '(empty)'}")
        shown += 1
    kernel = snapshot.get("kernel")
    if kernel:
        lines.append(f"kernel: {kernel.get('events', 0)} events")
    trace = snapshot.get("trace")
    if trace:
        lines.append(
            f"trace:  {trace.get('recorded', 0)} recorded, "
            f"{trace.get('dropped', 0)} dropped"
        )
    return "\n".join(lines)

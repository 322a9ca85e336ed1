"""Trace summarization: turn a span dump into a hot-path table.

Accepts either export format of :class:`~repro.obs.tracing.Tracer`
(JSONL span lines or a Chrome ``trace_event`` document), aggregates the
spans by name and renders the classic profiler table: call count, total
and mean time, share of the traced wall clock.  ``tools/obs_report.py``
is the command-line wrapper.
"""

from __future__ import annotations

import json
import time
from typing import Dict, IO, Iterable, List

__all__ = [
    "format_fabric_summary",
    "format_service_metrics",
    "format_summary",
    "load_trace_events",
    "summarize_events",
    "summarize_tracer",
]


def _normalize(raw: dict) -> dict:
    """One event as ``{name, ts, dur}`` in microseconds."""
    if "ts_us" in raw:  # JSONL span record
        return {
            "name": raw["name"],
            "ts": float(raw["ts_us"]),
            "dur": float(raw["dur_us"]),
        }
    return {  # Chrome trace_event
        "name": raw["name"],
        "ts": float(raw["ts"]),
        "dur": float(raw.get("dur", 0.0)),
    }


def load_trace_events(path: str) -> List[dict]:
    """Load spans from a JSONL or Chrome trace_event file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        return []
    if text[0] in "[{" and "\n{" not in text[:2]:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict):
            events = data.get("traceEvents", [])
            return [
                _normalize(e) for e in events if e.get("ph", "X") == "X"
            ]
        if isinstance(data, list):
            return [
                _normalize(e) for e in data if e.get("ph", "X") == "X"
            ]
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        if not isinstance(raw, dict) or "name" not in raw:
            continue  # trace_meta header or other non-span line
        events.append(_normalize(raw))
    return events


def summarize_events(events: Iterable[dict]) -> List[dict]:
    """Aggregate spans by name, sorted by total time descending.

    ``pct_wall`` is each name's total time over the traced wall-clock
    window; nested spans overlap their parents, so the column can sum
    past 100% — it ranks hot paths, it is not a partition of time.
    """
    groups: Dict[str, List[float]] = {}
    start = float("inf")
    end = 0.0
    for event in events:
        groups.setdefault(event["name"], []).append(event["dur"])
        start = min(start, event["ts"])
        end = max(end, event["ts"] + event["dur"])
    wall_us = max(end - start, 1e-9)
    rows = []
    for name, durs in groups.items():
        total = sum(durs)
        rows.append(
            {
                "span": name,
                "calls": len(durs),
                "total_ms": round(total / 1e3, 3),
                "mean_us": round(total / len(durs), 1),
                "max_us": round(max(durs), 1),
                "pct_wall": round(100.0 * total / wall_us, 1),
            }
        )
    rows.sort(key=lambda r: -r["total_ms"])
    return rows


def summarize_tracer(tracer) -> List[dict]:
    """Summarize an in-process tracer without exporting first."""
    return summarize_events(
        {
            "name": r.name,
            "ts": r.start_us,
            "dur": r.duration_us,
        }
        for r in tracer.records
    )


def _split_key(key: str):
    """``'name{a="x",b="y"}'`` -> ``("name", {"a": "x", "b": "y"})``."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for part in rest.rstrip("}").split(","):
        if "=" in part:
            k, _, v = part.partition("=")
            labels[k] = v.strip('"')
    return name, labels


def _label_rows(snapshot: dict, name: str, label: str) -> Dict[str, float]:
    """All ``name{label=...}`` counter values keyed by the label."""
    out: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        base, labels = _split_key(key)
        if base == name and label in labels:
            out[labels[label]] = out.get(labels[label], 0) + value
    return out


def format_service_metrics(snapshot: dict) -> str:
    """Render a service metrics snapshot as a readable health report.

    Input is the :meth:`MetricsRegistry.snapshot` JSON shape; output
    groups the service's operational story — requests, cache churn
    (LRU evictions, disk-tier traffic), canary validation and the
    process pool's fault counters — one ``key: value`` line each, so
    a failed chaos run can be diagnosed from the uploaded artifact.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    sections = []

    def section(title: str, pairs) -> None:
        pairs = [(k, v) for k, v in pairs if v is not None]
        if pairs:
            body = "\n".join(f"  {k}: {v}" for k, v in pairs)
            sections.append(f"{title}\n{body}")

    def fmt(value: float) -> object:
        return int(value) if value == int(value) else round(value, 3)

    statuses = _label_rows(snapshot, "service_requests_total", "status")
    section(
        "requests",
        [(status, fmt(v)) for status, v in sorted(statuses.items())],
    )

    outcomes = _label_rows(snapshot, "service_cache_total", "outcome")
    disk = _label_rows(
        snapshot, "service_cache_disk_lookups_total", "outcome"
    )
    disk_total = sum(disk.values())
    cache_pairs = [
        (f"lookup_{k}", fmt(v)) for k, v in sorted(outcomes.items())
    ]
    cache_pairs += [
        ("entries", fmt(gauges.get("service_cache_entries", 0))),
        ("bytes", fmt(gauges.get("service_cache_bytes", 0))),
        (
            "evictions",
            fmt(counters.get("service_cache_evictions_total", 0)),
        ),
        (
            "disk_hit_rate",
            (
                round(disk.get("hit", 0) / disk_total, 3)
                if disk_total
                else None
            ),
        ),
        (
            "disk_promotions",
            fmt(
                counters.get("service_cache_disk_promotions_total", 0)
            ),
        ),
        (
            "disk_corrupt_files",
            fmt(counters.get("service_cache_disk_corrupt_total", 0)),
        ),
    ]
    section("plan cache", cache_pairs)

    fresh = _label_rows(snapshot, "service_canary_fresh_total", "reason")
    section(
        "validation canary",
        [
            (
                "validations",
                fmt(counters.get("service_validation_total", 0)),
            ),
            (
                "failures",
                fmt(
                    counters.get("service_validation_failures_total", 0)
                ),
            ),
            (
                "skipped_over_cell_limit",
                fmt(
                    counters.get("service_validation_skipped_total", 0)
                ),
            ),
        ]
        + [
            (f"fresh_{k}", fmt(v)) for k, v in sorted(fresh.items())
        ],
    )

    paths = _label_rows(
        snapshot, "service_lower_requests_total", "path"
    )
    lowerings = _label_rows(snapshot, "service_lower_total", "outcome")
    reasons = _label_rows(
        snapshot, "service_lower_fallback_total", "reason"
    )
    path_total = sum(paths.values())
    lower_pairs = [
        (f"requests_{k}", fmt(v)) for k, v in sorted(paths.items())
    ]
    lower_pairs += [
        (
            "compiled_share",
            (
                round(paths.get("compiled", 0) / path_total, 3)
                if path_total
                else None
            ),
        ),
    ]
    lower_pairs += [
        (f"lowerings_{k}", fmt(v))
        for k, v in sorted(lowerings.items())
    ]
    converters = _label_rows(
        snapshot, "service_lower_converter_total", "converter"
    )
    lower_pairs += [
        (f"converter_{k}", fmt(v))
        for k, v in sorted(converters.items())
    ]
    lower_pairs += [
        (
            "converter_fallbacks",
            (
                fmt(counters["service_lower_converter_fallback_total"])
                if "service_lower_converter_fallback_total" in counters
                else None
            ),
        ),
    ]
    lower_pairs += [
        (f"fallback_{k}", fmt(v)) for k, v in sorted(reasons.items())
    ]
    lower_pairs += [
        (
            "kernel_errors",
            (
                fmt(counters["service_lower_kernel_errors_total"])
                if "service_lower_kernel_errors_total" in counters
                else None
            ),
        ),
        (
            "sidecar_corrupt_files",
            (
                fmt(counters["service_cache_sidecar_corrupt_total"])
                if "service_cache_sidecar_corrupt_total" in counters
                else None
            ),
        ),
    ]
    if paths or lowerings or reasons:
        section("lowering (compiled backend)", lower_pairs)

    jobs = _label_rows(snapshot, "service_pool_jobs_total", "outcome")
    restarts = _label_rows(
        snapshot, "service_worker_restarts_total", "reason"
    )
    transitions = _label_rows(
        snapshot, "service_breaker_transitions_total", "to"
    )
    open_breakers = sum(
        1
        for key, value in gauges.items()
        if _split_key(key)[0] == "service_breaker_state" and value >= 1
    )
    pool_pairs = (
        [(f"jobs_{k}", fmt(v)) for k, v in sorted(jobs.items())]
        + [
            (f"restarts_{k}", fmt(v))
            for k, v in sorted(restarts.items())
        ]
        + [
            (f"breaker_to_{k}", fmt(v))
            for k, v in sorted(transitions.items())
        ]
    )
    if pool_pairs:
        pool_pairs.append(("breakers_not_closed", open_breakers))
    section("process pool", pool_pairs)

    latency = histograms.get("service_request_latency_ms")
    if latency and latency.get("count"):
        section(
            "latency",
            [
                ("requests_measured", fmt(latency["count"])),
                (
                    "mean_ms",
                    round(latency["sum"] / latency["count"], 3),
                ),
            ],
        )

    router_statuses = _label_rows(
        snapshot, "router_requests_total", "status"
    )
    dispatches = _label_rows(snapshot, "router_dispatch_total", "node")
    node_up = {}
    for key, value in gauges.items():
        base, labels = _split_key(key)
        if base == "router_node_up" and "node" in labels:
            node_up[labels["node"]] = value
    restarts = _label_rows(
        snapshot, "router_node_restarts_total", "node"
    )
    router_pairs = [
        (status, fmt(v))
        for status, v in sorted(router_statuses.items())
    ]
    router_pairs += [
        (f"dispatched_node_{k}", fmt(v))
        for k, v in sorted(dispatches.items())
    ]
    router_pairs += [
        (f"placed_{k}", fmt(v))
        for k, v in sorted(
            _label_rows(
                snapshot, "router_placement_total", "reason"
            ).items()
        )
    ]
    router_pairs += [
        ("nodes_up", fmt(sum(node_up.values()))) if node_up else
        ("nodes_up", None),
        (
            "node_restarts",
            fmt(sum(restarts.values())) if restarts else None,
        ),
        (
            "failovers",
            (
                fmt(counters["router_failovers_total"])
                if "router_failovers_total" in counters
                else None
            ),
        ),
        (
            "ownership_churn",
            (
                fmt(counters["router_ownership_churn_total"])
                if "router_ownership_churn_total" in counters
                else None
            ),
        ),
        (
            "chaos_node_kills",
            (
                fmt(
                    sum(
                        _label_rows(
                            snapshot,
                            "router_chaos_node_kills_total",
                            "node",
                        ).values()
                    )
                )
                if any(
                    k.startswith("router_chaos_node_kills_total")
                    for k in counters
                )
                else None
            ),
        ),
    ]
    if router_statuses or dispatches:
        section("router", router_pairs)

    if not sections:
        return "(no service metrics in this snapshot)"
    return "\n".join(sections)


def _format_last_seen(last_seen, now=None) -> str:
    """Human-readable age of a node's last observed activity."""
    if not last_seen:
        return "never seen"
    if now is None:
        now = time.time()
    age = max(0.0, now - float(last_seen))
    if age < 120:
        return f"last seen {age:.0f}s ago"
    if age < 7200:
        return f"last seen {age / 60:.0f}m ago"
    return f"last seen {age / 3600:.1f}h ago"


def _fabric_node_rows(parts, node_status=None) -> List[dict]:
    """One health row per metrics source (router or node).

    ``node_status`` optionally maps a source label to the router's
    :meth:`Router.node_status` entry for that node, so unreachable
    rows can report when the node was last heard from.
    """
    node_status = node_status or {}
    rows = []
    for label, snap in parts:
        if snap is None:
            health = "unreachable"
            status = node_status.get(label)
            if status is not None:
                health += (
                    f" ({_format_last_seen(status.get('last_seen'))})"
                )
            rows.append(
                {
                    "source": label,
                    "health": health,
                    "requests": "-",
                    "ok": "-",
                    "errors": "-",
                    "cache_hit_rate": "-",
                    "restarts": "-",
                }
            )
            continue
        statuses = _label_rows(snap, "service_requests_total", "status")
        if not statuses:
            statuses = _label_rows(
                snap, "router_requests_total", "status"
            )
        ok = statuses.get("ok", 0)
        total = sum(statuses.values())
        outcomes = _label_rows(snap, "service_cache_total", "outcome")
        lookups = sum(outcomes.values())
        served = (
            outcomes.get("hit", 0)
            + outcomes.get("disk", 0)
            + outcomes.get("coalesced", 0)
        )
        restarts = sum(
            _label_rows(
                snap, "service_worker_restarts_total", "reason"
            ).values()
        ) + sum(
            _label_rows(
                snap, "router_node_restarts_total", "node"
            ).values()
        )
        rows.append(
            {
                "source": label,
                "health": "ok" if total == ok else "degraded",
                "requests": int(total),
                "ok": int(ok),
                "errors": int(total - ok),
                "cache_hit_rate": (
                    round(served / lookups, 3) if lookups else "-"
                ),
                "restarts": int(restarts),
            }
        )
    return rows


def _stage_percentile_rows(registry) -> List[dict]:
    """p50/p95/p99 per named stage over the merged histograms."""
    rows = []
    for metric in registry.metrics():
        if getattr(metric, "kind", "") != "histogram":
            continue
        if metric.name not in ("service_stage_ms", "router_stage_ms"):
            continue
        if metric.count == 0:
            continue
        layer = (
            "router" if metric.name.startswith("router") else "node"
        )
        stage = dict(metric.labels).get("stage", "?")
        rows.append(
            {
                "stage": f"{layer}.{stage}",
                "count": metric.count,
                "p50_ms": round(metric.quantile(0.5), 3),
                "p95_ms": round(metric.quantile(0.95), 3),
                "p99_ms": round(metric.quantile(0.99), 3),
                "mean_ms": round(metric.sum / metric.count, 3),
            }
        )
    rows.sort(key=lambda r: -r["p95_ms"])
    return rows


def format_fabric_summary(parts, node_status=None) -> str:
    """Render the router fabric's aggregated telemetry (`repro top`).

    ``parts`` is ``[(label, registry_snapshot_or_None), ...]`` — one
    entry per process (router + each node; None marks a node that did
    not answer the metrics control request).  ``node_status``
    optionally maps a source label to that node's
    :meth:`Router.node_status` entry, annotating unreachable rows with
    a last-seen age.  All reachable snapshots are merged via
    :meth:`MetricsRegistry.merge_snapshot`, then three sections are
    printed: per-source health, merged per-stage latency percentiles,
    and the slowest request exemplars fabric-wide.
    """
    from .metrics import MetricsRegistry

    merged = MetricsRegistry()
    for _, snap in parts:
        if snap is not None:
            merged.merge_snapshot(snap)

    sections = [
        f"fabric summary ({len(parts)} sources)",
        "",
        "per-node health:",
        format_summary(_fabric_node_rows(parts, node_status)),
    ]
    stage_rows = _stage_percentile_rows(merged)
    if stage_rows:
        sections += [
            "",
            "stage latency (merged, ms):",
            format_summary(stage_rows),
        ]
    merged_snap = merged.snapshot()
    placements = _label_rows(
        merged_snap, "router_placement_total", "reason"
    )
    if placements:
        total = sum(placements.values())
        sections += [
            "",
            "router placement:",
            "  "
            + ", ".join(
                f"{k}={int(v)}" for k, v in sorted(placements.items())
            )
            + f" (spill share {placements.get('spill', 0) / total:.1%})",
        ]
    paths = _label_rows(
        merged_snap, "service_lower_requests_total", "path"
    )
    if paths:
        total = sum(paths.values())
        reasons = _label_rows(
            merged_snap, "service_lower_fallback_total", "reason"
        )
        parts_txt = ", ".join(
            f"{k}={int(v)}" for k, v in sorted(paths.items())
        )
        line = (
            f"  {parts_txt} "
            f"(compiled share {paths.get('compiled', 0) / total:.1%})"
        )
        sections += ["", "compiled backend (merged):", line]
        converters = _label_rows(
            merged_snap, "service_lower_converter_total", "converter"
        )
        if converters:
            sections.append(
                "  converters: "
                + ", ".join(
                    f"{k}={int(v)}"
                    for k, v in sorted(converters.items())
                )
            )
        if reasons:
            sections.append(
                "  fallbacks: "
                + ", ".join(
                    f"{k}={int(v)}"
                    for k, v in sorted(reasons.items())
                )
            )
    slow = merged.exemplars(
        "router_request_latency_ms"
    ) or merged.exemplars("service_request_latency_ms")
    if slow:
        lines = []
        for entry in slow:
            labels = ", ".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            lines.append(
                f"  {entry['value']:10.3f} ms  {labels}"
            )
        sections += ["", "slowest requests:"] + lines
    return "\n".join(sections)


def format_summary(rows: List[dict], top: int = 0) -> str:
    """Render summary rows as an aligned text table."""
    if not rows:
        return "(no spans recorded)"
    if top:
        rows = rows[:top]
    headers = list(rows[0].keys())
    table = [[str(r[h]) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in table))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)

"""Exporters: JSONL traces, Prometheus-style text metrics, summaries.

Three output shapes, one source of truth:

* :func:`write_trace_jsonl` — one JSON object per line; ``span`` records
  from the tracers and ``sample`` records from the time-series samplers
  share the file so a single artifact replays the whole run.
* :func:`write_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` / samples). Histograms emit cumulative ``_bucket{le=...}``
  series plus ``_sum`` / ``_count`` and explicit quantile gauges so
  p50/p95/p99 are directly greppable.
* :func:`summarize_trace` / :func:`summarize_metrics` — human-readable
  tables for the ``python -m repro obs`` subcommand.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, TextIO

from ..analysis.tables import format_table
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Quantiles emitted for every histogram.
QUANTILES = (50.0, 95.0, 99.0)


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------

def write_trace_jsonl(records: Iterable[Dict[str, Any]],
                      stream: TextIO) -> int:
    """Write trace records (span and sample dicts) as JSON lines;
    returns the number of lines written."""
    count = 0
    for record in records:
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def read_trace_jsonl(stream: TextIO) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into record dicts (blank lines skipped)."""
    records = []
    for line in stream:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    mangled = "".join(ch if ch.isalnum() else "_" for ch in name)
    return mangled if mangled.startswith("repro_") else f"repro_{mangled}"


def _prom_labels(labels: Dict[str, str], extra: Dict[str, str] = {}
                 ) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    body = ",".join(f'{key}="{value}"'
                    for key, value in sorted(merged.items()))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def write_prometheus(registry: MetricsRegistry, stream: TextIO) -> int:
    """Write every registered instrument in the Prometheus text
    exposition format; returns the number of sample lines."""
    lines = 0
    seen_headers = set()
    for metric in registry.collect():
        name = _prom_name(metric.name)
        if name not in seen_headers:
            seen_headers.add(name)
            if metric.help:
                stream.write(f"# HELP {name} {metric.help}\n")
            stream.write(f"# TYPE {name} {metric.kind}\n")
        if isinstance(metric, (Counter, Gauge)):
            stream.write(f"{name}{_prom_labels(metric.labels)} "
                         f"{_format_value(metric.value)}\n")
            lines += 1
        elif isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative_buckets():
                labels = _prom_labels(metric.labels,
                                      {"le": f"{bound:.6g}"})
                stream.write(f"{name}_bucket{labels} {cumulative}\n")
                lines += 1
            inf_labels = _prom_labels(metric.labels, {"le": "+Inf"})
            stream.write(f"{name}_bucket{inf_labels} {metric.count}\n")
            stream.write(f"{name}_sum{_prom_labels(metric.labels)} "
                         f"{_format_value(metric.sum)}\n")
            stream.write(f"{name}_count{_prom_labels(metric.labels)} "
                         f"{metric.count}\n")
            lines += 3
            for pct in QUANTILES:
                labels = _prom_labels(metric.labels,
                                      {"quantile": f"{pct / 100:g}"})
                stream.write(f"{name}_quantile{labels} "
                             f"{_format_value(metric.percentile(pct))}\n")
                lines += 1
            max_labels = _prom_labels(metric.labels, {"quantile": "max"})
            observed_max = metric.max if metric.count else 0
            stream.write(f"{name}_quantile{max_labels} "
                         f"{_format_value(observed_max)}\n")
            lines += 1
    return lines


# ----------------------------------------------------------------------
# Human-readable summaries (the `repro obs` subcommand)
# ----------------------------------------------------------------------

def summarize_trace(records: List[Dict[str, Any]],
                    top: int = 10) -> str:
    """Render a span/sample record list as component and slowest-span
    tables."""
    spans = [r for r in records if r.get("type") == "span"]
    samples = [r for r in records if r.get("type") == "sample"]
    parts: List[str] = []

    by_component: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_component.setdefault(span.get("component", "?"),
                                []).append(span)
    rows = []
    for component in sorted(by_component):
        group = by_component[component]
        total_ns = sum(s.get("dur_ns", 0.0) for s in group)
        rows.append([component, len(group),
                     round(total_ns / 1e3, 2),
                     round(total_ns / len(group) / 1e3, 2)])
    parts.append(format_table(
        ["component", "spans", "total (us)", "mean (us)"], rows,
        title=f"Trace: {len(spans)} spans, {len(samples)} samples"))

    slowest = sorted(spans, key=lambda s: s.get("dur_ns", 0.0),
                     reverse=True)[:top]
    rows = [[s.get("name"), s.get("engine", "-"),
             round(s.get("start_ns", 0.0) / 1e6, 3),
             round(s.get("dur_ns", 0.0) / 1e3, 2)]
            for s in slowest]
    parts.append(format_table(
        ["span", "engine", "start (ms)", "duration (us)"], rows,
        title=f"Slowest {len(slowest)} spans"))

    if samples:
        keys = [k for k, v in samples[0].items()
                if k not in ("t_ms", "partition")
                and isinstance(v, (int, float))
                and not isinstance(v, bool)]
        first, last = samples[0], samples[-1]
        rows = [[key, _format_value(first.get(key, 0.0)),
                 _format_value(last.get(key, 0.0))]
                for key in sorted(keys)]
        parts.append(format_table(
            ["counter", "first sample", "last sample"], rows,
            title=f"Time series: {len(samples)} samples, "
                  f"{first['t_ms']:.3f} - {last['t_ms']:.3f} ms"))
    return "\n\n".join(parts)


def summarize_metrics(text: str) -> str:
    """Render Prometheus text (as produced by :func:`write_prometheus`)
    as a table, hiding the verbose histogram bucket series."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if "_bucket{" in series or series.endswith("_bucket"):
            continue
        rows.append([series, value])
    return format_table(["series", "value"], rows,
                        title="Metrics (histogram buckets elided)")


def error_headline(error: Any) -> Any:
    """Last non-blank line of a possibly multi-line error (tracebacks
    collapse to their final ``SomeError: ...`` line)."""
    if not isinstance(error, str):
        return error
    for line in reversed(error.splitlines()):
        if line.strip():
            return line.strip()
    return error


def summarize_sweep(summary: Dict[str, Any]) -> str:
    """Render a scheduler ``summary.json`` (see
    :func:`repro.harness.scheduler.write_sweep_summary`) as a table:
    one row per point, in spec order — plus a merged phase-profile
    table when the points carry one (telemetry runs)."""
    rows = []
    profiles = []
    for point in summary.get("points", []):
        spec = point.get("spec", {})
        result = point.get("result") or {}
        profiles.append(result.get("phases"))
        rows.append([
            spec.get("workload", "?"),
            spec.get("engine", "?"),
            spec.get("latency", "?"),
            "ok" if point.get("ok") else
            f"FAILED: {error_headline(point.get('error'))}",
            round(result.get("throughput", 0.0), 1),
            round(point.get("host_seconds", 0.0), 2),
        ])
    failed = summary.get("failed", 0)
    rendered = format_table(
        ["workload", "engine", "latency", "status", "txn/s",
         "host (s)"], rows,
        title=f"Sweep: {len(rows)} points, {failed} failed")
    if any(profiles):
        from .profiler import merge_profiles
        rendered += "\n\n" + summarize_profile(merge_profiles(profiles))
    return rendered


def summarize_profile(profile: Dict[str, Any]) -> str:
    """Render a ``repro-phase-profile`` payload (see
    :mod:`repro.obs.profiler`) as a wall-vs-simulated phase table."""
    total = profile.get("total_wall_s") or 0.0
    rows = []
    for entry in sorted(profile.get("phases", []),
                        key=lambda e: (e["depth"], -e["wall_s"])):
        indent = "  " * entry["depth"]
        share = 100.0 * entry["wall_s"] / total if total > 0 else 0.0
        rows.append([
            indent + entry["stack"],
            entry["count"],
            round(entry["wall_s"] * 1e3, 3),
            f"{share:.1f}%",
            round(entry["sim_ns"] / 1e6, 3),
        ])
    coverage = profile.get("coverage")
    coverage_text = f"{100 * coverage:.1f}%" \
        if coverage is not None else "n/a"
    return format_table(
        ["phase", "count", "wall (ms)", "wall %", "sim (ms)"], rows,
        title=(f"Phases: {total * 1e3:.3f} ms wall, "
               f"{coverage_text} attributed"))


def summarize_events(records: List[Dict[str, Any]]) -> str:
    """Render a telemetry event log (JSONL, see
    :class:`repro.obs.bus.JsonlEventLog`) as per-kind and per-source
    tables, surfacing the closing ``log_closed`` accounting."""
    by_kind: Dict[str, int] = {}
    sources = set()
    first_wall = last_wall = None
    closing: Dict[str, Any] = {}
    for record in records:
        kind = record.get("kind", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
        sources.add(record.get("source", ""))
        wall = record.get("wall_s")
        if isinstance(wall, (int, float)):
            first_wall = wall if first_wall is None else first_wall
            last_wall = wall
        if kind == "log_closed":
            closing = record.get("data", {})
    rows = [[kind, count] for kind, count in sorted(by_kind.items())]
    span = (last_wall - first_wall) \
        if first_wall is not None and last_wall is not None else 0.0
    parts = [format_table(
        ["event kind", "count"], rows,
        title=(f"Event log: {len(records)} events, "
               f"{len(sources)} sources, {span:.2f} s"))]
    if closing:
        rows = [[key, _format_value(value)]
                for key, value in sorted(closing.items())
                if isinstance(value, (int, float))]
        parts.append(format_table(
            ["counter", "value"], rows, title="Bus accounting"))
    return "\n\n".join(parts)


def _looks_like_event_log(records: List[Dict[str, Any]]) -> bool:
    return bool(records) and all(
        "kind" in record and "seq" in record for record in records)


def summarize_file(path: str) -> str:
    """Dispatch on file shape: sweep summary / phase profile JSON vs
    event-log / trace JSONL vs Prometheus text."""
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    if text.lstrip().startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict):
            kind = document.get("kind")
            if kind == "repro-sweep-summary":
                return summarize_sweep(document)
            if kind == "repro-phase-profile":
                return summarize_profile(document)
        import io
        try:
            records = read_trace_jsonl(io.StringIO(text))
        except json.JSONDecodeError:
            if not isinstance(document, dict):
                raise
            # One well-formed document of a kind with no summary here
            # (a campaign report, a bench payload): say that, not
            # where the JSONL reader tripped over it.
            label = document.get("kind") or document.get("schema")
            raise ValueError(
                f"no summary for a {label!r} document (repro obs reads "
                f"traces, metrics, event logs, repro-sweep-summary and "
                f"repro-phase-profile)") from None
        if _looks_like_event_log(records):
            return summarize_events(records)
        return summarize_trace(records)
    return summarize_metrics(text)

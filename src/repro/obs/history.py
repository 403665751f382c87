"""Run-history aggregation: the ``repro report`` subcommand's engine.

Every harness run leaves a self-describing artifact behind — committed
``BENCH_*.json`` performance snapshots, per-sweep ``summary.json``
files, crash-campaign reports, telemetry event logs. This module walks
those artifacts and folds them into one trajectory report:

* :func:`collect_bench_history` — every bench payload in a results
  directory, in filename (timestamp) order, baseline first.
* :func:`bench_trajectory` — per-bench first/last/best ops/s across
  that history, with the last run's delta against its predecessor
  (the ``repro bench --history`` table).
* :func:`collect_sweep_summaries` / :func:`collect_crashtest_reports` /
  :func:`collect_event_logs` — recursive artifact discovery by payload
  ``kind`` (file names don't matter, content does).
* :func:`build_report` — the combined ``repro-history-report`` JSON.
* :func:`render_markdown` — the same report as a human-readable
  markdown document.

Imports of the bench machinery are function-local: the bench harness
pulls in the full database stack, which itself imports ``repro.obs``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .export import error_headline

__all__ = ["collect_bench_history", "bench_trajectory",
           "collect_sweep_summaries", "collect_crashtest_reports",
           "collect_event_logs", "build_report", "render_markdown",
           "REPORT_KIND"]

REPORT_KIND = "repro-history-report"

#: Default locations scanned for sweep/campaign/event-log artifacts.
DEFAULT_SCAN_DIRS = ("artifacts",)

#: Default bench results directory (committed trajectory).
DEFAULT_BENCH_DIR = os.path.join("benchmarks", "results")

#: Where copies of the ``benchmarks/ladder`` payloads are committed,
#: under the bench results directory.
LADDER_SUBDIR = "ladder"

#: The crash-campaign report kinds — one schema, two workloads.
CRASHTEST_KINDS = ("repro-crashtest-report",
                   "repro-twopc-crashtest-report")


# ----------------------------------------------------------------------
# Bench trajectory
# ----------------------------------------------------------------------

def _bench_names(directory: str) -> List[str]:
    try:
        return sorted(
            name for name in os.listdir(directory)
            if name.startswith("BENCH_") and name.endswith(".json"))
    except OSError:
        return []


def collect_bench_history(results_dir: str = DEFAULT_BENCH_DIR
                          ) -> List[Dict[str, Any]]:
    """Every valid ``BENCH_*.json`` in ``results_dir``, oldest first
    (the committed ``BENCH_baseline.json`` leads), then the
    ``ladder-bench`` payloads of ``results_dir/ladder/`` — one series
    per workload, ``ladder/<workload>``, whose ops/s is the end-to-end
    ``txn_per_s``. Invalid payloads are reported, not silently
    skipped."""
    from ..bench.report import load_payload
    names = _bench_names(results_dir)
    # Timestamped names sort chronologically; the baseline predates all.
    names.sort(key=lambda name: (name != "BENCH_baseline.json", name))
    names += [os.path.join(LADDER_SUBDIR, name) for name
              in _bench_names(os.path.join(results_dir, LADDER_SUBDIR))]
    history = []
    for name in names:
        path = os.path.join(results_dir, name)
        entry: Dict[str, Any] = {"path": path, "name": name}
        try:
            if name.startswith(LADDER_SUBDIR + os.sep):
                entry.update(_ladder_entry(path))
            else:
                payload = load_payload(path)
                entry["created_utc"] = payload.get("created_utc")
                entry["quick"] = payload.get("quick")
                entry["results"] = {
                    result["name"]: {
                        "ops_per_s": result.get("ops_per_s"),
                        "sim_time_ns": result.get("sim_time_ns"),
                    }
                    for result in payload.get("results", [])
                    if isinstance(result, dict) and "name" in result}
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            entry["error"] = str(exc)
        history.append(entry)
    return history


def _ladder_entry(path: str) -> Dict[str, Any]:
    """Digest one ``benchmarks/ladder`` payload (``kind:
    "ladder-bench"``) into the bench-history entry shape."""
    payload = _load_json_kind(path)
    if not payload or payload.get("kind") != "ladder-bench":
        raise ValueError(f"{path}: not a ladder-bench payload")
    return {"quick": payload.get("smoke"), "results": {
        f"{LADDER_SUBDIR}/{workload}": {
            "ops_per_s": body.get("end_to_end", {})
                             .get("txn_per_s", {}).get("value")}
        for workload, body in payload.get("workloads", {}).items()}}


def bench_trajectory(history: Sequence[Dict[str, Any]]
                     ) -> Tuple[List[str], List[List[Any]]]:
    """Fold a bench history into one row per bench: run count,
    first/last/best ops/s, and the last run's move against the run
    before it (``(headers, rows)``, table-ready)."""
    series: Dict[str, List[float]] = {}
    order: List[str] = []
    for entry in history:
        for name, result in (entry.get("results") or {}).items():
            ops = result.get("ops_per_s")
            if not isinstance(ops, (int, float)):
                continue
            if name not in series:
                series[name] = []
                order.append(name)
            series[name].append(float(ops))
    headers = ["bench", "runs", "first ops/s", "last ops/s",
               "best ops/s", "last delta"]
    rows: List[List[Any]] = []
    for name in order:
        values = series[name]
        if len(values) >= 2 and values[-2]:
            delta = f"{(values[-1] / values[-2] - 1.0) * 100:+.1f}%"
        else:
            delta = "-"
        rows.append([name, len(values), round(values[0], 1),
                     round(values[-1], 1), round(max(values), 1),
                     delta])
    return headers, rows


# ----------------------------------------------------------------------
# Artifact discovery (by content, not by name)
# ----------------------------------------------------------------------

def _walk_files(roots: Sequence[str], suffix: str) -> List[str]:
    paths: List[str] = []
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(suffix):
                paths.append(root)
            continue
        for directory, __, names in os.walk(root):
            paths.extend(os.path.join(directory, name)
                         for name in sorted(names)
                         if name.endswith(suffix))
    return sorted(set(paths))


def _load_json_kind(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return document if isinstance(document, dict) else None


def collect_sweep_summaries(roots: Sequence[str] = DEFAULT_SCAN_DIRS
                            ) -> List[Dict[str, Any]]:
    """Every ``repro-sweep-summary`` JSON under ``roots``, digested to
    point/failure/retry counts plus the failed points' error headlines."""
    summaries = []
    for path in _walk_files(roots, ".json"):
        document = _load_json_kind(path)
        if not document or \
                document.get("kind") != "repro-sweep-summary":
            continue
        points = document.get("points", [])
        failed = [point for point in points if not point.get("ok")]
        summaries.append({
            "path": path,
            "points": len(points),
            "failed": len(failed),
            "retries": sum(max(0, point.get("attempts", 1) - 1)
                           for point in points),
            "host_seconds": round(sum(point.get("host_seconds", 0.0)
                                      for point in points), 3),
            "errors": [error_headline(point.get("error"))
                       for point in failed],
        })
    return summaries


def collect_crashtest_reports(roots: Sequence[str] = DEFAULT_SCAN_DIRS
                              ) -> List[Dict[str, Any]]:
    """Every crash-campaign report (storage or 2PC: one schema) under
    ``roots``, digested to outcome counts (violations and failures stay
    verbatim — they are the campaign's entire point)."""
    reports = []
    for path in _walk_files(roots, ".json"):
        document = _load_json_kind(path)
        if not document or document.get("kind") not in CRASHTEST_KINDS:
            continue
        reports.append({
            "path": path,
            "kind": document["kind"],
            "ok": document.get("ok"),
            "engines": document.get("engines", []),
            "coordinates": len(document.get("coordinates", [])),
            "violations": document.get("violations", []),
            "failures": [error_headline(failure)
                         for failure in document.get("failures", [])],
            "uncovered": document.get("uncovered", {}),
        })
    return reports


def collect_event_logs(roots: Sequence[str] = DEFAULT_SCAN_DIRS
                       ) -> List[Dict[str, Any]]:
    """Every telemetry event log (JSONL of ``kind``/``seq`` records)
    under ``roots``, digested to event counts and the closing bus
    accounting."""
    logs = []
    for path in _walk_files(roots, ".jsonl"):
        kinds: Dict[str, int] = {}
        closing: Dict[str, Any] = {}
        valid = False
        try:
            with open(path, "r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if not isinstance(record, dict) \
                            or "kind" not in record \
                            or "seq" not in record:
                        valid = False
                        break
                    valid = True
                    kind = record["kind"]
                    kinds[kind] = kinds.get(kind, 0) + 1
                    if kind == "log_closed":
                        closing = record.get("data", {})
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if not valid:
            continue
        logs.append({
            "path": path,
            "events": sum(kinds.values()),
            "kinds": dict(sorted(kinds.items())),
            "accounting": closing,
        })
    return logs


# ----------------------------------------------------------------------
# The combined report
# ----------------------------------------------------------------------

def build_report(bench_dir: str = DEFAULT_BENCH_DIR,
                 scan_dirs: Sequence[str] = DEFAULT_SCAN_DIRS
                 ) -> Dict[str, Any]:
    """Aggregate everything on disk into one ``repro-history-report``
    payload (JSON-ready)."""
    history = collect_bench_history(bench_dir)
    headers, rows = bench_trajectory(history)
    return {
        "kind": REPORT_KIND,
        "bench": {
            "results_dir": bench_dir,
            "runs": [{key: entry[key] for key in
                      ("name", "created_utc", "quick", "error")
                      if key in entry}
                     for entry in history],
            "trajectory": {"headers": headers, "rows": rows},
        },
        "sweeps": collect_sweep_summaries(scan_dirs),
        "campaigns": collect_crashtest_reports(scan_dirs),
        "event_logs": collect_event_logs(scan_dirs),
    }


def render_markdown(report: Dict[str, Any]) -> str:
    """The history report as a markdown document."""
    lines: List[str] = ["# Run history", ""]

    bench = report.get("bench", {})
    runs = bench.get("runs", [])
    lines.append(f"## Bench trajectory ({len(runs)} runs in "
                 f"`{bench.get('results_dir', '?')}`)")
    lines.append("")
    trajectory = bench.get("trajectory", {})
    rows = trajectory.get("rows", [])
    if rows:
        headers = trajectory.get("headers", [])
        lines.append("| " + " | ".join(str(h) for h in headers) + " |")
        lines.append("|" + "---|" * len(headers))
        for row in rows:
            lines.append("| " + " | ".join(str(cell) for cell in row)
                         + " |")
    else:
        lines.append("No committed bench results found.")
    bad_runs = [run for run in runs if run.get("error")]
    for run in bad_runs:
        lines.append(f"- invalid payload `{run['name']}`: "
                     f"{run['error']}")
    lines.append("")

    sweeps = report.get("sweeps", [])
    lines.append(f"## Sweeps ({len(sweeps)} summaries)")
    lines.append("")
    for sweep in sweeps:
        status = "ok" if not sweep["failed"] \
            else f"{sweep['failed']} FAILED"
        lines.append(f"- `{sweep['path']}`: {sweep['points']} points, "
                     f"{status}, {sweep['retries']} retries, "
                     f"{sweep['host_seconds']} host-s")
        for error in sweep.get("errors", []):
            lines.append(f"  - {error}")
    if not sweeps:
        lines.append("No sweep summaries found.")
    lines.append("")

    campaigns = report.get("campaigns", [])
    lines.append(f"## Crash campaigns ({len(campaigns)} reports)")
    lines.append("")
    for campaign in campaigns:
        status = "ok" if campaign.get("ok") else "NOT OK"
        engines = ", ".join(campaign.get("engines", [])) or "?"
        lines.append(f"- `{campaign['path']}`: {engines} — "
                     f"{campaign['coordinates']} coordinates, {status}")
        for violation in campaign.get("violations", []):
            lines.append(f"  - violation: {violation}")
        for failure in campaign.get("failures", []):
            lines.append(f"  - failure: {failure}")
        for engine, points in sorted(
                (campaign.get("uncovered") or {}).items()):
            if points:
                lines.append(f"  - uncovered[{engine}]: "
                             f"{', '.join(points)}")
    if not campaigns:
        lines.append("No campaign reports found.")
    lines.append("")

    logs = report.get("event_logs", [])
    lines.append(f"## Telemetry event logs ({len(logs)})")
    lines.append("")
    for log in logs:
        accounting = log.get("accounting") or {}
        dropped = accounting.get("dropped", 0)
        lines.append(f"- `{log['path']}`: {log['events']} events, "
                     f"{dropped} dropped")
    if not logs:
        lines.append("No event logs found.")
    lines.append("")
    return "\n".join(lines)

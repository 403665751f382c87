"""Run-history aggregation: bench trajectory, artifact discovery."""

import json
import os

from repro.obs.history import (REPORT_KIND, bench_trajectory,
                               build_report, collect_bench_history,
                               collect_crashtest_reports,
                               collect_event_logs,
                               collect_sweep_summaries,
                               render_markdown)


def _bench_payload(ops_by_name, quick=False, created="2026-08-08"):
    return {
        "schema": "repro-bench/1",
        "created_utc": created,
        "quick": quick,
        "results": [
            {"name": name, "kind": "ycsb", "ops": 1000,
             "wall_s": 1.0, "ops_per_s": ops,
             "sim_time_ns": 1e9, "peak_rss_kb": 1024}
            for name, ops in ops_by_name.items()],
    }


def _write(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as stream:
        json.dump(payload, stream)


# ----------------------------------------------------------------------
# Bench trajectory
# ----------------------------------------------------------------------

def test_history_orders_baseline_first_then_by_name(tmp_path):
    results = str(tmp_path)
    _write(os.path.join(results, "BENCH_20260801T000000Z.json"),
           _bench_payload({"ycsb": 200.0}))
    _write(os.path.join(results, "BENCH_baseline.json"),
           _bench_payload({"ycsb": 100.0}))
    _write(os.path.join(results, "BENCH_20260805T000000Z.json"),
           _bench_payload({"ycsb": 300.0}))
    history = collect_bench_history(results)
    assert [entry["name"] for entry in history] == [
        "BENCH_baseline.json",
        "BENCH_20260801T000000Z.json",
        "BENCH_20260805T000000Z.json"]
    assert all("error" not in entry for entry in history)


def test_history_reports_invalid_payloads(tmp_path):
    path = os.path.join(str(tmp_path), "BENCH_bad.json")
    _write(path, {"schema": "repro-bench/1"})  # missing keys
    (entry,) = collect_bench_history(str(tmp_path))
    assert "error" in entry
    assert "results" not in entry


def test_history_missing_directory_is_empty():
    assert collect_bench_history("/nonexistent/nowhere") == []


def test_trajectory_rows_first_last_best_delta(tmp_path):
    results = str(tmp_path)
    _write(os.path.join(results, "BENCH_baseline.json"),
           _bench_payload({"ycsb": 100.0, "tpcc": 50.0}))
    _write(os.path.join(results, "BENCH_2.json"),
           _bench_payload({"ycsb": 400.0}))
    _write(os.path.join(results, "BENCH_3.json"),
           _bench_payload({"ycsb": 200.0}))
    headers, rows = bench_trajectory(collect_bench_history(results))
    assert headers[0] == "bench"
    by_name = {row[0]: row for row in rows}
    assert by_name["ycsb"][1:] == [3, 100.0, 200.0, 400.0, "-50.0%"]
    assert by_name["tpcc"][1:] == [1, 50.0, 50.0, 50.0, "-"]


def test_history_includes_ladder_payloads(tmp_path):
    """`kind: "ladder-bench"` payloads under results/ladder/ join the
    trajectory as one `ladder/<workload>` series each."""
    results = str(tmp_path)
    _write(os.path.join(results, "BENCH_baseline.json"),
           _bench_payload({"ycsb": 100.0}))
    for name, rate in (("BENCH_pr13.json", 5000.0),
                       ("BENCH_pr16.json", 5500.0)):
        _write(os.path.join(results, "ladder", name), {
            "kind": "ladder-bench", "smoke": False, "workloads": {
                "ycsb-inproc": {"end_to_end": {
                    "txn_per_s": {"value": rate, "unit": "1/s"}}}}})
    _write(os.path.join(results, "ladder", "BENCH_bad.json"),
           {"kind": "something-else"})
    history = collect_bench_history(results)
    assert [entry["name"] for entry in history] == [
        "BENCH_baseline.json", "ladder/BENCH_bad.json",
        "ladder/BENCH_pr13.json", "ladder/BENCH_pr16.json"]
    assert "not a ladder-bench payload" in history[1]["error"]
    __, rows = bench_trajectory(history)
    by_name = {row[0]: row for row in rows}
    assert by_name["ladder/ycsb-inproc"][1:] == [
        2, 5000.0, 5500.0, 5500.0, "+10.0%"]
    assert by_name["ycsb"][1] == 1


# ----------------------------------------------------------------------
# Artifact discovery by content
# ----------------------------------------------------------------------

def test_sweep_summaries_found_by_kind_not_name(tmp_path):
    root = str(tmp_path)
    _write(os.path.join(root, "deep", "whatever.json"), {
        "kind": "repro-sweep-summary",
        "points": [
            {"ok": True, "attempts": 2, "host_seconds": 1.0},
            {"ok": False, "attempts": 1, "host_seconds": 0.5,
             "error": "Traceback ...\n  ...\nValueError: boom\n"},
        ],
    })
    _write(os.path.join(root, "unrelated.json"), {"kind": "other"})
    (summary,) = collect_sweep_summaries([root])
    assert summary["points"] == 2
    assert summary["failed"] == 1
    assert summary["retries"] == 1
    assert summary["host_seconds"] == 1.5
    assert summary["errors"] == ["ValueError: boom"]


def test_crashtest_reports_collected(tmp_path):
    root = str(tmp_path)
    _write(os.path.join(root, "campaign.json"), {
        "kind": "repro-crashtest-report", "ok": False,
        "engines": ["inp"], "coordinates": [[0, 1], [1, 2]],
        "violations": ["lost committed txn 7"],
        "failures": ["Traceback ...\nRuntimeError: died\n"],
        "uncovered": {"inp": ["wal:5"]},
    })
    (report,) = collect_crashtest_reports([root])
    assert report["ok"] is False
    assert report["coordinates"] == 2
    assert report["violations"] == ["lost committed txn 7"]
    assert report["failures"] == ["RuntimeError: died"]


def test_twopc_crashtest_reports_collected_by_the_same_digest(tmp_path):
    """The 2PC campaign writes the storage campaign's schema, so a real
    report goes through the same parser."""
    from repro.dist.campaign import run_twopc_campaign

    root = str(tmp_path)
    _write(os.path.join(root, "twopc.json"),
           run_twopc_campaign(["nvm-inp"], ops=8,
                              max_hits_per_point=1).to_dict())
    (report,) = collect_crashtest_reports([root])
    assert report["kind"] == "repro-twopc-crashtest-report"
    assert report["ok"] is True
    assert report["engines"] == ["nvm-inp"]
    assert report["coordinates"] == 3
    assert report["violations"] == [] and report["failures"] == []


def test_event_logs_digested_and_non_logs_rejected(tmp_path):
    root = str(tmp_path)
    log_path = os.path.join(root, "events.jsonl")
    os.makedirs(root, exist_ok=True)
    with open(log_path, "w") as stream:
        for seq, kind in enumerate(
                ["sweep_started", "heartbeat", "heartbeat",
                 "sweep_finished"]):
            stream.write(json.dumps(
                {"kind": kind, "seq": seq, "source": "s",
                 "data": {}}) + "\n")
        stream.write(json.dumps(
            {"kind": "log_closed", "seq": 4, "source": "log",
             "data": {"published": 4, "dropped": 1,
                      "lines": 4}}) + "\n")
    with open(os.path.join(root, "trace.jsonl"), "w") as stream:
        stream.write(json.dumps({"op": "read", "key": 1}) + "\n")
    (log,) = collect_event_logs([root])
    assert log["events"] == 5
    assert log["kinds"]["heartbeat"] == 2
    assert log["accounting"]["dropped"] == 1


# ----------------------------------------------------------------------
# Combined report
# ----------------------------------------------------------------------

def test_build_report_and_render_markdown(tmp_path):
    bench_dir = os.path.join(str(tmp_path), "results")
    _write(os.path.join(bench_dir, "BENCH_baseline.json"),
           _bench_payload({"ycsb": 100.0}))
    _write(os.path.join(bench_dir, "BENCH_2.json"),
           _bench_payload({"ycsb": 150.0}))
    scan = os.path.join(str(tmp_path), "artifacts")
    _write(os.path.join(scan, "summary.json"), {
        "kind": "repro-sweep-summary",
        "points": [{"ok": True, "attempts": 1, "host_seconds": 2.0}],
    })
    report = build_report(bench_dir=bench_dir, scan_dirs=[scan])
    assert report["kind"] == REPORT_KIND
    assert len(report["bench"]["runs"]) == 2
    assert len(report["sweeps"]) == 1
    markdown = render_markdown(report)
    assert "## Bench trajectory (2 runs" in markdown
    assert "| ycsb | 2 | 100.0 | 150.0 | 150.0 | +50.0% |" in markdown
    assert "## Sweeps (1 summaries)" in markdown
    assert "No campaign reports found." in markdown


def test_render_markdown_empty_report():
    markdown = render_markdown(build_report(
        bench_dir="/nonexistent", scan_dirs=["/nonexistent"]))
    assert "No committed bench results found." in markdown
    assert "No event logs found." in markdown

"""Tests for the command-line interface."""

import json
import os
import pathlib
import socket
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main


def test_engines_command(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    for engine in ("inp", "cow", "log", "nvm-inp", "nvm-cow",
                   "nvm-log", "hybrid-inp"):
        assert engine in out


def test_ycsb_command(capsys):
    assert main(["ycsb", "--engine", "nvm-inp", "--mixture",
                 "balanced", "--tuples", "150", "--txns", "150"]) == 0
    out = capsys.readouterr().out
    assert "nvm-inp" in out
    assert "txn/s" in out


def test_ycsb_all_engines(capsys):
    assert main(["ycsb", "--all-engines", "--mixture", "read-only",
                 "--tuples", "120", "--txns", "120"]) == 0
    out = capsys.readouterr().out
    assert "cow" in out and "nvm-log" in out


def test_tpcc_command(capsys):
    assert main(["tpcc", "--engine", "inp", "--txns", "20"]) == 0
    out = capsys.readouterr().out
    assert "TPC-C" in out


@pytest.mark.parametrize("command", [
    ["ycsb", "--tuples", "100", "--txns", "100"],
    ["tpcc", "--txns", "20"]])
def test_hybrid_engine_runs_from_the_cli(command, capsys):
    """``repro engines`` lists hybrid-inp, so the workload commands
    must size its DRAM tier themselves (once a ConfigError
    traceback)."""
    assert main(command + ["--engine", "hybrid-inp"]) == 0
    out = capsys.readouterr().out
    assert "hybrid-inp" in out and "txn/s" in out


def test_figure_one(capsys):
    assert main(["figure", "1"]) == 0
    out = capsys.readouterr().out
    assert "durable write bandwidth" in out


def test_unknown_figure(capsys):
    assert main(["figure", "99"]) == 2


def test_bad_engine_rejected():
    with pytest.raises(SystemExit):
        main(["ycsb", "--engine", "no-such-engine"])


def test_ycsb_trace_and_metrics_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    metrics_path = tmp_path / "out.prom"
    assert main(["ycsb", "--engine", "log", "--tuples", "150",
                 "--txns", "150",
                 "--trace", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "p50 (us)" in out and "p99 (us)" in out

    records = [json.loads(line)
               for line in trace_path.read_text().splitlines()]
    spans = [r for r in records if r["type"] == "span"]
    samples = [r for r in records if r["type"] == "sample"]
    components = {span["component"] for span in spans}
    assert "wal" in components
    assert "recovery" in components  # from the post-run crash cycle
    assert len(samples) >= 2
    assert all("t_ms" in sample for sample in samples)
    assert all(span["engine"] == "log" for span in spans)

    metrics_text = metrics_path.read_text()
    assert "# TYPE repro_txn_latency_ns histogram" in metrics_text
    for quantile in ('quantile="0.5"', 'quantile="0.95"',
                     'quantile="0.99"'):
        assert quantile in metrics_text
    assert "repro_txns_committed" in metrics_text

    # The obs subcommand summarizes both artifact shapes.
    assert main(["obs", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "spans" in out and "Time series" in out
    assert main(["obs", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "repro_txn_latency_ns" in out


def test_obs_command_missing_file(tmp_path, capsys):
    assert main(["obs", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot summarize" in capsys.readouterr().err


def test_ycsb_without_obs_flags_has_no_latency_columns(capsys):
    assert main(["ycsb", "--engine", "nvm-inp", "--tuples", "120",
                 "--txns", "120"]) == 0
    assert "p50 (us)" not in capsys.readouterr().out


def test_check_command_single_engine(capsys):
    assert main(["check", "--engines", "nvm-cow", "--tuples", "80",
                 "--txns", "100"]) == 0
    out = capsys.readouterr().out
    assert "Persistence-ordering check" in out
    assert "nvm-cow" in out and "ok" in out


def test_check_command_json_report(tmp_path, capsys):
    report_path = tmp_path / "check.json"
    assert main(["check", "--engines", "nvm-log", "--tuples", "80",
                 "--txns", "100", "--json", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["ok"] is True
    assert "ORD001" in payload["rules"]
    assert payload["engines"][0]["engine"] == "nvm-log"
    assert payload["engines"][0]["ok"] is True


def test_check_command_unknown_engine(capsys):
    assert main(["check", "--engines", "bogus"]) == 2
    assert "unknown engines" in capsys.readouterr().err


def test_lint_command_clean_tree(capsys):
    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_command_rule_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for code in ("LNT001", "LNT002", "LNT003", "LNT004", "LNT005"):
        assert code in out


def test_lint_command_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad_engine.py"
    bad.write_text(
        "def commit(self):\n"
        "    self.memory.clflush(addr, size)\n")
    assert main(["lint", str(bad), "--select", "LNT001"]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out and "1 finding(s)" in out


def test_lint_command_json_output(tmp_path, capsys):
    bad = tmp_path / "bad_engine.py"
    bad.write_text(
        "class _Holder:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n")
    assert main(["lint", str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "LNT005"


def test_lint_command_unknown_select(capsys):
    assert main(["lint", "--select", "LNT999"]) == 2
    assert "unknown rule codes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lint", "analyze"])
@pytest.mark.parametrize("select", [", ,", ","])
def test_rule_commands_reject_a_select_that_names_no_code(
        command, select, tmp_path, capsys):
    """Once: zero rules ran, ``0 finding(s)``, exit 0."""
    clean = tmp_path / "clean.py"
    clean.write_text("def noop():\n    pass\n")
    assert main([command, str(clean), "--select", select]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command} failed: no rule codes in --select\n"


#: One LNT005 and one SDA001 finding, so each command must really
#: read the module to pass.
_ONE_FINDING_EACH = (
    "class _Holder:\n"
    "    def __init__(self):\n"
    "        self.name = 'caf\xe9'\n"
    "def commit(memory):\n"
    "    memory.store_u64(0, 1)\n"
    "    memory.atomic_durable_store_u64(8, 2)\n")


@pytest.mark.parametrize("command", ["lint", "analyze"])
@pytest.mark.parametrize("header, encoding", [
    ("# -*- coding: latin-1 -*-\n", "latin-1"),
    ("\ufeff", "utf-8"),
], ids=["pep263-cookie", "utf8-bom"])
def test_rule_commands_read_files_as_the_interpreter_does(
        command, header, encoding, tmp_path, capsys):
    """Once: ``'utf-8' codec can't decode`` / ``invalid non-printable
    character U+FEFF`` for modules Python imports fine (and ``analyze``
    silently skipped the BOM file)."""
    module = tmp_path / "module.py"
    module.write_bytes((header + _ONE_FINDING_EACH).encode(encoding))
    assert main([command, str(module)]) == 1
    assert capsys.readouterr().out.endswith("1 finding(s)\n")


@pytest.mark.parametrize("argv", [["lint"], ["analyze", "--gate"]])
def test_rule_commands_fail_on_a_file_that_does_not_parse(
        argv, tmp_path, capsys):
    """Once ``analyze --gate`` skipped it: ``0 finding(s)``, exit 0."""
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main(argv + [str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]} failed: {broken}: ")


def test_engines_command_loads_no_rule_module():
    """The parser is built for every command, `repro serve` included;
    the rule families must load only when `lint`/`analyze` runs. And
    `import repro` (every ladder, served and executor child pays it)
    loads none of the sweep telemetry modules."""
    probe = ("import sys\n"
             "import repro\n"
             "telemetry = ('repro.obs.bus', 'repro.obs.live',\n"
             "             'repro.obs.profiler', 'repro.obs.history')\n"
             "print(sorted(m for m in sys.modules if m in telemetry))\n"
             "from repro.__main__ import main\n"
             "main(['engines'])\n"
             "rules = ('repro.lint', 'repro.analysis.static')\n"
             "print(sorted(m for m in sys.modules if m.startswith(rules)))")
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(repro.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[0] == "[]"
    assert result.stdout.splitlines()[-1] == "[]"


def test_chaos_command_fault_free_json_report(tmp_path, capsys):
    report_path = tmp_path / "chaos.json"
    assert main(["chaos", "--clients", "2", "--txns", "4",
                 "--keys", "8", "--seed", "3", "--crash-cycles", "0",
                 "--fault-scale", "0.0",
                 "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "invariants: all held" in out
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "repro-chaos-report"
    assert payload["ok"] is True
    assert payload["committed"] == 8


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--max-inflight", "0"], "max_inflight must be >= 1"),
    (["--port", "busy"], "address already in use"),
])
def test_serve_command_errors_are_one_line_and_exit_two(
        flags, message, capsys):
    """Bad option values and an unbindable address are reported like
    every other command's argument and I/O errors (once tracebacks)."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        flags = [str(taken.getsockname()[1]) if flag == "busy" else flag
                 for flag in flags]
        assert main(["serve"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro serve: ") and message in line


@pytest.mark.parametrize("argv, message", [
    (["ycsb", "--engine", "nvm-inp", "--txns", "-5"],
     "repro ycsb: num_txns and num_tuples must be >= 1"),
    (["tpcc", "--engine", "inp", "--partitions", "0"],
     "repro tpcc: need at least one partition"),
    (["tpcc", "--engine", "inp", "--remote-pct", "150"],
     "repro tpcc: remote_order_fraction must be in [0, 1]"),
])
def test_workload_input_errors_are_one_line_and_exit_two(
        argv, message, capsys):
    """A bad workload option is answered the way ``repro serve``
    answers one (once a ConfigError / WorkloadError traceback)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_crashtest_rejects_an_empty_script(capsys):
    """With ``--ops 0`` the planned crash coordinate fired inside the
    oracle's own read-only commit (once a SimulatedCrash traceback)."""
    with pytest.raises(SystemExit) as excinfo:
        main(["crashtest", "--engines", "nvm-inp", "--ops", "0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        "repro crashtest: error: argument --ops: must be >= 1, got 0"


@pytest.mark.parametrize("command, flag, value, complaint", [
    ("serve", "--port", "99999", "must be in 0..65535, got 99999"),
    ("serve", "--port", "-1", "must be in 0..65535, got -1"),
    ("chaos", "--clients", "0", "must be >= 1, got 0"),
    ("chaos", "--txns", "0", "must be >= 1, got 0"),
])
def test_serve_and_chaos_reject_out_of_range_counts(
        command, flag, value, complaint, capsys):
    """An unbindable port number was an OverflowError traceback out of
    ``bind``; an empty chaos campaign ran no transaction, checked no
    key and printed ``invariants: all held``."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        f"repro {command}: error: argument {flag}: {complaint}"


def test_crashtest_command_hybrid_engine(capsys):
    """The storage campaign's harsh configuration carries a DRAM tier
    for the hybrid engine (once a ConfigError traceback) and crashes it
    mid-operation, not only during recovery."""
    assert main(["crashtest", "--engines", "hybrid-inp", "--ops", "24",
                 "--max-hits", "1"]) == 0
    out = capsys.readouterr().out
    assert "Crash campaign, seed 7" in out
    assert "wal.fsync.before" in out and "recovery.end" in out
    assert "UNCOVERED" not in out and "VIOLATED" not in out


def test_crashtest_twopc_command_json_report(tmp_path, capsys):
    """`--twopc` is the same command body and the same sweep: it
    honours --jobs/--events, and its report has the storage campaign's
    schema."""
    report_path = tmp_path / "twopc.json"
    events_path = tmp_path / "events.jsonl"
    assert main(["crashtest", "--twopc", "--engines", "nvm-inp",
                 "--ops", "16", "--jobs", "2",
                 "--events", str(events_path),
                 "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "2PC crash campaign, seed 7" in out
    assert f"report -> {report_path}" in out
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "repro-twopc-crashtest-report"
    assert payload["ok"] is True and payload["failures"] == []
    assert len(payload["coordinates"]) >= 3
    for coordinate in payload["coordinates"]:
        assert set(coordinate) == {"spec", "ok", "error", "attempts",
                                   "result"}
        assert coordinate["spec"]["kind"] == "twopc-crashtest"
        assert coordinate["result"]["ops_applied"] >= 1
        assert coordinate["result"]["fired"]
    # Two coordinates in flight at once: the sweep really fanned out.
    in_flight = peak = 0
    for line in events_path.read_text().splitlines():
        kind = json.loads(line)["kind"]
        in_flight += {"point_started": 1, "point_finished": -1}.get(
            kind, 0)
        peak = max(peak, in_flight)
    assert peak >= 2, "coordinates did not fan out"


def test_crashtest_json_write_failure_returns_two(tmp_path, capsys):
    assert main(["crashtest", "--twopc", "--engines", "nvm-inp",
                 "--ops", "8", "--max-hits", "1",
                 "--json", str(tmp_path / "missing" / "r.json")]) == 2
    assert "cannot write" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro bench: the sim-fingerprint gate
# ----------------------------------------------------------------------

_COMMITTED_BASELINE = (pathlib.Path(__file__).resolve().parents[1]
                       / "benchmarks" / "results" / "BENCH_baseline.json")
_ONE_BENCH = ["--only", "micro/load_single"]


def _install_baseline(root, perturb=None):
    """Copy the committed baseline to where ``repro bench`` looks for
    it under ``root``; ``perturb`` names a bench whose ``sim_time_ns``
    is moved by one."""
    payload = json.loads(_COMMITTED_BASELINE.read_text())
    for result in payload["results"]:
        if perturb and perturb in result["name"]:
            result["sim_time_ns"] += 1
    target = root / "benchmarks" / "results" / "BENCH_baseline.json"
    target.parent.mkdir(parents=True)
    target.write_text(json.dumps(payload))


def _listing(root):
    return sorted(str(path.relative_to(root))
                  for path in root.rglob("*"))


def test_bench_gate_fails_every_time_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    """A divergence from the committed baseline fails on every run: a
    run never becomes the next run's baseline, and without ``--out``
    it leaves no file behind (once: exit 1, then exit 0 against the
    first run's own payload)."""
    _install_baseline(tmp_path, perturb="micro/load_single")
    monkeypatch.chdir(tmp_path)
    before = _listing(tmp_path)
    for __ in range(2):
        assert main(["bench", "--quick", "--gate"] + _ONE_BENCH) == 1
        captured = capsys.readouterr()
        assert "vs baseline BENCH_baseline.json" in captured.out
        assert "sim-divergence: micro/load_single_line" in captured.err
        assert _listing(tmp_path) == before


def test_bench_gate_without_a_baseline_exits_two(
        tmp_path, monkeypatch, capsys):
    """Nothing to compare against is not a pass (once: "skipping
    comparison", exit 0)."""
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--quick", "--gate", "--out", "out"]
                + _ONE_BENCH) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "cannot load baseline" in line
    assert "BENCH_baseline.json" in line
    (written,) = (tmp_path / "out").iterdir()
    assert written.name.startswith("BENCH_")


def test_bench_gate_says_when_nothing_was_comparable(
        tmp_path, monkeypatch, capsys):
    """A full-size run against the quick baseline checks nothing, and
    says so (once: ``ok``, exit 0)."""
    _install_baseline(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--gate"] + _ONE_BENCH) == 2
    captured = capsys.readouterr()
    (row,) = [line for line in captured.out.splitlines()
              if line.startswith("micro/load_single_line")
              and "configuration differs" in line]
    assert "incomparable" in row and " ok " not in row
    assert "nothing compared" in captured.err
    # Without --gate the same run only reports.
    assert main(["bench"] + _ONE_BENCH) == 0


def test_bench_gate_passes_against_the_committed_baseline(
        tmp_path, monkeypatch, capsys):
    _install_baseline(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--quick", "--gate"] + _ONE_BENCH) == 0
    captured = capsys.readouterr()
    assert "fingerprint equal" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("flag", ["--threshold", "--repeats"])
def test_bench_has_no_wall_clock_options(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--quick", flag, "1"] + _ONE_BENCH)
    assert exit_info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert flag not in capsys.readouterr().out


def test_bench_history_with_and_without_out(tmp_path, monkeypatch,
                                            capsys):
    _install_baseline(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--history"]) == 0
    assert "1 runs in benchmarks/results" in capsys.readouterr().out
    assert main(["bench", "--quick", "--out", "out"] + _ONE_BENCH) == 0
    capsys.readouterr()
    assert main(["bench", "--history", "--out", "out"]) == 0
    assert "1 runs in out" in capsys.readouterr().out
    assert main(["bench", "--history", "--out", "nowhere"]) == 2


# ----------------------------------------------------------------------
# repro obs: documents it has no summary for
# ----------------------------------------------------------------------

@pytest.mark.parametrize("document, label", [
    ({"kind": "repro-crashtest-report", "ok": True}, "kind"),
    ({"kind": "repro-chaos-report", "ok": True}, "kind"),
    ({"kind": "repro-history-report", "bench": {}}, "kind"),
    ({"kind": "ladder-bench", "results": []}, "kind"),
    ({"schema": "repro-bench/1", "results": []}, "schema"),
])
def test_obs_command_names_the_document_it_cannot_summarize(
        document, label, tmp_path, capsys):
    """Every report this repo writes is one indented JSON object; the
    JSONL reader's "Expecting property name ... line 1 column 2" said
    nothing about what was wrong."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    assert main(["obs", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot summarize {path}: no summary for "
                           f"a '{document[label]}' document")
    assert "repro obs reads traces, metrics, event logs" in line


@pytest.mark.parametrize("record, expected", [
    ({"type": "span", "name": "wal.fsync", "component": "wal",
      "start_ns": 0.0, "end_ns": 5.0, "dur_ns": 5.0, "depth": 0,
      "engine": "log"}, "Trace: 1 spans"),
    ({"kind": "heartbeat", "seq": 1, "source": "p0", "t_wall": 0.5,
      "data": {}}, "Event log: 1 events"),
])
def test_obs_command_still_reads_one_record_files(
        record, expected, tmp_path, capsys):
    """One JSON object on one line is a document *and* JSONL."""
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert main(["obs", str(path)]) == 0
    assert expected in capsys.readouterr().out

"""Command-line interface: run workloads and regenerate paper figures.

Examples::

    python -m repro engines
    python -m repro ycsb --engine nvm-inp --mixture write-heavy
    python -m repro ycsb --all-engines --mixture balanced --skew high
    python -m repro ycsb --all-engines --trace out.jsonl --metrics out.prom
    python -m repro tpcc --engine nvm-cow --txns 500
    python -m repro figure 1
    python -m repro figure 12 --workload tpcc
    python -m repro obs out.jsonl
    python -m repro crashtest --engines inp,nvm-cow --seed 7
    python -m repro check --engines all
    python -m repro lint
    python -m repro analyze --gate
    python -m repro serve --engine nvm-inp --port 7333
    python -m repro chaos --clients 4 --crash-cycles 2
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from .analysis.tables import format_table
from .config import LatencyProfile
from .engines.base import ENGINE_NAMES, engine_names
from .errors import ConfigError, WorkloadError
from .harness.experiments import (FULL_SCALE, QUICK_SCALE,
                                  fig1_interfaces, recovery_latency,
                                  storage_footprint, tpcc_throughput,
                                  ycsb_throughput)
from .harness.runner import ExperimentSpec
from .harness.scheduler import merged_session, run_sweep
from .workloads.ycsb import MIXTURES, SKEWS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--latency", default="dram",
                        choices=("dram", "low-nvm", "high-nvm"),
                        help="NVM latency profile (Section 5.2)")
    parser.add_argument("--full", action="store_true",
                        help="use the larger FULL scale")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run sweep points across N worker "
                             "processes (1 = serial in-process); "
                             "results are merged in spec order, so the "
                             "output is identical to a serial run")


def _add_sharded_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--partitions", type=int, default=1, metavar="N",
        help="data partitions (one executor process each with "
             "--sharded)")
    parser.add_argument(
        "--sharded", action="store_true",
        help="execute on the shared-nothing tier: one executor "
             "process per partition (see docs/scaleout.md); simulated "
             "results are identical, wall-clock time scales with "
             "real cores")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record engine spans + counter samples to a JSONL trace; "
             "the run ends with a crash/recover cycle (outside the "
             "measurement window) so recovery phases are traced")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write Prometheus-style metrics (incl. per-txn latency "
             "histogram) to FILE")


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live", action="store_true",
        help="stream live progress to stderr while the run executes "
             "(in-place status line on a TTY, plain log lines "
             "otherwise): points done, ETA, per-engine txn/s, "
             "retry/crash counters")
    parser.add_argument(
        "--events", metavar="FILE", default=None,
        help="persist the full telemetry event stream (point "
             "lifecycle, phase transitions, heartbeats) as JSONL; "
             "inspect it later with `repro obs FILE`")
    parser.add_argument(
        "--phases", metavar="FILE", default=None,
        help="write the merged phase profile (wall-vs-simulated time "
             "per setup/load/run/checkpoint/recovery phase) as JSON")
    parser.add_argument(
        "--collapsed", metavar="FILE", default=None,
        help="write the merged phase profile as collapsed-stack lines "
             "(flamegraph.pl / speedscope input)")


class _Telemetry:
    """CLI telemetry wiring: one bus feeding an optional live renderer
    and an optional JSONL event log, plus phase-profile artifacts
    merged from the outcomes afterwards."""

    def __init__(self, args) -> None:
        self.live = bool(getattr(args, "live", False))
        self.events_path = getattr(args, "events", None)
        self.phases_path = getattr(args, "phases", None)
        self.collapsed_path = getattr(args, "collapsed", None)
        self.enabled = bool(self.live or self.events_path
                            or self.phases_path or self.collapsed_path)
        self.bus = None
        self._log = None
        self._renderer = None
        if not self.enabled:
            return
        from .obs.bus import EventBus, JsonlEventLog
        from .obs.live import LiveRenderer
        self.bus = EventBus()
        if self.events_path:
            self._log = JsonlEventLog(self.events_path, self.bus)
        if self.live:
            self._renderer = LiveRenderer(self.bus)

    def finish(self, profiles=()) -> int:
        """Close renderer/log and write phase artifacts; returns a
        non-zero status only on artifact write errors."""
        if not self.enabled:
            return 0
        if self._renderer is not None:
            self._renderer.close()
        if self._log is not None:
            self._log.close()
            print(f"events: {self._log.lines} -> {self.events_path}")
        status = 0
        if self.phases_path or self.collapsed_path:
            from .obs.profiler import merge_profiles, write_collapsed
            merged = merge_profiles(profiles)
            if self.phases_path:
                status = _write_json(
                    self.phases_path, merged,
                    f"phases: {len(merged['phases'])} stacks")
            if self.collapsed_path:
                try:
                    lines = write_collapsed(merged, self.collapsed_path)
                    print(f"collapsed stacks: {lines} -> "
                          f"{self.collapsed_path}")
                except OSError as error:
                    print(f"cannot write {self.collapsed_path}: {error}",
                          file=sys.stderr)
                    status = 2
        return status


def _outcome_profiles(outcomes) -> List:
    return [outcome.result.phases for outcome in outcomes
            if outcome.result is not None
            and getattr(outcome.result, "phases", None)]


def _export_obs(args, session) -> int:
    if session is None:
        return 0
    try:
        if args.trace:
            lines = session.export_trace(args.trace)
            print(f"trace: {lines} records -> {args.trace}")
        if args.metrics:
            lines = session.export_metrics(args.metrics)
            print(f"metrics: {lines} series -> {args.metrics}")
    except OSError as error:
        print(f"cannot write observability output: {error}",
              file=sys.stderr)
        return 2
    return 0


def _write_json(path: str, payload, label: str = "report",
                sort_keys: bool = True) -> int:
    """Write one JSON report file and say where it went; returns the
    CLI's I/O-error status (2) when the file cannot be written."""
    import json

    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=sort_keys)
            handle.write("\n")
    except OSError as error:
        print(f"cannot write {path}: {error}", file=sys.stderr)
        return 2
    print(f"{label} -> {path}")
    return 0


def _scale(args) -> object:
    return FULL_SCALE if args.full else QUICK_SCALE


def _cmd_engines(args) -> int:
    rows = []
    for name in engine_names():
        kind = "NVM-aware" if name.startswith("nvm") else (
            "hybrid extension" if name.startswith("hybrid")
            else "traditional")
        rows.append([name, kind])
    print(format_table(["engine", "kind"], rows,
                       title="Registered storage engines"))
    return 0


def _result_row(engine: str, result) -> List:
    row = [engine, result.throughput, result.nvm_loads,
           result.nvm_stores]
    if result.latency_percentiles is not None:
        row.extend([result.latency_percentiles["p50"] / 1e3,
                    result.latency_percentiles["p99"] / 1e3])
    return row


def _result_headers(with_obs: bool) -> List[str]:
    headers = ["engine", "txn/s", "NVM loads", "NVM stores"]
    if with_obs:
        headers.extend(["p50 (us)", "p99 (us)"])
    return headers


def _run_and_report(args, specs, title: str) -> int:
    """Run a spec list through the scheduler (``--jobs``), print the
    merged table (spec order), export observability + telemetry
    artifacts."""
    observe = bool(args.trace or args.metrics)
    artifacts_dir = getattr(args, "artifacts", None)
    telemetry = _Telemetry(args)
    outcomes = None
    try:
        outcomes = run_sweep(specs, jobs=args.jobs, observe=observe,
                             artifacts_dir=artifacts_dir,
                             bus=telemetry.bus)
    finally:
        telemetry_status = telemetry.finish(
            _outcome_profiles(outcomes) if outcomes is not None
            else [])
    # --artifacts implies observation inside run_sweep, so the rows
    # carry latency percentiles even without --trace/--metrics.
    with_obs = observe or artifacts_dir is not None
    rows = [_result_row(outcome.spec.engine, outcome.result)
            for outcome in outcomes if outcome.ok]
    print(format_table(_result_headers(with_obs), rows, title=title))
    failures = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failures:
        print(f"point {outcome.spec.slug()} failed: "
              f"{outcome.error_summary}", file=sys.stderr)
        if outcome.error != outcome.error_summary:
            print(outcome.error, file=sys.stderr)
    status = _export_obs(args, merged_session(outcomes)
                         if observe else None)
    return 1 if failures else (status or telemetry_status)


def _cmd_ycsb(args) -> int:
    scale = _scale(args)
    engines = list(ENGINE_NAMES.ALL) if args.all_engines \
        else [args.engine]
    specs = [
        ExperimentSpec.ycsb(
            engine, args.mixture, args.skew,
            latency=LatencyProfile.parse(args.latency),
            num_tuples=args.tuples or scale.ycsb_tuples,
            num_txns=args.txns or scale.ycsb_txns,
            engine_config=scale.engine_config(),
            cache_bytes=scale.cache_bytes,
            partitions=args.partitions,
            sharded=args.sharded,
            crash_recover=bool(args.trace))
        for engine in engines
    ]
    return _run_and_report(
        args, specs,
        title=f"YCSB {args.mixture}/{args.skew} @ {args.latency}")


def _cmd_tpcc(args) -> int:
    scale = _scale(args)
    engines = list(ENGINE_NAMES.ALL) if args.all_engines \
        else [args.engine]
    tpcc_config = scale.tpcc
    if args.remote_pct:
        tpcc_config = dataclasses.replace(
            tpcc_config, remote_order_fraction=args.remote_pct / 100.0)
    specs = [
        ExperimentSpec.tpcc(
            engine, latency=LatencyProfile.parse(args.latency),
            tpcc_config=tpcc_config,
            num_txns=args.txns or scale.tpcc_txns,
            engine_config=scale.engine_config(),
            cache_bytes=scale.tpcc_cache_bytes,
            partitions=args.partitions,
            sharded=args.sharded,
            crash_recover=bool(args.trace))
        for engine in engines
    ]
    return _run_and_report(args, specs,
                           title=f"TPC-C @ {args.latency}")


def _cmd_crashtest(args) -> int:
    # Imported lazily: the campaign pulls in the full database stack.
    from .fault import campaign

    engines = [name.strip() for name in args.engines.split(",")
               if name.strip()]
    known = engine_names()
    unknown = [name for name in engines if name not in known]
    if not engines or unknown:
        print(f"unknown engines: {', '.join(unknown) or '(none given)'}"
              f"; choose from {', '.join(known)}", file=sys.stderr)
        return 2
    workload = campaign.SingleRow
    if args.twopc:
        # Same kernel, same sweep: pair-writes across two partitions.
        from .dist.campaign import PairWrite
        workload = PairWrite
    telemetry = _Telemetry(args)
    report = None
    try:
        report = campaign.run_crash_campaign(
            engines, seed=args.seed, ops=args.ops, jobs=args.jobs,
            max_hits_per_point=args.max_hits, timeout_s=args.timeout,
            retries=args.retries, artifacts_dir=args.artifacts,
            bus=telemetry.bus, workload=workload)
    finally:
        telemetry.finish(report.profiles if report is not None else [])
    if args.json and _write_json(args.json, report.to_dict()):
        return 2
    print(format_table(
        ["engine", "fault point", "coords", "crashes", "violations",
         "status"],
        report.point_rows(),
        title=f"{workload.title}, seed {args.seed} "
              f"({len(report.outcomes)} coordinates)"))
    for violation in report.violations:
        print(f"oracle violation: {violation}", file=sys.stderr)
    for failure in report.failures:
        print(f"point failed: {failure}", file=sys.stderr)
    for engine, points in sorted(report.uncovered.items()):
        for point in points:
            print(f"uncovered fault point: {engine}/{point}",
                  file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    # Imported lazily: the checker pulls in the full database stack.
    import json

    from .analysis.check import run_check
    from .analysis.ordering import LINT_CODES, ORDERING_RULES

    engines = list(ENGINE_NAMES.ALL) if args.engines == "all" else \
        [name.strip() for name in args.engines.split(",")
         if name.strip()]
    try:
        outcomes = run_check(
            engines, num_tuples=args.tuples, num_txns=args.txns,
            deletes=args.deletes, mixture=args.mixture, skew=args.skew,
            latency=LatencyProfile.parse(args.latency), seed=args.seed)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.json:
        payload = {"ok": all(outcome.ok for outcome in outcomes),
                   "rules": ORDERING_RULES,
                   "engines": [outcome.to_dict()
                               for outcome in outcomes]}
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        elif _write_json(args.json, payload, sort_keys=False):
            return 2
    rows = []
    for outcome in outcomes:
        counts = outcome.counts
        lints = sum(counts.get(code, 0) for code in LINT_CODES)
        violations = sum(counts.values()) - lints
        rows.append([outcome.engine, outcome.events, violations,
                     lints, "ok" if outcome.ok else "FAIL"])
    print(format_table(
        ["engine", "events", "violations", "lints", "status"], rows,
        title=f"Persistence-ordering check, YCSB {args.mixture}/"
              f"{args.skew} seed {args.seed}"))
    failed = False
    for outcome in outcomes:
        for report in outcome.reports:
            for violation in report.violations:
                failed = True
                print(f"{outcome.engine}: {violation}",
                      file=sys.stderr)
    return 1 if failed else 0


def _cmd_rules(args) -> int:
    """``repro lint`` (LNT) and ``repro analyze`` (SDA/ACD): one rule
    engine, one family per command."""
    # Imported lazily: no other command loads a rule module.
    from .analysis.static import DEFAULT_ANALYZE_PATHS, build_project
    from .lint import (ANALYZE, DEFAULT_LINT_PATHS, LINT, baseline_diff,
                       emit_findings, load_baseline, parse_select,
                       print_rule_catalogue, rule_catalogue, run_rules,
                       save_baseline)

    family, default_paths = {
        "lint": (LINT, DEFAULT_LINT_PATHS),
        "analyze": (ANALYZE, DEFAULT_ANALYZE_PATHS)}[args.command]
    if args.rules:
        print_rule_catalogue(f"repro {args.command} rules",
                             rule_catalogue(family))
        return 0
    gate = args.gate and not args.write_baseline
    try:
        violations = run_rules(
            build_project(args.paths or default_paths), family,
            parse_select(args.select))
        baseline = load_baseline(args.baseline) if gate else {}
    except (OSError, ValueError) as error:
        print(f"{args.command} failed: {error}", file=sys.stderr)
        return 2
    if args.write_baseline:
        save_baseline(args.baseline, violations)
        print(f"baseline -> {args.baseline} "
              f"({len(violations)} finding(s))")
        return 0
    if not gate:
        return emit_findings(violations, json_out=args.json)
    fresh, stale = baseline_diff(violations, baseline)
    code = emit_findings(fresh, json_out=args.json)
    for key in stale:
        print(f"stale baseline entry (fixed or moved — shrink "
              f"the baseline): {key}", file=sys.stderr)
    suppressed = len(violations) - len(fresh)
    if suppressed:
        print(f"{suppressed} finding(s) suppressed by "
              f"{args.baseline}")
    return 1 if (code or stale) else 0


def _cmd_bench(args) -> int:
    # Imported lazily: the harness pulls in the full database stack.
    from .bench import (compare_payloads, load_payload, make_payload,
                        run_bench, write_payload)

    if args.history:
        from .obs.history import DEFAULT_BENCH_DIR, bench_trajectory, \
            collect_bench_history
        results_dir = args.out or DEFAULT_BENCH_DIR
        history = collect_bench_history(results_dir)
        if not history:
            print(f"no BENCH_*.json files in {results_dir}",
                  file=sys.stderr)
            return 2
        headers, rows = bench_trajectory(history)
        print(format_table(
            headers, rows,
            title=f"Bench trajectory: {len(history)} runs in "
                  f"{results_dir}"))
        bad = [entry for entry in history if entry.get("error")]
        for entry in bad:
            print(f"invalid payload {entry['path']}: {entry['error']}",
                  file=sys.stderr)
        return 1 if bad else 0

    engines = None
    if args.engines:
        engines = [name.strip() for name in args.engines.split(",")
                   if name.strip()]
        known = engine_names()
        unknown = [name for name in engines if name not in known]
        if unknown:
            print(f"unknown engines: {', '.join(unknown)}; choose "
                  f"from {', '.join(known)}", file=sys.stderr)
            return 2
    results = run_bench(quick=args.quick, engines=engines,
                        only=args.only)
    if not results:
        print(f"no benches match --only {args.only!r}",
              file=sys.stderr)
        return 2
    payload = make_payload(results, quick=args.quick)
    print(format_table(
        ["bench", "ops", "sim ns", "wall s", "ops/s (wall)"],
        [[result.name, result.ops, f"{result.sim_time_ns:,.0f}",
          f"{result.wall_s:.3f}", f"{result.ops_per_s:,.0f}"]
         for result in results],
        title=f"Sim fingerprints ({'quick' if args.quick else 'full'}"
              f"; wall time is orientation, not gated)"))
    if args.out:
        print(f"results -> {write_payload(payload, args.out)}")
    try:
        baseline = load_payload(args.baseline)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot load baseline {args.baseline}: {error}",
              file=sys.stderr)
        return 2
    findings = compare_payloads(payload, baseline)
    print(format_table(
        ["bench", "status", "detail"],
        [[finding.name, finding.kind, finding.detail]
         for finding in findings],
        title=f"vs baseline {os.path.basename(args.baseline)}"))
    failed = [finding for finding in findings if finding.failed]
    for finding in failed:
        print(f"{finding.kind}: {finding.name}: {finding.detail}",
              file=sys.stderr)
    if not args.gate:
        return 0
    if failed:
        return 1
    if not any(finding.kind == "ok" for finding in findings):
        print(f"nothing compared: no bench of this run has a "
              f"counterpart of the same configuration in "
              f"{args.baseline}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    from .obs.history import build_report, render_markdown

    scan_dirs = args.scan or ["artifacts"]
    report = build_report(bench_dir=args.bench_dir,
                          scan_dirs=scan_dirs)
    markdown = render_markdown(report)
    if args.json and _write_json(args.json, report, "report JSON"):
        return 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(markdown)
            print(f"report markdown -> {args.out}")
    except OSError as error:
        print(f"cannot write report: {error}", file=sys.stderr)
        return 2
    if not args.out:
        print(markdown)
    return 0


def _cmd_obs(args) -> int:
    from .obs.export import summarize_file
    try:
        print(summarize_file(args.file))
    except (OSError, ValueError) as error:
        print(f"cannot summarize {args.file}: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args) -> int:
    from .server import DatabaseServer, GroupCommitConfig, ServerConfig

    def _ready(address):
        print(f"repro server: {args.engine} engine, "
              f"{args.partitions} partition(s), group commit "
              f"{'off' if args.no_group_commit else 'on'} — listening "
              f"on {address[0]}:{address[1]} (ctrl-C to stop)",
              flush=True)

    try:
        server = DatabaseServer(ServerConfig(
            host=args.host, port=args.port, engine=args.engine,
            partitions=args.partitions, latency=args.latency,
            seed=args.seed, max_inflight=args.max_inflight,
            group_commit=GroupCommitConfig(
                enabled=not args.no_group_commit,
                batch_size=args.batch_size,
                max_hold_ns=args.hold_ns,
                max_hold_wall_s=args.hold_wall_ms / 1000.0),
            max_admission_queue=args.max_queue,
            session_lease_s=args.session_lease,
            watchdog_recover_s=args.watchdog))
    except ValueError as error:     # a bad group-commit option
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    try:
        server.run(ready=_ready)    # blocks until SIGINT/SIGTERM/shutdown
    except OSError as error:        # the address cannot be bound
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    host, port = server.address or (args.host, args.port)
    stats = [stage.stats() for __, stage
             in sorted(server._stages.items())]
    rows = [[s["partition"], s["txns"], s["batches"],
             f"{s['mean_batch']:.2f}", s["max_batch"],
             s["durability_rounds"], f"{s['rounds_per_txn']:.3f}",
             ", ".join(f"{reason}={s['flush_reasons'][reason]}"
                       for reason in ("quiet", "size", "hold", "timer")
                       if s["flush_reasons"].get(reason))]
            for s in stats]
    if rows:
        print(format_table(
            ["partition", "txns", "batches", "mean", "max",
             "rounds", "rounds/txn", "reasons"],
            rows, title=f"group commit on {host}:{port} "
                        f"({server.database.engine_name})"))
    return 0


def _cmd_chaos(args) -> int:
    # Imported lazily: the campaign pulls in the full network stack.
    from .chaos import ChaosConfig, run_chaos_campaign

    base = ChaosConfig()
    faults = base.faults
    if args.fault_scale != 1.0:
        faults = dataclasses.replace(
            faults,
            **{name: min(1.0, getattr(faults, name) * args.fault_scale)
               for name in ("drop_p", "delay_p", "truncate_p",
                            "corrupt_p", "duplicate_p",
                            "blackhole_p")})
    faults = dataclasses.replace(faults, seed=args.seed)
    config = dataclasses.replace(
        base, clients=args.clients, txns_per_client=args.txns,
        keys=args.keys, seed=args.seed, engine=args.engine,
        crash_cycles=args.crash_cycles, faults=faults,
        max_wall_s=args.max_wall)
    telemetry = _Telemetry(args)
    publisher = None
    if telemetry.bus is not None:
        from .obs.bus import Publisher
        publisher = Publisher(telemetry.bus.publish, source="chaos")
    report = None
    try:
        report = run_chaos_campaign(config, publisher=publisher)
    finally:
        telemetry.finish([])
    if args.json and _write_json(
            args.json, dict(report.to_dict(), kind="repro-chaos-report")):
        return 2
    proxy = report.proxy_stats
    print(format_table(
        ["metric", "value"],
        [["committed (acked durable)", report.committed],
         ["ambiguous commits", report.ambiguous],
         ["  resolved durable (ledger)", report.resolved_durable],
         ["  resolved not-applied", report.resolved_not_applied],
         ["  still ambiguous", report.still_ambiguous],
         ["failed attempts (retried)", report.failed_attempts],
         ["nemesis crashes / recoveries",
          f"{report.crashes} / {report.recoveries}"],
         ["proxy connections", proxy.get("connections", 0)],
         ["frames dropped/delayed/cut",
          f"{proxy.get('drop', 0)}/{proxy.get('delay', 0)}/"
          f"{proxy.get('truncate', 0)}"],
         ["frames corrupted/duplicated/blackholed",
          f"{proxy.get('corrupt', 0)}/{proxy.get('duplicate', 0)}/"
          f"{proxy.get('blackhole', 0) + proxy.get('blackholed', 0)}"],
         ["keys checked", report.keys_checked],
         ["final counter total", report.final_total],
         ["wall seconds", f"{report.wall_seconds:.2f}"]],
        title=f"Chaos campaign, seed {args.seed} "
              f"({args.clients} clients, {args.engine})"))
    for violation in report.violations:
        print(f"oracle violation: {violation}", file=sys.stderr)
    print("invariants: "
          + ("all held" if report.ok
             else f"{len(report.violations)} VIOLATED"))
    return 0 if report.ok else 1


def _cmd_figure(args) -> int:
    scale = _scale(args)
    number = args.number
    telemetry = _Telemetry(args)
    try:
        if number == 1:
            headers, rows = fig1_interfaces()
            print(format_table(headers, rows,
                               title="Fig. 1 — durable write bandwidth "
                                     "(MB/s)"))
        elif number in (5, 6, 7):
            latency = {5: "dram", 6: "low-nvm", 7: "high-nvm"}[number]
            headers, rows, __ = ycsb_throughput(latency, scale,
                                                jobs=args.jobs,
                                                bus=telemetry.bus)
            print(format_table(headers, rows,
                               title=f"Fig. {number} — YCSB throughput "
                                     f"@ {latency} (txn/s)"))
        elif number == 8:
            headers, rows, __ = tpcc_throughput(scale, jobs=args.jobs,
                                                bus=telemetry.bus)
            print(format_table(headers, rows,
                               title="Fig. 8 — TPC-C throughput "
                                     "(txn/s)"))
        elif number == 12:
            headers, rows = recovery_latency(args.workload, scale)
            print(format_table(headers, rows,
                               title=f"Fig. 12 — recovery latency, "
                                     f"{args.workload} (ms)"))
        elif number == 14:
            headers, rows = storage_footprint(args.workload, scale,
                                              jobs=args.jobs,
                                              bus=telemetry.bus)
            print(format_table(headers, rows,
                               title=f"Fig. 14 — storage footprint, "
                                     f"{args.workload} (KB)"))
        else:
            print(f"figure {number} not wired into the CLI; run "
                  f"`pytest benchmarks/ --benchmark-only` for the full "
                  f"set", file=sys.stderr)
            return 2
    finally:
        # Figure drivers keep only merged tables, so phase artifacts
        # are not available here — the bus still feeds --live/--events.
        telemetry.finish([])
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        # An empty crashtest script's crash coordinates fire inside the
        # oracle; an empty chaos campaign passes vacuously.
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tcp_port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in 0..65535, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NVM DBMS storage & recovery reproduction "
                    "(SIGMOD 2015)")
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND",
        title="commands")

    engines_parser = commands.add_parser(
        "engines", help="list registered storage engines")
    engines_parser.set_defaults(func=_cmd_engines)

    ycsb_parser = commands.add_parser("ycsb", help="run a YCSB point")
    ycsb_parser.add_argument("--engine", default="nvm-inp",
                             choices=engine_names())
    ycsb_parser.add_argument("--all-engines", action="store_true")
    ycsb_parser.add_argument("--mixture", default="balanced",
                             choices=sorted(MIXTURES))
    ycsb_parser.add_argument("--skew", default="low",
                             choices=sorted(SKEWS))
    ycsb_parser.add_argument("--tuples", type=int, default=None)
    ycsb_parser.add_argument("--txns", type=int, default=None)
    ycsb_parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write per-point traces/metrics and the merged "
             "summary.json under DIR")
    _add_common(ycsb_parser)
    _add_sharded_flags(ycsb_parser)
    _add_obs_flags(ycsb_parser)
    _add_telemetry_flags(ycsb_parser)
    ycsb_parser.set_defaults(func=_cmd_ycsb)

    tpcc_parser = commands.add_parser("tpcc", help="run a TPC-C point")
    tpcc_parser.add_argument("--engine", default="nvm-inp",
                             choices=engine_names())
    tpcc_parser.add_argument("--all-engines", action="store_true")
    tpcc_parser.add_argument("--txns", type=int, default=None)
    tpcc_parser.add_argument(
        "--remote-pct", type=float, default=0.0, metavar="PCT",
        help="percent of new-order transactions that source one item "
             "from a remote warehouse (serial runs redirect the "
             "access; --sharded runs execute it as real 2PC)")
    tpcc_parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write per-point traces/metrics and the merged "
             "summary.json under DIR")
    _add_common(tpcc_parser)
    _add_sharded_flags(tpcc_parser)
    _add_obs_flags(tpcc_parser)
    _add_telemetry_flags(tpcc_parser)
    tpcc_parser.set_defaults(func=_cmd_tpcc)

    figure_parser = commands.add_parser(
        "figure", help="regenerate one paper figure")
    figure_parser.add_argument("number", type=int)
    figure_parser.add_argument("--workload", default="ycsb",
                               choices=("ycsb", "tpcc"))
    _add_common(figure_parser)
    _add_telemetry_flags(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    crashtest_parser = commands.add_parser(
        "crashtest",
        help="fault-injection campaign: crash at every fault point, "
             "recover, verify no committed data is lost")
    crashtest_parser.add_argument(
        "--engines", default="inp,nvm-cow", metavar="A,B,...",
        help="comma-separated engine names to campaign over")
    crashtest_parser.add_argument("--seed", type=int, default=7)
    crashtest_parser.add_argument(
        "--ops", type=_at_least_one, default=64,
        help="scripted operations per run")
    crashtest_parser.add_argument(
        "--max-hits", type=int, default=3, metavar="N",
        help="crash coordinates sampled per fault point")
    crashtest_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the coordinate sweep")
    crashtest_parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-coordinate host timeout (parallel mode)")
    crashtest_parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="scheduler retries per failed coordinate")
    crashtest_parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write per-coordinate traces/metrics + summary.json here")
    crashtest_parser.add_argument(
        "--twopc", action="store_true",
        help="campaign the two-phase-commit protocol instead: "
             "pair-writes across two partitions, crashing at the "
             "twopc.* fault points (see docs/scaleout.md)")
    crashtest_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full campaign report (kind "
             "repro-crashtest-report) to FILE")
    _add_telemetry_flags(crashtest_parser)
    crashtest_parser.set_defaults(func=_cmd_crashtest)

    check_parser = commands.add_parser(
        "check",
        help="persistence-ordering check: run a YCSB smoke per engine "
             "with the ordering checker attached, fail on violations")
    check_parser.add_argument(
        "--engines", default="all", metavar="A,B,...",
        help="comma-separated engine names, or 'all' for the paper's "
             "six architectures")
    check_parser.add_argument("--tuples", type=int, default=200)
    check_parser.add_argument("--txns", type=int, default=400)
    check_parser.add_argument(
        "--deletes", type=int, default=20,
        help="delete tail length (exercises slot reclamation)")
    check_parser.add_argument("--mixture", default="balanced",
                              choices=sorted(MIXTURES))
    check_parser.add_argument("--skew", default="low",
                              choices=sorted(SKEWS))
    check_parser.add_argument("--latency", default="dram",
                              choices=("dram", "low-nvm", "high-nvm"))
    check_parser.add_argument("--seed", type=int, default=31)
    check_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full JSON report to FILE ('-' for stdout)")
    check_parser.set_defaults(func=_cmd_check)

    lint_parser = commands.add_parser(
        "lint",
        help="project-specific static lint pass (stdlib-ast, "
             "LNT001-LNT005) over the engine and NVM packages")
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/repro/engines, "
             "src/repro/nvm, src/repro/fault)")
    lint_parser.add_argument(
        "--select", metavar="LNT001,...", default=None,
        help="run only these rule codes")
    lint_parser.add_argument("--json", action="store_const", const="-",
                             help="emit findings as JSON on stdout")
    lint_parser.add_argument("--rules", action="store_true",
                             help="print the rule catalogue and exit")
    lint_parser.set_defaults(func=_cmd_rules, gate=False,
                             write_baseline=False)

    analyze_parser = commands.add_parser(
        "analyze",
        help="path-sensitive static analysis: durability-ordering "
             "(SDA) and asyncio-discipline (ACD) rules over per-"
             "function CFGs and the project call graph")
    analyze_parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: all of "
             "src/repro)")
    analyze_parser.add_argument(
        "--select", metavar="SDA001,...", default=None,
        help="run only these rule codes")
    analyze_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write findings as JSON to FILE ('-' for stdout)")
    analyze_parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit")
    analyze_parser.add_argument(
        "--baseline", metavar="FILE",
        default="analysis-baseline.json",
        help="baseline file for --gate/--write-baseline "
             "(default: analysis-baseline.json)")
    analyze_parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings as the new baseline and "
             "exit 0")
    analyze_parser.add_argument(
        "--gate", action="store_true",
        help="CI mode: fail on findings missing from the baseline "
             "AND on stale baseline entries (the ratchet only "
             "shrinks)")
    analyze_parser.set_defaults(func=_cmd_rules)

    bench_parser = commands.add_parser(
        "bench",
        help="sim-fingerprint gate: cache microbenches + YCSB/TPC-C "
             "smoke per engine, each run once and compared against "
             "the committed BENCH_baseline.json")
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="smaller op counts — the sizes the committed baseline "
             "was recorded at")
    bench_parser.add_argument(
        "--engines", default=None, metavar="A,B,...",
        help="macro-bench only these engines (default: the paper's "
             "six architectures)")
    bench_parser.add_argument(
        "--only", default=None, metavar="SUBSTR",
        help="run only benches whose name contains SUBSTR")
    bench_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the run as DIR/BENCH_<timestamp>.json "
             "(default: write nothing)")
    bench_parser.add_argument(
        "--baseline", metavar="FILE",
        default=os.path.join("benchmarks", "results",
                             "BENCH_baseline.json"),
        help="payload to compare against (default: the committed "
             "benchmarks/results/BENCH_baseline.json)")
    bench_parser.add_argument(
        "--gate", action="store_true",
        help="CI mode: exit 1 on a sim divergence, 2 when no bench "
             "could be compared")
    bench_parser.add_argument(
        "--history", action="store_true",
        help="print the trajectory across the BENCH_*.json files in "
             "--out (default: benchmarks/results) and exit (runs "
             "nothing)")
    bench_parser.set_defaults(func=_cmd_bench)

    report_parser = commands.add_parser(
        "report",
        help="aggregate run history — bench trajectory, sweep "
             "summaries, crash-campaign outcomes, telemetry event "
             "logs — into one markdown/JSON report")
    report_parser.add_argument(
        "--bench-dir", default=os.path.join("benchmarks", "results"),
        metavar="DIR",
        help="directory of committed BENCH_*.json files "
             "(default: benchmarks/results)")
    report_parser.add_argument(
        "--scan", action="append", default=None, metavar="DIR",
        help="directory to scan for sweep/campaign/event-log "
             "artifacts (repeatable; default: artifacts)")
    report_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the report as JSON (kind "
             "repro-history-report)")
    report_parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the markdown report to FILE instead of stdout")
    report_parser.set_defaults(func=_cmd_report)

    obs_parser = commands.add_parser(
        "obs", help="pretty-print a trace (.jsonl) or metrics (.prom) "
                    "file produced by --trace/--metrics")
    obs_parser.add_argument("file")
    obs_parser.set_defaults(func=_cmd_obs)

    serve_parser = commands.add_parser(
        "serve",
        help="serve a database over the wire protocol (asyncio "
             "socket server with group commit; see docs/server.md)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=_tcp_port, default=7333,
                              help="TCP port (0 = ephemeral)")
    serve_parser.add_argument("--engine", default="nvm-inp",
                              choices=engine_names())
    serve_parser.add_argument("--partitions", type=int, default=1)
    serve_parser.add_argument("--latency", default=None,
                              choices=("dram", "low-nvm", "high-nvm"))
    serve_parser.add_argument("--seed", type=int, default=0x5EED)
    serve_parser.add_argument(
        "--batch-size", type=int, default=8, metavar="N",
        help="group-commit batch size (commits per durable point)")
    serve_parser.add_argument(
        "--hold-ns", type=float, default=200_000.0, metavar="NS",
        help="max simulated ns a batch is held open")
    serve_parser.add_argument(
        "--hold-wall-ms", type=float, default=2.0, metavar="MS",
        help="wall-clock liveness backstop for the last batch")
    serve_parser.add_argument(
        "--no-group-commit", action="store_true",
        help="flush every commit individually (baseline)")
    serve_parser.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="admission control: transactions in flight before "
             "begin blocks")
    serve_parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="load shedding: begins parked for admission before "
             "further ones are refused with RetryAfter "
             "(default: park without bound)")
    serve_parser.add_argument(
        "--session-lease", type=float, default=None, metavar="S",
        help="reap sessions idle longer than S seconds, aborting "
             "their transaction and releasing their locks "
             "(default: no leases)")
    serve_parser.add_argument(
        "--watchdog", type=float, default=None, metavar="S",
        help="auto-recover the database S seconds after a crash "
             "(default: recovery stays explicit)")
    serve_parser.set_defaults(func=_cmd_serve)

    chaos_parser = commands.add_parser(
        "chaos",
        help="chaos campaign: N clients commit through a seeded "
             "fault proxy while a nemesis crashes/recovers the "
             "server; an oracle checks exactly-once invariants "
             "(see docs/fault-injection.md)")
    chaos_parser.add_argument("--clients", type=_at_least_one,
                              default=4)
    chaos_parser.add_argument("--txns", type=_at_least_one, default=40,
                              metavar="N",
                              help="transactions per client")
    chaos_parser.add_argument("--keys", type=int, default=64)
    chaos_parser.add_argument("--seed", type=int, default=0xDB05)
    chaos_parser.add_argument("--engine", default="nvm-inp",
                              choices=engine_names())
    chaos_parser.add_argument("--crash-cycles", type=int, default=2,
                              metavar="N",
                              help="nemesis crash/recover cycles")
    chaos_parser.add_argument(
        "--fault-scale", type=float, default=1.0, metavar="X",
        help="multiply every fault probability by X "
             "(0 disables faults)")
    chaos_parser.add_argument(
        "--max-wall", type=float, default=120.0, metavar="S",
        help="hard wall-clock bound; a stalled worker past it is "
             "reported as a violation, never a hang")
    chaos_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full campaign report (kind "
             "repro-chaos-report) to FILE")
    _add_telemetry_flags(chaos_parser)
    chaos_parser.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorkloadError) as error:  # a bad option value
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

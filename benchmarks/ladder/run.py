#!/usr/bin/env python3
"""The repository's benchmark: four workloads, an outside-in ladder.

One workload, one run (what the benchmark driver calls)::

    python3 benchmarks/ladder/run.py --workload ycsb-inproc --seed 31 \\
        --seconds 16 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a separate traced run. ``--seconds`` is
the number of roughly one-second equal-count segments measured.

Everything (what a person runs)::

    python3 benchmarks/ladder/run.py [--seed N] [--out FILE]
    python3 benchmarks/ladder/run.py --aa K
    python3 benchmarks/ladder/run.py --smoke

runs each workload, untraced and traced, each in a fresh child
process, prints the ladder, and writes a payload under ``results/``.
``--aa K`` runs two blocks of K untraced sets (seeds ``seed ..
seed+K-1`` in both) and writes ``results/AA.md``: per-metric medians,
quartile spreads and the drift between blocks, every one of them held
against the metric's bound, and whether the exact metrics of equal
seeds agree to the last digit.

The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import common
import estimators
import metrics as catalogue

DEFAULT_SEED = 31
WORKLOAD_NAMES = [name for name, __ in catalogue.WORKLOADS]
RESULTS = common.HERE / "results"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------

def apply_smoke() -> None:
    """Shrink every workload to a smoke test: one set-up, one
    crash/recover cycle, small tables, short segments. The numbers
    mean nothing; every code path still runs."""
    import inproc
    import wl_tpcc_inproc
    import wl_ycsb_inproc
    import wl_ycsb_served
    import wl_ycsb_sharded
    common.SETUP_REPEATS = 1
    inproc.RECOVER_CYCLES = 1
    wl_ycsb_inproc.TUPLES = 1000
    wl_ycsb_inproc.YCSBInproc.segment_txns = 1000
    wl_ycsb_inproc.YCSBInproc.recover_txns = 200
    wl_tpcc_inproc.SIZING.update(
        districts_per_warehouse=4, customers_per_district=10,
        items=100, initial_orders_per_district=10)
    wl_tpcc_inproc.TPCCInproc.segment_txns = 100
    wl_tpcc_inproc.TPCCInproc.recover_txns = 40
    wl_ycsb_served.KEYS = 512
    wl_ycsb_served.LONE_TXNS = 60
    wl_ycsb_served.PAIR_TXNS = 50
    wl_ycsb_served.RECOVER_TXNS = 40
    wl_ycsb_served.RECOVER_CYCLES = 1
    wl_ycsb_served.PING_SAMPLES = 20
    wl_ycsb_sharded.MIXED_TXNS = 600
    wl_ycsb_sharded.UNLOADED_ROUNDS = 60
    wl_ycsb_sharded.RECOVER_TXNS = 200
    wl_ycsb_sharded.RECOVER_CYCLES = 1
    wl_ycsb_sharded.SYNC_RTT_SAMPLES = 20


def run_workload(name: str, seed: int, segments: int, trace: bool,
                 forget_write: bool) -> common.Outcome:
    import inproc
    if name == "ycsb-inproc":
        from wl_ycsb_inproc import YCSBInproc
        workload = YCSBInproc()
    elif name == "tpcc-inproc":
        from wl_tpcc_inproc import TPCCInproc
        workload = TPCCInproc()
    else:
        module = importlib.import_module(
            "wl_" + name.replace("-", "_"))
        if trace:
            return module.traced(seed, segments)
        return module.untraced(seed, segments, forget_write)
    if trace:
        return inproc.traced(workload, seed, segments)
    return inproc.untraced(workload, seed, segments, forget_write)


def report(outcome: common.Outcome, trace: bool) -> Dict[str, Any]:
    """The result object of one run: every catalogued metric of the
    requested kind, by name, with its unit. The driver wants every
    per-layer name on every workload, so a layer metric the workload
    cannot measure (``client.*`` in process, spans inside executor
    processes) is sent as 0 — and named in the ``not_measured`` note,
    which keeps it out of the payload and the printed ladder: there a
    0 always means "measured, and it was zero"."""
    if trace:
        table = [(name, unit) for name, unit, __ in catalogue.PER_LAYER]
        values = {name: outcome.metrics.get(name, 0.0)
                  for name, __ in table}
        outcome.notes["not_measured"] = [
            name for name, __ in table if name not in outcome.metrics]
    else:
        table = [(name, unit)
                 for name, unit, __, __ in catalogue.END_TO_END]
        values = {name: outcome.metrics[name] for name, __ in table}
    return {
        "correct": not outcome.violations and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }


def measured(metrics: Dict[str, Any], notes: Dict[str, Any]
             ) -> Dict[str, Any]:
    """``metrics`` without the names the run could not measure."""
    skipped = set(notes.get("not_measured", ()))
    return {name: entry for name, entry in metrics.items()
            if name not in skipped}


def main_one(args) -> int:
    common.require_program()
    if args.smoke:
        apply_smoke()
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.forget_write)
    result = report(outcome, bool(args.trace))
    for name, entry in measured(result["metrics"],
                                outcome.notes).items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} "
              f"{entry['unit']}")
    for violation in outcome.violations:
        print(f"{args.workload}  VIOLATION {violation}")
    print(f"{args.workload}  failed_frac = "
          f"{outcome.failed}/{outcome.attempted}")
    print("notes " + json.dumps(outcome.notes))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each in a fresh child process
# ----------------------------------------------------------------------

def child_run(workload: str, seed: int, seconds: int, trace: int,
              smoke: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its result
    object plus ``notes`` and ``wall_s``."""
    command = [sys.executable, str(common.HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    start = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(common.ROOT))
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} (trace={trace}) printed no "
                         f"result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["notes"] = next(
        (json.loads(line[6:]) for line in lines
         if line.startswith("notes ")), {})
    result["violations"] = [line.split("VIOLATION ", 1)[1]
                            for line in lines if "VIOLATION " in line]
    result["wall_s"] = time.perf_counter() - start
    return result


def host_block() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}"}


def git_sha() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"],
                          cwd=str(common.ROOT), text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    return done.stdout.strip() or "unknown"


def print_ladder(name: str, untraced: Dict[str, Any],
                 traced: Dict[str, Any]) -> None:
    print(f"\n== {name} ==  ({untraced['wall_s']:.0f} s untraced, "
          f"{traced['wall_s']:.0f} s traced)")
    for metric, entry in untraced["metrics"].items():
        print(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':<44}"
          f"{untraced['failed']:>8}/{untraced['attempted']}")
    print("  -- per layer (traced run; a layer this workload cannot "
          "measure is left out)")
    for metric, entry in measured(traced["metrics"],
                                  traced["notes"]).items():
        print(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")


def main_all(args) -> int:
    common.require_program()
    payload: Dict[str, Any] = {
        "kind": "ladder-bench", "seed": args.seed,
        "segments": args.seconds, "smoke": args.smoke,
        "git_sha": git_sha(), "host": host_block(), "workloads": {}}
    correct = True
    for name in WORKLOAD_NAMES:
        untraced = child_run(name, args.seed, args.seconds, 0,
                             args.smoke)
        traced = child_run(name, args.seed, args.seconds, 1, args.smoke)
        print_ladder(name, untraced, traced)
        for run in (untraced, traced):
            correct = correct and run["correct"]
            for violation in run["violations"]:
                print(f"  VIOLATION {violation}")
        payload["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": measured(traced["metrics"], traced["notes"]),
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "correct": untraced["correct"] and traced["correct"],
            "notes": {"untraced": untraced["notes"],
                      "traced": traced["notes"]},
            "wall_s": {"untraced": untraced["wall_s"],
                       "traced": traced["wall_s"]},
        }
    payload["host"]["ref_us"] = payload["workloads"]["ycsb-inproc"][
        "per_layer"]["host.ref_us"]["value"]
    out = args.out or (common.OUT if args.smoke else RESULTS) \
        / f"BENCH_{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n",
                   encoding="utf-8")
    print(f"\npayload: {out}")
    return 0 if correct else 1


# ----------------------------------------------------------------------
# A/A self-check
# ----------------------------------------------------------------------

EXACT = ("sim_us_per_txn",)


def main_aa(args) -> int:
    common.require_program()
    seeds = [args.seed + index for index in range(args.aa)]
    #: workload -> metric -> block -> [value per seed]
    values: Dict[str, Dict[str, List[List[float]]]] = {
        name: {metric: [[], []]
               for metric, *__ in catalogue.END_TO_END}
        for name in WORKLOAD_NAMES}
    correct = True
    walls: List[float] = []
    for block in (0, 1):
        for seed in seeds:
            for name in WORKLOAD_NAMES:
                run = child_run(name, seed, args.seconds, 0, args.smoke)
                correct = correct and run["correct"]
                walls.append(run["wall_s"])
                for metric, entry in run["metrics"].items():
                    values[name][metric][block].append(entry["value"])
                print(f"block {block} seed {seed} {name}: "
                      f"{run['wall_s']:.1f} s", flush=True)

    lines = [
        "# A/A self-check", "",
        f"Two blocks of {args.aa} untraced runs per workload on the "
        f"same code (seeds {seeds[0]}..{seeds[-1]} in both blocks, "
        f"{args.seconds} segments), git `{git_sha()[:12]}`, "
        f"{os.cpu_count()} cores, mean {statistics.fmean(walls):.1f} s "
        f"and max {max(walls):.1f} s per run.", "",
        "`spread` = (Q3 - Q1) / median over a block's runs, as "
        "`statistics.quantiles(values, n=4)` gives them; `drift` = how "
        "much worse block B's median is than block A's. A row holds "
        "when both spreads and the drift stay within `bound` — every "
        "row, `setup_s` too. The target is a spread below a third of "
        "the bound; the rows that miss it are listed at the end. "
        "`exact` = the metric read the same, to the last digit, in "
        "both blocks for every seed.", ""]
    above_target: List[str] = []
    held = True
    for name in WORKLOAD_NAMES:
        lines += [f"## {name}", "",
                  "| metric | unit | median A | median B | spread A | "
                  "spread B | max pair A | drift | bound | holds |",
                  "|---|---|---|---|---|---|---|---|---|---|"]
        for metric, unit, better, bound in catalogue.END_TO_END:
            first, second = values[name][metric]
            a, b = estimators.summarize(first), \
                estimators.summarize(second)
            drift = estimators.worse_by(a["median"], b["median"], better)
            ok = max(drift, a["spread"], b["spread"]) <= bound
            if max(a["spread"], b["spread"]) > bound / 3:
                above_target.append(f"{name} `{metric}`")
            note = ""
            if metric in EXACT:
                exact = first == second
                ok = ok and exact
                note = " exact" if exact else " NOT exact"
            held = held and ok
            lines.append(
                f"| {metric} | {unit} | {a['median']:.6g} | "
                f"{b['median']:.6g} | {a['spread']:.2%} | "
                f"{b['spread']:.2%} | {a['max_pairwise']:.2%} | "
                f"{drift:+.2%} | {bound:.0%} | "
                f"{'yes' if ok else 'NO'}{note} |")
        lines.append("")
    lines.append(f"Every row holds: **{'yes' if held else 'NO'}**; "
                 f"every run correct: **{'yes' if correct else 'NO'}**.")
    lines += ["", "Spread above a third of the bound in at least one "
              "block: " + (", ".join(above_target) or "none") + "."]
    out = args.out or (common.OUT if args.smoke else RESULTS) / "AA.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"\nwritten: {out}")
    return 0 if held and correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=catalogue.RUN_SECONDS,
                        help="segments of about one second each")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1), default=None,
                        help="1 = the traced run (per-layer metrics)")
    parser.add_argument("--aa", type=int, metavar="K",
                        help="A/A self-check: two blocks of K sets")
    parser.add_argument("--smoke", action="store_true",
                        help="2 tiny segments, one set-up: exercises "
                             "every path in under 30 s")
    parser.add_argument("--out", type=common.pathlib.Path,
                        help="payload / table path (default: results/)")
    parser.add_argument("--forget-write", action="store_true",
                        help="commit one write the oracle is not told "
                             "about: the durability check must fire")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.smoke:
        args.seconds = 2
    if args.workload:
        return main_one(args)
    if args.aa:
        return main_aa(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())

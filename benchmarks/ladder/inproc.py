"""The two in-process workloads' shared driver.

``ycsb-inproc`` and ``tpcc-inproc`` differ in what they build and in
how one transaction is issued and checked; everything else — the
repeated set-up, reference-scaled segments, exact simulated-clock
metrics, crash/recover cycles with the durability check, and the
traced run — is the same and lives here.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

import common
import layers
from common import Outcome, RefTimer, Segment
from spans import SpanRecorder

#: Crash/recover cycles per run: the first on the freshly loaded
#: database, the last after the measured phase, so every measured write
#: is taken through ``crash()``/``recover()`` and the second crash hits
#: a database that has already recovered once.
RECOVER_CYCLES = 2
#: Transactions whose spans are kept whole in the JSONL file.
KEEP_SPAN_TXNS = 100


class InprocWorkload:
    """What a workload module provides to this driver."""

    name = ""
    #: Transactions per measured segment / per crash-recover cycle.
    segment_txns = 0
    recover_txns = 0
    def build(self, seed: int) -> Any:
        """Build + load + checkpoint + settle; returns the state."""
        raise NotImplementedError

    def database(self, state: Any):
        raise NotImplementedError

    def tuples(self, state: Any) -> int:
        raise NotImplementedError

    def stream(self, state: Any, count: int) -> List[Any]:
        """The next ``count`` transactions (outside any timed window)."""
        raise NotImplementedError

    def run_segment(self, state: Any, txns: Sequence[Any],
                    outcome: Outcome, ref: Optional[RefTimer],
                    tick=None) -> Segment:
        """Issue ``txns`` one by one, timing each; record acknowledged
        writes in the state's oracle; ``tick()`` before each (traced
        run)."""
        raise NotImplementedError

    def verify(self, state: Any, outcome: Outcome) -> None:
        """Read back every acknowledged write (the durability check)."""
        raise NotImplementedError

    def unrecorded_write(self, state: Any) -> None:
        """Commit one write the oracle is not told about (shows the
        durability check fires)."""
        raise NotImplementedError


def recover_cycle(workload: InprocWorkload, state: Any,
                  outcome: Outcome, inject: bool = False) -> float:
    """:func:`common.recover_cycle` with ``workload.recover_txns``
    transactions since the checkpoint."""
    def run() -> None:
        segment = workload.run_segment(
            state, workload.stream(state, workload.recover_txns),
            outcome, None)
        outcome.attempted += segment.committed
        if inject:
            workload.unrecorded_write(state)

    return common.recover_cycle(
        workload.database(state), run,
        lambda: workload.verify(state, outcome))


def untraced(workload: InprocWorkload, seed: int, segments: int,
             inject: bool = False) -> Outcome:
    """The run that produces the end-to-end metrics."""
    from repro import Database
    Database().close()              # imports + allocator warm-up
    outcome = Outcome()
    state, setup_s = common.timed_setups(
        lambda: workload.build(seed),
        lambda built: workload.database(built).close())
    db = workload.database(state)
    gc.freeze()
    plan = [workload.stream(state, workload.segment_txns)
            for __ in range(segments)]
    ref = RefTimer()

    for __ in range(RECOVER_CYCLES - 1):
        recover_cycle(workload, state, outcome)
    aborted_before = db.aborted_txns
    committed_before = db.committed_txns
    sim_before = db.now_ns
    measured = [workload.run_segment(state, txns, outcome, ref)
                for txns in plan]
    sim_ns = db.now_ns - sim_before
    committed = db.committed_txns - committed_before
    issued = sum(len(txns) for txns in plan)
    outcome.attempted += issued
    outcome.failed += db.aborted_txns - aborted_before
    if committed != issued:
        outcome.fail(f"{issued} transactions issued, "
                     f"{committed} committed")
    recover_cycle(workload, state, outcome, inject)

    outcome.metrics = common.reduce_segments(measured, measured)
    outcome.metrics.update({
        "setup_s": setup_s,
        "peak_rss_mb": common.peak_rss_mb(()),
        "sim_us_per_txn": sim_ns / committed / 1e3,
    })
    outcome.notes = {
        "segments": segments, "segment_txns": workload.segment_txns,
        "ref_us": common.raw_host_metrics(measured)["host.ref_us"],
    }
    db.close()
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def platform_counters(db) -> Dict[str, float]:
    """The simulated hardware's counters, summed over partitions."""
    totals: Dict[str, float] = {}
    for partition in db.partitions:
        platform = partition.platform
        for name, value in platform.stats.counters.items():
            totals[name] = totals.get(name, 0) + value
        totals["cache.hits"] = totals.get("cache.hits", 0) \
            + platform.cache.hits
        totals["cache.misses"] = totals.get("cache.misses", 0) \
            + platform.cache.misses
    return totals


def counter_metrics(before: Dict[str, float], after: Dict[str, float],
                    txns: int) -> Dict[str, float]:
    """Per-transaction counts of the simulated hardware (exact: they
    must not move under a host-speed change)."""
    def per_txn(*names: str) -> float:
        return sum(after.get(name, 0) - before.get(name, 0)
                   for name in names) / txns

    hits = after["cache.hits"] - before["cache.hits"]
    misses = after["cache.misses"] - before["cache.misses"]
    return {
        "nvm.device.loads_per_txn": per_txn("nvm.loads"),
        "nvm.device.stores_per_txn": per_txn("nvm.stores"),
        "nvm.cache.hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "nvm.cache.sync_per_txn": per_txn("cache.sync"),
        "nvm.cache.sfence_per_txn": per_txn("cache.sfence"),
        "nvm.cache.lines_flushed_per_txn": per_txn("cache.clflush",
                                                   "cache.clwb"),
        "nvm.allocator.malloc_per_txn": per_txn("alloc.malloc"),
        "nvm.filesystem.fsync_per_txn": per_txn("fs.fsyncs"),
        "nvm.filesystem.bytes_per_txn": per_txn("fs.bytes_written"),
    }


def span_metrics(recorder: SpanRecorder, txns: int) -> Dict[str, float]:
    """The in-process rungs of the ladder from a traced window. A
    layer nothing called has a self time of 0; an operation nothing
    called has no duration at all and is left out."""
    self_ns = recorder.layer_self_ns()
    calls = recorder.layer_calls()
    metrics: Dict[str, float] = {}
    for layer in layers.INPROC_LAYERS:
        metrics[f"{layer}.self_us_per_txn"] = \
            self_ns.get(layer, 0) / txns / 1e3
        metrics[f"{layer}.calls_per_txn"] = calls.get(layer, 0) / txns
    durations = {
        "index.get_us": recorder.mean_us("index", ".get"),
        "index.put_us": recorder.mean_us("index", ".put", ".insert"),
        "engines.read_op_us": recorder.mean_us(
            "engines", ".select", ".select_secondary", ".scan"),
        "engines.write_op_us": recorder.mean_us(
            "engines", ".insert", ".update", ".delete"),
        "engines.commit_us": recorder.mean_us("engines", ".commit"),
    }
    metrics.update({name: value for name, value in durations.items()
                    if value is not None})
    metrics["engines.checkpoints"] = float(recorder.calls(
        "engines", ".checkpoint"))
    return metrics


def traced(workload: InprocWorkload, seed: int, segments: int
           ) -> Outcome:
    """The run that produces the per-layer metrics: a quarter of the
    segments untraced on one database, then the same inputs traced on
    a second one built after the wrappers went in."""
    from repro import Database
    Database().close()
    outcome = Outcome()
    count = max(1, segments // 4)
    ref = RefTimer()

    def run(state, tick=None) -> Dict[str, Any]:
        db = workload.database(state)
        plan = [workload.stream(state, workload.segment_txns)
                for __ in range(count)]
        before = platform_counters(db)
        sim_before = db.now_ns
        measured = [workload.run_segment(state, txns, outcome, ref,
                                         tick) for txns in plan]
        return {"segments": measured,
                "counters": (before, platform_counters(db)),
                "sim_ns": db.now_ns - sim_before,
                "txns": sum(s.committed for s in measured)}

    plain_state = workload.build(seed)
    gc.freeze()
    plain = run(plain_state)
    plain_db = workload.database(plain_state)
    tuples = workload.tuples(plain_state)
    metrics = counter_metrics(*plain["counters"], plain["txns"])
    metrics["nvm.allocator.live_bytes_per_tuple"] = sum(
        p.platform.allocator.allocated_bytes
        for p in plain_db.partitions) / tuples
    metrics["engines.footprint_bytes_per_tuple"] = \
        sum(plain_db.storage_breakdown().values()) / tuples
    metrics.update(common.raw_host_metrics(plain["segments"]))
    metrics["core.database.recover_ms"] = recover_cycle(
        workload, plain_state, outcome)
    plain_db.close()
    del plain_state, plain_db
    gc.collect()

    recorder = SpanRecorder(keep_txns=KEEP_SPAN_TXNS)
    layers.install_inprocess(recorder)
    try:
        state = workload.build(seed)
        recorder.enabled = True
        with_spans = run(state, recorder.next_txn)
        recorder.enabled = False
        txns = with_spans["txns"]
        metrics.update(span_metrics(recorder, txns))
        attributed = sum(recorder.layer_self_ns().values()) / 1e9
        busy = sum(s.busy_s for s in with_spans["segments"])
        metrics["trace.unattributed_frac"] = 1.0 - attributed / busy
        metrics["trace.overhead_x"] = \
            metrics["host.raw_txn_per_s"] / statistics.median(
                s.committed / s.busy_s for s in with_spans["segments"])
        if with_spans["sim_ns"] != plain["sim_ns"]:
            outcome.fail(
                "tracing changed the simulation: "
                f"{with_spans['sim_ns']} ns traced vs "
                f"{plain['sim_ns']} ns untraced")

        # One crash/recover cycle with the wrappers recording: the
        # engine's share of a checkpoint and of the whole traced
        # ``recover()`` (``trace.recover_ms``, 1.5-6x the untraced
        # ``core.database.recover_ms``: recovery is many tiny device
        # and cache calls), and the durability check under tracing.
        # Aggregates only — the JSONL file is written first and covers
        # the measured window.
        spans_kept = recorder.write_jsonl(
            common.OUT / f"{workload.name}-seed{seed}.spans.jsonl")
        recorder.reset()
        db = workload.database(state)
        recorder.enabled = True
        metrics["trace.recover_ms"] = recover_cycle(workload, state,
                                                    outcome)
        recorder.enabled = False
        metrics["engines.checkpoint_ms"] = recorder.mean_us(
            "engines", ".checkpoint") / 1e3
        metrics["engines.recover_ms"] = recorder.mean_us(
            "engines", ".recover") / 1e3
        outcome.attempted += count * workload.segment_txns * 2
        db.close()
    finally:
        recorder.enabled = False
        recorder.uninstall()
    outcome.metrics = metrics
    outcome.notes = {"traced_segments": count, "traced_txns": txns,
                     "spans_kept": spans_kept}
    return outcome

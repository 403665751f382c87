"""``ycsb-sharded``: coordinator -> pipe -> executor -> 2PC.

``ShardedDatabase("nvm-inp", partitions=2)`` — two executor processes —
fed the ``YCSBWorkload(partitions=2)`` stream. Segments alternate, as
on ``ycsb-served``:

* **mixed** — throughput. Of every ten transactions eight are posted
  with ``execute`` (fire and forget), one is a synchronous ``get`` and
  one is a two-partition pair update through ``execute_distributed``
  (two ``Branch``es of the YCSB update procedure, the same token
  written to a key and its twin in the other partition). The segment
  closes with ``flush()`` + ``barrier()``, which is also what
  acknowledges the posted updates. ``txn_per_s`` and
  ``cpu_us_per_txn`` count everything here.
* **unloaded** — latency. On drained executors, one synchronous
  ``get`` and one pair update at a time: ``read_p50_us`` over the
  ``get``s; ``txn_p95_us`` and ``write_p50_us`` — the pair update
  being the only write whose completion a caller observes — over the
  2PC transactions.

A posted ``execute`` returns before the work is done, so it has no
latency of its own. And a synchronous call in the middle of the mix
first waits for whatever was posted before it: identical runs put the
mixed ``get`` at 1.1 ms or at 1.9 ms depending on whether the
executors happened to keep up (spread 31%, 2PC p95 36%), which is why
latency has its own, drained segments.

The pipe, pickling and the four synchronous 2PC round trips dominate a
~170 us engine transaction; nothing here touches the server layers.
This is the guard for ROADMAP direction 2's "transport under
``Partition``" refactor.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
import layers
import wl_ycsb_inproc
from common import Outcome, RefTimer, Segment
from inproc import KEEP_SPAN_TXNS, counter_metrics, platform_counters
from spans import SpanRecorder

PARTITIONS = 2
MIXED_TXNS = 2400
#: (get, pair update) rounds per unloaded segment: 250 pair updates
#: leave a dozen beyond their p95. (400 rounds and 3,000 mixed
#: transactions did not narrow the run-to-run spread: it is the
#: host's, not the sample's.)
UNLOADED_ROUNDS = 250
RECOVER_TXNS = 800
#: The second cycle crashes executors that have already recovered once.
RECOVER_CYCLES = 2
PAIR_FIELD = "field0"

#: One planned operation: ("post", procedure, args, pid),
#: ("get", key, pid) or ("pair", key, twin, pid, token).
Op = Tuple[Any, ...]


class State:
    def __init__(self, db, workload) -> None:
        self.db = db
        self.workload = workload
        self.table = workload.TABLE
        self.half = workload.tuples_per_partition
        #: key -> {field: last written value}, recorded in issue order
        #: (per executor that is also execution order). A posted
        #: update is only acknowledged by the barrier that closes its
        #: segment; nothing reads the oracle for a crash check before
        #: that barrier, and a synchronous ``get`` drains the pipe
        #: first, so it too sees every earlier write.
        self.oracle: Dict[int, Dict[str, str]] = {}
        self.tokens = 0


def build(seed: int, factory=None) -> State:
    if factory is None:
        from repro.dist.coordinator import ShardedDatabase
        factory = ShardedDatabase
    db, workload = wl_ycsb_inproc.build_database(
        "nvm-inp", seed, partitions=PARTITIONS, factory=factory)
    if hasattr(db, "barrier"):
        db.barrier()
    return State(db, workload)


def executor_pids() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()
            if child.name.startswith("repro-executor")]


def stream(state: State, count: int) -> List[Op]:
    """The next ``count`` operations: the workload's own stream, with
    every tenth transaction turned into a synchronous ``get`` and
    every other tenth into a pair update of its key and the key's twin
    in the other partition."""
    ops: List[Op] = []
    for index, (procedure, args, pid) in enumerate(
            state.workload.transactions(count)):
        slot = index % 10
        key = args[1]
        if slot == 3:
            ops.append(("get", key, pid))
        elif slot == 7:
            state.tokens += 1
            twin = key % state.half + (1 - pid) * state.half
            # Same width as a YCSB value: a shorter one would leave
            # a hole per update in the allocator's free list, whose
            # best-fit scan is linear, and the run would slow down
            # segment by segment.
            ops.append(("pair", key, twin, pid,
                        f"pair-{state.tokens:09d}".ljust(100, ".")))
        else:
            ops.append(("post", procedure, args, pid))
    return ops


def unloaded_rounds(state: State, count: int) -> List[Op]:
    """``count`` x (``get``, pair update) on keys from the stream."""
    ops: List[Op] = []
    for __, args, pid in state.workload.transactions(count):
        key = args[1]
        state.tokens += 1
        ops.append(("get", key, pid))
        ops.append(("pair", key, key % state.half
                    + (1 - pid) * state.half, pid,
                    f"pair-{state.tokens:09d}".ljust(100, ".")))
    return ops


def pair_update(ctx, table: str, key: int, field: str,
                value: str) -> None:
    """Branch procedure (module level: pickled to the executors)."""
    ctx.update(table, key, {field: value})


def pair_txn(state: State, key: int, twin: int, pid: int, token: str):
    from repro.dist.txn import Branch, DistributedTransaction
    return DistributedTransaction(
        Branch(pid, pair_update, (state.table, key, PAIR_FIELD, token)),
        (Branch(1 - pid, pair_update,
                (state.table, twin, PAIR_FIELD, token)),))


def run_segment(state: State, ops: Sequence[Op], outcome: Outcome,
                pids: Sequence[int], ref: Optional[RefTimer] = None,
                tick=None,
                timers: Optional[Dict[str, float]] = None) -> Segment:
    """Issue ``ops``, then ``flush()`` + ``barrier()``. With ``ref``,
    one reference transaction is timed after every pair update
    (outside its latency). ``timers`` (traced run) collects seconds
    spent posting and waiting at the barrier."""
    db = state.db
    oracle = state.oracle
    clock = time.perf_counter
    gets: List[float] = []
    pairs: List[float] = []
    refs: List[float] = []
    post_s = 0.0
    cpu_start = common.cpu_s(pids)
    wall_start = clock()
    for op in ops:
        if tick is not None:
            tick()
        kind = op[0]
        if kind == "post":
            __, procedure, args, pid = op
            start = clock()
            db.execute(procedure, *args, partition=pid)
            post_s += clock() - start
            if len(args) == 4:      # (table, key, field, value)
                oracle.setdefault(args[1], {})[args[2]] = args[3]
        elif kind == "get":
            __, key, pid = op
            start = clock()
            row = db.get(state.table, key, partition=pid)
            gets.append(clock() - start)
            if key in oracle:
                wl_ycsb_inproc.check_row(oracle, key, row, outcome)
        else:
            __, key, twin, pid, token = op
            start = clock()
            db.execute_distributed(pair_txn(state, key, twin, pid,
                                            token))
            pairs.append(clock() - start)
            oracle.setdefault(key, {})[PAIR_FIELD] = token
            oracle.setdefault(twin, {})[PAIR_FIELD] = token
            if ref is not None:
                ref.sample(refs)
    barrier_start = clock()
    db.flush()
    if hasattr(db, "barrier"):
        db.barrier()
    end = clock()
    if timers is not None:
        timers["posts"] = timers.get("posts", 0) \
            + sum(1 for op in ops if op[0] == "post")
        timers["post_s"] = timers.get("post_s", 0.0) + post_s
        timers["barrier_s"] = timers.get("barrier_s", 0.0) \
            + end - barrier_start
    return Segment(committed=len(ops), wall_s=end - wall_start,
                   cpu_s=common.cpu_s(pids) - cpu_start,
                   latency={"read": gets, "write": pairs}, ref=refs)


def plan_segments(state: State, segments: int) -> List[List[Op]]:
    """Alternating mixed / unloaded segments' operations."""
    return [stream(state, MIXED_TXNS) if index % 2 == 0
            else unloaded_rounds(state, UNLOADED_ROUNDS)
            for index in range(segments)]


def verify(state: State, outcome: Outcome) -> None:
    """Every acknowledged field value is read back — for a pair update
    that is both halves, on both executors. One ``scan`` per executor:
    a synchronous ``get`` per key costs half a millisecond of pipe."""
    rows = dict(state.db.scan(state.table))
    for key in state.oracle:
        wl_ycsb_inproc.check_row(state.oracle, key, rows.get(key),
                                 outcome)


def recover_cycle(state: State, outcome: Outcome,
                  pids: Sequence[int], inject: bool = False) -> float:
    """:func:`common.recover_cycle` on both executors, with
    ``RECOVER_TXNS`` operations of the mix since the checkpoint."""
    db = state.db

    def run() -> None:
        segment = run_segment(state, stream(state, RECOVER_TXNS),
                              outcome, pids)
        outcome.attempted += segment.committed
        if inject:
            key = next(key for key, fields in state.oracle.items()
                       if PAIR_FIELD in fields)
            pid = key // state.half
            db.execute_distributed(pair_txn(
                state, key, key % state.half + (1 - pid) * state.half,
                pid, "unrecorded".ljust(100, ".")))

    return common.recover_cycle(db, run, lambda: verify(state, outcome))


def untraced(seed: int, segments: int, inject: bool = False) -> Outcome:
    from repro import Database
    Database().close()
    outcome = Outcome()
    state, setup_s = common.timed_setups(
        lambda: build(seed), lambda built: built.db.close(),
        lambda built: executor_pids())
    db = state.db
    try:
        pids = executor_pids()
        gc.freeze()
        ref = RefTimer()
        plan = plan_segments(state, max(2, segments))
        committed_before = db.committed_txns
        aborted_before = db.aborted_txns
        sim_before = db.now_ns
        measured = [run_segment(state, ops, outcome, pids, ref)
                    for ops in plan]
        sim_ns = db.now_ns - sim_before
        issued = sum(len(ops) for ops in plan)
        # A pair update commits one engine transaction per branch.
        branches = sum(1 for ops in plan for op in ops
                       if op[0] == "pair")
        committed = db.committed_txns - committed_before
        outcome.attempted += issued
        outcome.failed += db.aborted_txns - aborted_before
        if committed != issued + branches:
            outcome.fail(f"{issued} transactions issued ({branches} "
                         f"of them pairs), {committed} engine commits")

        for cycle in range(RECOVER_CYCLES):
            recover_cycle(state, outcome, pids,
                          inject=inject and cycle == 0)
        mixed, unloaded = measured[0::2], measured[1::2]
        outcome.metrics = common.reduce_segments(
            unloaded, mixed, txn_classes=("write",))
        outcome.metrics.update({
            "setup_s": setup_s,
            "peak_rss_mb": common.peak_rss_mb(pids),
            "sim_us_per_txn": sim_ns / issued / 1e3,
        })
        outcome.notes = {
            "mixed_segments": len(mixed),
            "unloaded_segments": len(unloaded),
            "mixed_txns": MIXED_TXNS,
            "unloaded_rounds": UNLOADED_ROUNDS,
            "ref_us": common.raw_host_metrics(mixed)["host.ref_us"],
        }
    finally:
        db.close()
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

SYNC_RTT_SAMPLES = 200


def _rate(segments: Sequence[Segment]) -> float:
    return statistics.median(s.committed / s.wall_s for s in segments)


def traced(seed: int, segments: int) -> Outcome:
    """Per-layer figures of the sharded tier, all taken from the
    coordinator's side: timers around its public calls, executor CPU
    from ``/proc``, the same stream on an in-process two-partition
    ``Database`` as the serial baseline, and a second sharded run with
    the coordinator's methods wrapped for ``trace.overhead_x``."""
    from repro import Database
    Database().close()
    outcome = Outcome()
    count = max(1, segments // 4)
    metrics: Dict[str, float] = {}

    def run(state: State, pids: Sequence[int], tick=None,
            timers=None) -> List[Segment]:
        plan = [stream(state, MIXED_TXNS) for __ in range(count)]
        return [run_segment(state, ops, outcome, pids, None, tick,
                            timers) for ops in plan]

    # -- untraced: timers, CPU split, 2PC, the bare pipe --------------
    state = build(seed)
    try:
        pids = executor_pids()
        gc.freeze()
        timers: Dict[str, float] = {}
        own_cpu = time.process_time()
        executor_cpu = sum(common.proc_cpu_s(pid) for pid in pids)
        sim_before = state.db.now_ns
        nvm_before = state.db.nvm_counters()
        plain = run(state, pids, timers=timers)
        sim_ns = state.db.now_ns - sim_before
        nvm = {name: value - nvm_before[name]
               for name, value in state.db.nvm_counters().items()}
        own_cpu = time.process_time() - own_cpu
        executor_cpu = sum(common.proc_cpu_s(pid)
                           for pid in pids) - executor_cpu
        unloaded = run_segment(
            state, unloaded_rounds(state, UNLOADED_ROUNDS), outcome,
            pids)
        rtts: List[float] = []
        for __ in range(SYNC_RTT_SAMPLES):
            start = time.perf_counter()
            state.db.barrier()
            rtts.append(time.perf_counter() - start)
        metrics["core.database.recover_ms"] = recover_cycle(
            state, outcome, pids)
    finally:
        state.db.close()
    txns = sum(s.committed for s in plain)
    wall = sum(s.wall_s for s in plain)
    metrics.update({
        "dist.coordinator.post_us_per_txn":
            timers["post_s"] / timers["posts"] * 1e6,
        "dist.coordinator.barrier_wait_frac":
            timers["barrier_s"] / wall,
        "dist.coordinator.cpu_us_per_txn": own_cpu / txns * 1e6,
        "dist.executor.cpu_us_per_txn": executor_cpu / txns * 1e6,
        "dist.executor.busy_frac": executor_cpu / wall / len(pids),
        "dist.twopc.dtxn_us":
            statistics.median(unloaded.latency["write"]) * 1e6,
        "harness.ipc.sync_rtt_us": statistics.median(rtts) * 1e6,
        "host.raw_txn_per_s": _rate(plain),
        "host.raw_txn_p50_us":
            statistics.median(unloaded.latency["write"]) * 1e6,
        "host.nproc": float(os.cpu_count() or 1),
    })

    # -- the same stream on one process: the serial baseline ----------
    # The executors only hand out loads and stores; the serial twin
    # must agree on those and on simulated time, and then its other
    # counters stand for theirs.
    serial_state = build(seed, factory=Database)
    sim_before = serial_state.db.now_ns
    counters = platform_counters(serial_state.db)
    serial = run(serial_state, ())
    metrics.update(counter_metrics(
        counters, platform_counters(serial_state.db), txns))
    if serial_state.db.now_ns - sim_before != sim_ns:
        outcome.fail("sharded and serial runs disagree on simulated "
                     f"time: {sim_ns} vs "
                     f"{serial_state.db.now_ns - sim_before} ns")
    for name, sharded_total in nvm.items():
        if metrics[f"nvm.device.{name}_per_txn"] != sharded_total / txns:
            outcome.fail(f"sharded and serial runs disagree on NVM "
                         f"{name} per transaction: "
                         f"{sharded_total / txns} vs "
                         f"{metrics[f'nvm.device.{name}_per_txn']}")
    serial_state.db.close()
    del serial_state
    gc.collect()
    metrics["dist.serial_us_per_txn"] = 1e6 / _rate(serial)
    metrics["dist.tax_x"] = _rate(serial) / _rate(plain)

    # -- traced: the coordinator's methods and the pipe wrapped -------
    recorder = SpanRecorder(keep_txns=KEEP_SPAN_TXNS)
    layers.install_sharded(recorder)
    try:
        state = build(seed)
        try:
            pids = executor_pids()
            recorder.enabled = True
            with_spans = run(state, pids, recorder.next_txn)
            recorder.enabled = False
        finally:
            state.db.close()
    finally:
        recorder.enabled = False
        recorder.uninstall()
    attributed = sum(recorder.layer_self_ns().values()) / 1e9
    metrics["trace.unattributed_frac"] = \
        1.0 - attributed / sum(s.wall_s for s in with_spans)
    metrics["trace.overhead_x"] = _rate(plain) / _rate(with_spans)
    spans_kept = recorder.write_jsonl(
        common.OUT / f"ycsb-sharded-seed{seed}.spans.jsonl")
    outcome.attempted += 3 * txns + unloaded.committed
    outcome.metrics = metrics
    outcome.notes = {"traced_segments": count, "traced_txns": txns,
                     "spans_kept": spans_kept}
    return outcome

"""``ycsb-served``: the full client -> durable-ack path.

A real ``python -m repro serve --engine nvm-inp --port 0`` child with
default group commit; table ``k INT, v INT`` with 4,096 keys (fits the
simulated cache); transactions through ``ReproClient`` /
``ClientSession``: half read-only (``begin``, 2 x ``get``, ``commit``),
half read-write (``begin``, 2 x (``get`` + ``update v=v+1``),
``commit``) — exactly half of each per segment, ordered by the seeded
RNG, so the simulated cost per transaction does not wobble with a
binomial draw.

Segments alternate **lone** (client A runs, client B is parked) and
**pair** (A and B run together). Latencies come from lone segments
(unloaded), throughput from pair segments (under concurrency), CPU
from both. Engine work is under a tenth of a ~3 ms transaction: round
trips, the JSON codec and the 2 ms ``max_hold_wall_s`` park dominate.
Lone vs. pair is the mechanism/bypass pair for "flush at once for a
lone session": that must move lone latency and leave pair throughput
alone.

Exact metrics are taken over the *first lone segment only*, before
any pair segment ran: with two clients the interleaving is decided by
the host's scheduler and the simulated clock differs in the fourth
digit between identical runs.
"""

from __future__ import annotations

import gc
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
import layers
from common import Outcome, RefTimer, Segment
from inproc import (KEEP_SPAN_TXNS, counter_metrics, platform_counters,
                    span_metrics)
from spans import SpanRecorder

KEYS = 4096
TABLE = "kv"
LONE_TXNS = 250
PAIR_TXNS = 220                 # per client
RECOVER_TXNS = 150
#: The second cycle crashes a server that has already recovered once.
RECOVER_CYCLES = 2
LOAD_BATCH = 256
_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")

Txn = Tuple[bool, int, int]     # (read_only, key, key)


def kv_schema():
    from repro.core.schema import Column, ColumnType, Schema
    return Schema.build(TABLE, [Column("k", ColumnType.INT),
                                Column("v", ColumnType.INT)],
                        primary_key=["k"])


def make_txns(rng: random.Random, count: int) -> List[Txn]:
    kinds = [index % 2 == 0 for index in range(count)]
    rng.shuffle(kinds)
    return [(read_only, rng.randrange(KEYS), rng.randrange(KEYS))
            for read_only in kinds]


def run_txns(session, txns: Sequence[Txn], latency: Dict[str, List[float]],
             increments: Dict[int, int], tick=None,
             ref: Optional[RefTimer] = None,
             refs: Optional[List[float]] = None) -> None:
    """The closed loop of one client. ``increments`` collects the
    acknowledged ``v=v+1`` updates per key (this client's share of the
    oracle); a commit that raises propagates and fails the run. With
    ``ref``, one reference transaction is timed into ``refs`` after
    every real one (outside its latency)."""
    clock = time.perf_counter
    reads, writes = latency["read"], latency["write"]
    for read_only, first, second in txns:
        if tick is not None:
            tick()
        start = clock()
        session.begin()
        for key in (first, second):
            row = session.get(TABLE, key)
            if not read_only:
                session.update(TABLE, key, {"v": row["v"] + 1})
        session.commit()
        end = clock()
        if read_only:
            reads.append(end - start)
        else:
            writes.append(end - start)
            increments[first] = increments.get(first, 0) + 1
            increments[second] = increments.get(second, 0) + 1
        if ref is not None:
            ref.sample(refs)


class Stack:
    """A served database plus two connected clients with one session
    each. ``server`` is either a ``repro serve`` child process or an
    in-process ``ServerThread`` (traced run)."""

    def __init__(self, host: str, port: int, child=None, thread=None,
                 log=None) -> None:
        from repro.client import ReproClient
        self.child = child
        self.thread = thread
        self.log = log
        self.clients = [ReproClient(host, port) for __ in range(2)]
        for client in self.clients:
            client.connect()
        self.sessions: List[Any] = []
        #: key -> acknowledged increments, one dict per client so the
        #: two threads never write the same object.
        self.increments: List[Dict[int, int]] = [{}, {}]

    @property
    def admin(self):
        return self.clients[0]

    def load(self) -> None:
        self.admin.create_table(kv_schema())
        self.sessions = [client.session(f"client-{index}")
                         for index, client in enumerate(self.clients)]
        loader = self.sessions[0]
        for base in range(0, KEYS, LOAD_BATCH):
            loader.begin()
            for key in range(base, base + LOAD_BATCH):
                loader.insert(TABLE, {"k": key, "v": 0})
            loader.commit()
        self.admin.checkpoint()

    def pids(self) -> List[int]:
        return [self.child.pid] if self.child is not None else []

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.child is not None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        if self.thread is not None:
            self.thread.stop()
        if self.log is not None:
            self.log.close()

    # -- segments ------------------------------------------------------

    def lone(self, txns: Sequence[Txn], tick=None,
             ref: Optional[RefTimer] = None) -> Segment:
        latency: Dict[str, List[float]] = {"read": [], "write": []}
        refs: List[float] = []
        cpu_start = common.cpu_s(self.pids())
        wall_start = time.perf_counter()
        run_txns(self.sessions[0], txns, latency, self.increments[0],
                 tick, ref, refs)
        wall = time.perf_counter() - wall_start
        return Segment(committed=len(txns), wall_s=wall,
                       cpu_s=common.cpu_s(self.pids()) - cpu_start,
                       latency=latency, ref=refs)

    def pair(self, txns_a: Sequence[Txn], txns_b: Sequence[Txn],
             ref: Optional[RefTimer] = None) -> Segment:
        """Both clients at once; client A (this thread) also times the
        reference transaction after each of its own."""
        latency_a: Dict[str, List[float]] = {"read": [], "write": []}
        latency_b: Dict[str, List[float]] = {"read": [], "write": []}
        refs: List[float] = []
        errors: List[BaseException] = []

        def client_b() -> None:
            try:
                run_txns(self.sessions[1], txns_b, latency_b,
                         self.increments[1])
            except BaseException as exc:        # re-raised below
                errors.append(exc)

        worker = threading.Thread(target=client_b, name="client-b")
        cpu_start = common.cpu_s(self.pids())
        wall_start = time.perf_counter()
        worker.start()
        try:
            run_txns(self.sessions[0], txns_a, latency_a,
                     self.increments[0], None, ref, refs)
        finally:
            worker.join()
        wall = time.perf_counter() - wall_start
        if errors:
            raise errors[0]
        return Segment(committed=len(txns_a) + len(txns_b), wall_s=wall,
                       cpu_s=common.cpu_s(self.pids()) - cpu_start,
                       latency={"read": latency_a["read"]
                                + latency_b["read"],
                                "write": latency_a["write"]
                                + latency_b["write"]}, ref=refs)

    # -- oracle --------------------------------------------------------

    def verify(self, outcome: Outcome) -> None:
        """Every acknowledged increment is in the table: per key, and
        so ``sum(v)`` equals the committed updates."""
        expected: Dict[int, int] = {}
        for increments in self.increments:
            for key, count in increments.items():
                expected[key] = expected.get(key, 0) + count
        session = self.sessions[0]
        session.begin()
        rows = dict((key, row["v"]) for key, row in session.scan(TABLE))
        session.commit()
        if len(rows) != KEYS:
            outcome.fail(f"{len(rows)} keys after recovery, "
                         f"loaded {KEYS}")
        for key, count in expected.items():
            if rows.get(key) != count:
                outcome.fail(f"key {key}: v={rows.get(key)}, "
                             f"acknowledged {count} increments")
        if sum(rows.values()) != sum(expected.values()):
            outcome.fail(f"sum(v)={sum(rows.values())}, acknowledged "
                         f"{sum(expected.values())} increments")

    def unrecorded_write(self) -> None:
        run_txns(self.sessions[0], [(False, 0, 1)],
                 {"read": [], "write": []}, {})

    def recover_cycle(self, txns: Sequence[Txn], outcome: Outcome,
                      inject: bool = False) -> float:
        """:func:`common.recover_cycle` through the admin connection,
        with ``txns`` committed since the checkpoint."""
        def run() -> None:
            self.lone(txns)
            outcome.attempted += len(txns)
            if inject:
                self.unrecorded_write()

        return common.recover_cycle(self.admin, run,
                                    lambda: self.verify(outcome))


def start_child(tag: str) -> Stack:
    """Launch ``repro serve`` and wait for its listening banner."""
    common.OUT.mkdir(exist_ok=True)
    log_path = common.OUT / f"ycsb-served-{tag}.server.log"
    log = log_path.open("w", encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--engine", "nvm-inp",
         "--port", "0"],
        stdout=log, stderr=subprocess.STDOUT, env=common.child_env(),
        cwd=str(common.ROOT))
    deadline = time.monotonic() + 30.0
    try:
        while True:
            banner = _BANNER.search(
                log_path.read_text(encoding="utf-8"))
            if banner:
                break
            if child.poll() is not None \
                    or time.monotonic() > deadline:
                raise RuntimeError(
                    f"repro serve did not come up; see {log_path}")
            time.sleep(0.01)
        return Stack(banner.group(1), int(banner.group(2)),
                     child=child, log=log)
    except BaseException:
        child.kill()
        child.wait()
        log.close()
        raise


def build_child(tag: str) -> Stack:
    stack = start_child(tag)
    try:
        stack.load()
    except BaseException:
        stack.close()
        raise
    return stack


def plan_segments(seed: int, segments: int
                  ) -> List[Tuple[List[Txn], Optional[List[Txn]]]]:
    """``segments`` alternating lone / pair segments' inputs."""
    rng = random.Random(seed)
    plan: List[Tuple[List[Txn], Optional[List[Txn]]]] = []
    for index in range(segments):
        if index % 2 == 0:
            plan.append((make_txns(rng, LONE_TXNS), None))
        else:
            plan.append((make_txns(rng, PAIR_TXNS),
                         make_txns(rng, PAIR_TXNS)))
    return plan


def run_plan(stack: Stack, plan, ref: Optional[RefTimer] = None
             ) -> Tuple[List[Segment], List[Segment]]:
    lone: List[Segment] = []
    pair: List[Segment] = []
    for txns_a, txns_b in plan:
        if txns_b is None:
            lone.append(stack.lone(txns_a, None, ref))
        else:
            pair.append(stack.pair(txns_a, txns_b, ref))
    return lone, pair


def untraced(seed: int, segments: int, inject: bool = False) -> Outcome:
    from repro import Database
    Database().close()
    outcome = Outcome()
    counter = iter(range(10 ** 6))
    stack, setup_s = common.timed_setups(
        lambda: build_child(f"seed{seed}-setup{next(counter)}"),
        Stack.close, Stack.pids)
    try:
        gc.freeze()
        ref = RefTimer()
        plan = plan_segments(seed, max(2, segments))
        cycles = [make_txns(random.Random(seed * 1000 + cycle),
                            RECOVER_TXNS)
                  for cycle in range(RECOVER_CYCLES)]
        before = stack.admin.stats()

        # First lone segment on its own: the exact metrics' window.
        sim_before = stack.admin.ping()["now_ns"]
        first = stack.lone(plan[0][0], None, ref)
        sim_ns = stack.admin.ping()["now_ns"] - sim_before
        lone, pair = run_plan(stack, plan[1:], ref)
        lone.insert(0, first)

        after = stack.admin.stats()
        issued = sum(s.committed for s in lone + pair)
        outcome.attempted += issued
        committed = after["committed_txns"] - before["committed_txns"]
        outcome.failed += after["aborted_txns"] - before["aborted_txns"] \
            + after["errors"] - before["errors"] \
            + after["admission"]["shed"] - before["admission"]["shed"]
        if committed != issued:
            outcome.fail(f"{issued} transactions issued, "
                         f"{committed} committed")

        for cycle, txns in enumerate(cycles):
            stack.recover_cycle(txns, outcome,
                                inject=inject and cycle == 0)
        outcome.metrics = common.reduce_segments(lone, pair)
        outcome.metrics.update({
            "setup_s": setup_s,
            "peak_rss_mb": common.peak_rss_mb(stack.pids()),
            "sim_us_per_txn": sim_ns / first.committed / 1e3,
        })
        outcome.notes = {
            "lone_segments": len(lone), "pair_segments": len(pair),
            "lone_txns": LONE_TXNS, "pair_txns_per_client": PAIR_TXNS,
            "ref_us": common.raw_host_metrics(lone)["host.ref_us"],
        }
    finally:
        stack.close()
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

PING_SAMPLES = 200
#: Frames kept for the codec rung (requests and responses).
FRAME_SAMPLES = 4000


class TimedSession:
    """A ``ClientSession`` whose verbs are timed one by one — the
    client rungs: one round trip each."""

    def __init__(self, session, rtt: Dict[str, List[float]]) -> None:
        self._session = session
        self._rtt = rtt

    def _timed(self, verb: str, call, *args):
        start = time.perf_counter()
        result = call(*args)
        self._rtt.setdefault(verb, []).append(
            time.perf_counter() - start)
        return result

    def begin(self):
        return self._timed("begin", self._session.begin)

    def get(self, table, key):
        return self._timed("get", self._session.get, table, key)

    def update(self, table, key, changes):
        return self._timed("update", self._session.update, table, key,
                           changes)

    def commit(self):
        return self._timed("commit", self._session.commit)


def _group_commit(stats: Dict[str, Any]) -> Dict[str, float]:
    stage = stats["group_commit"][0]
    return {"txns": stage["txns"], "batches": stage["batches"],
            "rounds": stage["durability_rounds"],
            "timer": stage["flush_reasons"].get("timer", 0)}


def _group_commit_metrics(kind: str, deltas: List[Dict[str, float]]
                          ) -> Dict[str, float]:
    total = {name: sum(delta[name] for delta in deltas)
             for name in ("txns", "batches", "rounds", "timer")}
    batches = total["batches"] or 1
    return {
        f"server.groupcommit.mean_batch.{kind}":
            total["txns"] / batches,
        f"server.groupcommit.rounds_per_txn.{kind}":
            total["rounds"] / (total["txns"] or 1),
        f"server.groupcommit.timer_flush_frac.{kind}":
            total["timer"] / batches,
    }


def _build_thread() -> Stack:
    from repro.server import ServerConfig, ServerThread
    thread = ServerThread(ServerConfig(engine="nvm-inp", port=0))
    host, port = thread.start()
    stack = Stack(host, port, thread=thread)
    try:
        stack.load()
    except BaseException:
        stack.close()
        raise
    return stack


def _lone_rate(segments: Sequence[Segment]) -> float:
    return statistics.median(s.committed / s.busy_s for s in segments)


def _inprocess_us_per_txn(txns: Sequence[Txn]) -> float:
    """The same transaction mix on an in-process ``Database`` session:
    the denominator of the serving tax."""
    from repro import Database
    db = Database("nvm-inp")
    db.create_table(kv_schema())
    session = db.session("baseline")
    for base in range(0, KEYS, LOAD_BATCH):
        session.begin()
        for key in range(base, base + LOAD_BATCH):
            session.insert(TABLE, {"k": key, "v": 0})
        session.commit()
    db.checkpoint()
    db.settle()
    start = time.perf_counter()
    run_txns(session, txns, {"read": [], "write": []}, {})
    elapsed = time.perf_counter() - start
    db.close()
    return elapsed / len(txns) * 1e6


def traced(seed: int, segments: int) -> Outcome:
    from repro import Database
    Database().close()
    outcome = Outcome()
    count = max(2, segments // 4)
    plan = plan_segments(seed, count)
    lone_plan = [txns for txns, other in plan if other is None]
    metrics: Dict[str, float] = {}

    # -- A: the real child, untraced: round trips, CPU, group commit --
    stack = build_child(f"seed{seed}-trace")
    try:
        gc.freeze()
        pings: List[float] = []
        for __ in range(PING_SAMPLES):
            start = time.perf_counter()
            stack.admin.ping()
            pings.append(time.perf_counter() - start)
        rtt: Dict[str, List[float]] = {}
        plain_session = stack.sessions[0]
        timed_session = TimedSession(plain_session, rtt)
        before = stack.admin.stats()
        deltas: Dict[str, List[Dict[str, float]]] = {
            "lone": [], "pair": []}
        lone: List[Segment] = []
        pair: List[Segment] = []
        child_cpu = common.proc_cpu_s(stack.child.pid)
        for txns_a, txns_b in plan:
            gc_before = _group_commit(stack.admin.stats())
            if txns_b is None:
                # Verb by verb, and client CPU (this process alone),
                # on lone segments only.
                stack.sessions[0] = timed_session
                own_cpu = time.process_time()
                segment = stack.lone(txns_a)
                segment.cpu_s = time.process_time() - own_cpu
                stack.sessions[0] = plain_session
                lone.append(segment)
            else:
                pair.append(stack.pair(txns_a, txns_b))
            gc_after = _group_commit(stack.admin.stats())
            deltas["lone" if txns_b is None else "pair"].append(
                {name: gc_after[name] - gc_before[name]
                 for name in gc_after})
        child_cpu = common.proc_cpu_s(stack.child.pid) - child_cpu
        after = stack.admin.stats()
        metrics["core.database.recover_ms"] = stack.recover_cycle(
            make_txns(random.Random(seed), RECOVER_TXNS), outcome)
        issued = sum(s.committed for s in lone + pair)
        outcome.attempted += issued
        lone_txns = sum(s.committed for s in lone)
        verbs = sum(len(values) for values in rtt.values())

        def median_us(values: Sequence[float]) -> float:
            return statistics.median(values) * 1e6

        metrics.update({
            "client.ping_rtt_us": median_us(pings),
            "client.begin_rtt_us": median_us(rtt["begin"]),
            "client.get_rtt_us": median_us(rtt["get"]),
            "client.update_rtt_us": median_us(rtt["update"]),
            "client.commit_rtt_us": median_us(rtt["commit"]),
            "client.round_trips_per_txn": verbs / lone_txns,
            "client.cpu_us_per_txn":
                sum(s.cpu_s for s in lone) / lone_txns * 1e6,
            "server.groupcommit.commit_park_us":
                median_us(rtt["commit"]) - median_us(pings),
            "server.server.cpu_us_per_txn": child_cpu / issued * 1e6,
            "server.server.admission_waits": float(
                after["admission"]["waits"]
                - before["admission"]["waits"]),
            "server.server.errors": float(
                after["errors"] - before["errors"]),
        })
        metrics.update(common.raw_host_metrics(lone))
        for kind in ("lone", "pair"):
            metrics.update(_group_commit_metrics(kind, deltas[kind]))
        served_us = 1e6 / _lone_rate(lone)
    finally:
        stack.close()

    # -- B: in-process ServerThread, untraced: the overhead baseline,
    # and the simulated hardware's counters, which no verb exposes on
    # a child (one client, so they are exact) ---------------------------
    stack = _build_thread()
    try:
        database = stack.thread.server.database
        counters = platform_counters(database)
        plain = [stack.lone(txns) for txns in lone_plan]
        metrics.update(counter_metrics(
            counters, platform_counters(database),
            sum(s.committed for s in plain)))
        metrics["nvm.allocator.live_bytes_per_tuple"] = sum(
            p.platform.allocator.allocated_bytes
            for p in database.partitions) / KEYS
        metrics["engines.footprint_bytes_per_tuple"] = \
            sum(database.storage_breakdown().values()) / KEYS
        plain_rate = _lone_rate(plain)
    finally:
        stack.close()

    # -- C: the same with every layer wrapped -------------------------
    import repro.client.client as client_module
    import repro.server.server as server_module
    from repro.server.protocol import FrameDecoder, encode_frame
    frames: List[Tuple[Dict[str, Any], bytes]] = []

    def capturing_encode(payload, **kwargs):
        frame = encode_frame(payload, **kwargs)
        if len(frames) < FRAME_SAMPLES:
            frames.append((payload, frame))
        return frame

    recorder = SpanRecorder(keep_txns=KEEP_SPAN_TXNS)
    client_module.encode_frame = capturing_encode
    server_module.encode_frame = capturing_encode
    layers.install_inprocess(recorder)
    layers.install_served(recorder)
    try:
        stack = _build_thread()
        try:
            frames.clear()
            recorder.enabled = True
            with_spans = [stack.lone(txns, recorder.next_txn)
                          for txns in lone_plan]
            recorder.enabled = False
            stack.verify(outcome)
        finally:
            stack.close()
    finally:
        recorder.enabled = False
        recorder.uninstall()
        client_module.encode_frame = encode_frame
        server_module.encode_frame = encode_frame
    txns = sum(s.committed for s in with_spans)
    outcome.attempted += 2 * txns
    metrics.update(span_metrics(recorder, txns))
    busy = sum(s.busy_s for s in with_spans)
    in_layers = sum(ns for layer, ns in recorder.layer_self_ns().items()
                    if layer != "client") / 1e9
    metrics["trace.unattributed_frac"] = 1.0 - in_layers / busy
    metrics["trace.overhead_x"] = plain_rate / _lone_rate(with_spans)
    spans_kept = recorder.write_jsonl(
        common.OUT / f"ycsb-served-seed{seed}.spans.jsonl")

    # -- the codec alone, on the frames that run put on the wire ------
    start = time.perf_counter()
    for payload, __ in frames:
        encode_frame(payload)
    encode_s = time.perf_counter() - start
    decoder = FrameDecoder()
    start = time.perf_counter()
    for __, frame in frames:
        decoder.feed(frame)
    decode_s = time.perf_counter() - start
    metrics.update({
        "server.protocol.encode_us_per_frame":
            encode_s / len(frames) * 1e6,
        "server.protocol.decode_us_per_frame":
            decode_s / len(frames) * 1e6,
        "server.protocol.bytes_per_txn":
            sum(len(frame) for __, frame in frames)
            / len(frames) * 2 * metrics["client.round_trips_per_txn"],
    })

    # -- D: the serving tax -------------------------------------------
    metrics["server.tax_x"] = served_us / _inprocess_us_per_txn(
        lone_plan[0])
    outcome.metrics = metrics
    outcome.notes = {"lone_segments": len(lone),
                     "pair_segments": len(pair), "traced_txns": txns,
                     "spans_kept": spans_kept,
                     "frames_sampled": len(frames)}
    return outcome

"""``ycsb-inproc``: the paper's core loop, nothing stacked on top.

``Database("nvm-inp")``, one partition, YCSB balanced / low skew over
2,000 tuples (about 2 MB, 8x the 256 KiB simulated cache; the hot
fifth alone is larger than the cache), issued through
``Database.execute``. ``nvm.cache``, ``nvm.allocator``,
``index``, ``engines`` and ``core.*`` do all the work; the network,
codec, group-commit, pipe and filesystem layers do none. Read class =
read transaction, write class = update transaction. Its µs/txn is
also the yardstick the serving and sharding taxes are quoted against.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import Outcome, RefTimer, Segment
from inproc import InprocWorkload

TUPLES = 2000
CACHE_BYTES = 256 * 1024


class State:
    def __init__(self, db, workload) -> None:
        self.db = db
        self.workload = workload
        #: key -> {field: last acknowledged value}
        self.oracle: Dict[int, Dict[str, str]] = {}


def build_database(engine: str, seed: int, partitions: int = 1,
                   factory=None):
    """A loaded, checkpointed, settled YCSB database (also used by the
    sharded workload and its serial baseline)."""
    from repro import Database
    from repro.config import CacheConfig, PlatformConfig
    from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

    workload = YCSBWorkload(
        YCSBConfig(num_tuples=TUPLES, mixture="balanced", skew="low",
                   seed=seed), partitions=partitions)
    db = (factory or Database)(
        engine, partitions=partitions, seed=seed,
        platform_config=PlatformConfig(
            cache=CacheConfig(capacity_bytes=CACHE_BYTES), seed=seed))
    workload.load(db)
    db.checkpoint()
    db.settle()
    return db, workload


def check_row(oracle: Dict[int, Dict[str, str]], key: int,
              row: Optional[Dict[str, Any]], outcome: Outcome) -> None:
    """``row`` must carry every acknowledged field value of ``key``."""
    expected = oracle.get(key)
    if row is None:
        outcome.fail(f"key {key} missing")
    elif expected:
        for field_name, value in expected.items():
            if row[field_name] != value:
                outcome.fail(
                    f"key {key}.{field_name}: acknowledged write lost")


class YCSBInproc(InprocWorkload):
    name = "ycsb-inproc"
    segment_txns = 3600
    recover_txns = 800
    #: One reference transaction per this many real ones: 450 samples
    #: a segment put the mean reference cost within about 1%.
    ref_every = 8

    def build(self, seed: int) -> State:
        return State(*build_database("nvm-inp", seed))

    def database(self, state: State):
        return state.db

    def tuples(self, state: State) -> int:
        return TUPLES

    def stream(self, state: State, count: int) -> List[Tuple]:
        return list(state.workload.transactions(count))

    def run_segment(self, state: State, txns: Sequence[Tuple],
                    outcome: Outcome, ref: Optional[RefTimer],
                    tick=None) -> Segment:
        execute = state.db.execute
        oracle = state.oracle
        clock = time.perf_counter
        ref_every = self.ref_every
        reads: List[float] = []
        writes: List[float] = []
        refs: List[float] = []
        cpu_start = time.process_time()
        wall_start = clock()
        for index, (procedure, args, pid) in enumerate(txns):
            if tick is not None:
                tick()
            start = clock()
            row = execute(procedure, *args, partition=pid)
            end = clock()
            if len(args) == 2:                      # (table, key)
                reads.append(end - start)
                if args[1] in oracle:
                    check_row(oracle, args[1], row, outcome)
            else:                       # (table, key, field, value)
                writes.append(end - start)
                oracle.setdefault(args[1], {})[args[2]] = args[3]
            if ref is not None and index % ref_every == 0:
                ref.sample(refs)
        wall = clock() - wall_start
        return Segment(committed=len(txns), wall_s=wall,
                       cpu_s=time.process_time() - cpu_start,
                       latency={"read": reads, "write": writes},
                       ref=refs)

    def verify(self, state: State, outcome: Outcome) -> None:
        from repro.workloads.ycsb import YCSBWorkload
        for key in state.oracle:
            check_row(state.oracle, key,
                      state.db.get(YCSBWorkload.TABLE, key), outcome)

    def unrecorded_write(self, state: State) -> None:
        from repro.workloads.ycsb import YCSBWorkload
        key, fields = next(iter(state.oracle.items()))
        state.db.update(YCSBWorkload.TABLE, key,
                        {next(iter(fields)): "unrecorded".ljust(100, ".")})

"""Micro and macro benches over the emulated platform, each run once.

Two layers:

* **micro** — the cache-model primitives (``load``, ``store``,
  ``sync_ranges``, ``touch_write``, ``load_batch``) driven directly
  with deterministic access patterns. These isolate the per-line
  bookkeeping the fast paths target.
* **macro** — the YCSB balanced smoke and a TPC-C smoke per engine,
  timed over the measured run phase (after the initial load, as in the
  paper's Section 5 protocol).

What a bench is *for* is its fingerprint: ``sim_time_ns`` plus a small
set of counters. The simulated outputs are deterministic, so comparing
them against the committed baseline is a cost-model drift check — no
change may move what the emulator measures. ``wall_s`` is recorded as
orientation only: one sample on a shared host, never gated (wall-clock
questions go to ``benchmarks/ladder``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import CacheConfig, LatencyProfile, PlatformConfig
from ..core.database import Database
from ..engines.base import ENGINE_NAMES
from ..nvm.platform import Platform
from ..workloads.tpcc import TPCCConfig, TPCCWorkload
from ..workloads.ycsb import YCSBConfig, YCSBWorkload

#: Counters recorded as the determinism fingerprint of a bench.
FINGERPRINT_COUNTERS = (
    "cache.clflush", "cache.clwb", "cache.sfence", "cache.sync",
    "nvm.loads", "nvm.stores",
)

#: Engines outside the paper's six whose tuples take the same slotted
#: codec; the gate fingerprints them too (``ENGINE_NAMES.ALL`` stays
#: the paper's six).
EXTENSION_ENGINES = ("nvm-mvcc", "hybrid-inp")

#: Working set driven by the micro benches (larger than the cache).
_MICRO_SPAN = 128 * 1024


@dataclass
class BenchResult:
    """One bench run: its sim fingerprint, plus the wall time it took."""

    name: str
    kind: str               # "micro" | "macro"
    ops: int                # operations (micro) or transactions (macro)
    wall_s: float
    sim_time_ns: float
    extra: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ops": self.ops,
            "wall_s": self.wall_s,
            "ops_per_s": self.ops_per_s,
            "sim_time_ns": self.sim_time_ns,
            "counters": dict(self.counters),
            "extra": dict(self.extra),
        }


def _bench_platform() -> Platform:
    return Platform(PlatformConfig(
        latency=LatencyProfile.dram(),
        cache=CacheConfig(capacity_bytes=256 * 1024),
        nvm_capacity_bytes=4 * 1024 * 1024))


# ----------------------------------------------------------------------
# Micro benches: cache-model primitives
# ----------------------------------------------------------------------

def _micro(name: str, ops: int,
           body: Callable[[Platform], None]) -> BenchResult:
    platform = _bench_platform()
    start = time.perf_counter()
    body(platform)
    wall = time.perf_counter() - start
    counters = {key: platform.stats.counter(key)
                for key in FINGERPRINT_COUNTERS
                if platform.stats.counter(key)}
    return BenchResult(
        name=name, kind="micro", ops=ops, wall_s=wall,
        sim_time_ns=platform.clock.now_ns, counters=counters)


def _micro_specs(quick: bool
                 ) -> List[Tuple[str, int, Callable[[Platform], None]]]:
    scale = 1 if quick else 4
    span = _MICRO_SPAN
    n = 20_000 * scale
    runs = 4_000 * scale
    syncs = 2_000 * scale
    batches = 2_000 * scale

    def load_single(p: Platform) -> None:
        load = p.cache.load
        for i in range(n):
            load((i * 192) % span, 8)

    def store_single(p: Platform) -> None:
        store = p.cache.store
        payload = b"abcdefgh"
        for i in range(n):
            store((i * 192) % span, payload)

    def load_run(p: Platform) -> None:
        load = p.cache.load
        for i in range(runs):
            load((i * 384) % span, 256)

    def touch_write_run(p: Platform) -> None:
        touch = p.cache.touch_write
        for i in range(runs):
            touch((i * 640) % span, 512)

    def store_sync_ranges(p: Platform) -> None:
        store = p.cache.store
        sync = p.cache.sync_ranges
        payload = b"x" * 48
        for i in range(syncs):
            base = (i * 512) % span
            store(base, payload)
            store(base + 64, payload)
            sync(((base, 48), (base + 64, 48)))

    def load_batch(p: Platform) -> None:
        batch = p.cache.load_batch
        for i in range(batches):
            base = (i * 1024) % span
            batch(((base, 40), (base + 200, 40), (base + 700, 40)))

    def mixed(p: Platform) -> None:
        cache = p.cache
        for i in range(n // 4):
            base = (i * 320) % (96 * 1024)
            cache.store(base, b"0123456789abcdef")
            cache.load(base, 16)
            cache.sync(base, 16)
            cache.load((base + 4096) % (96 * 1024), 8)

    return [
        ("micro/load_single_line", n, load_single),
        ("micro/store_single_line", n, store_single),
        ("micro/load_run_256B", runs, load_run),
        ("micro/touch_write_512B", runs, touch_write_run),
        ("micro/store_sync_ranges", syncs, store_sync_ranges),
        ("micro/load_batch_3x40B", batches, load_batch),
        ("micro/mixed_store_load_sync", n, mixed),
    ]


def run_micro_benches(quick: bool = False,
                      only: Optional[str] = None) -> List[BenchResult]:
    """Drive the cache primitives with deterministic patterns."""
    return [_micro(name, ops, body)
            for name, ops, body in _micro_specs(quick)
            if not only or only in name]


# ----------------------------------------------------------------------
# Macro benches: end-to-end engine smoke
# ----------------------------------------------------------------------

def _macro_database(engine: str, seed: int,
                    cache_bytes: int) -> Database:
    # Mirrors the harness runner's platform defaults so the simulated
    # outputs match `repro ycsb` / `repro tpcc` runs point for point.
    return Database(engine=engine,
                    platform_config=PlatformConfig.for_engine(
                        engine,
                        latency=LatencyProfile.dram(),
                        cache=CacheConfig(capacity_bytes=cache_bytes),
                        seed=seed),
                    seed=seed)


def _fingerprint(db: Database) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for partition in db.partitions:
        for name in FINGERPRINT_COUNTERS:
            value = partition.platform.stats.counter(name)
            if value:
                totals[name] = totals.get(name, 0) + value
    return totals


def _timed_smoke(name: str, db: Database, workload, txns: int,
                 extra: Dict[str, float]) -> BenchResult:
    """Load, then time the run phase."""
    load_start = time.perf_counter()
    workload.load(db)
    db.checkpoint()
    db.settle()
    load_wall = time.perf_counter() - load_start
    sim_start = db.now_ns
    start = time.perf_counter()
    workload.run(db, txns)
    db.settle()
    wall = time.perf_counter() - start
    result = BenchResult(
        name=name, kind="macro", ops=txns, wall_s=wall,
        sim_time_ns=db.now_ns - sim_start, counters=_fingerprint(db),
        extra={**extra, "load_wall_s": load_wall})
    db.close()
    return result


def _macro_ycsb(engine: str, tuples: int, txns: int,
                seed: int = 31) -> BenchResult:
    workload = YCSBWorkload(YCSBConfig(
        num_tuples=tuples, mixture="balanced", skew="low", seed=seed))
    return _timed_smoke(
        f"macro/ycsb_balanced/{engine}",
        _macro_database(engine, seed, cache_bytes=256 * 1024),
        workload, txns, {"tuples": tuples, "seed": seed})


def _macro_tpcc(engine: str, txns: int, seed: int = 47) -> BenchResult:
    return _timed_smoke(
        f"macro/tpcc/{engine}",
        _macro_database(engine, seed, cache_bytes=512 * 1024),
        TPCCWorkload(TPCCConfig(seed=seed)), txns, {"seed": seed})


def run_macro_benches(quick: bool = False,
                      engines: Optional[List[str]] = None,
                      only: Optional[str] = None) -> List[BenchResult]:
    """YCSB balanced + TPC-C smoke per engine (run phase timed); by
    default the paper's six engines and then the extension engines."""
    engines = list(engines) if engines \
        else [*ENGINE_NAMES.ALL, *EXTENSION_ENGINES]
    tuples, txns = (1000, 1000) if quick else (2000, 4000)
    tpcc_txns = 100 if quick else 300
    results = []
    for engine in engines:
        name = f"macro/ycsb_balanced/{engine}"
        if not only or only in name:
            results.append(_macro_ycsb(engine, tuples, txns))
    for engine in engines:
        name = f"macro/tpcc/{engine}"
        if not only or only in name:
            results.append(_macro_tpcc(engine, tpcc_txns))
    return results


def run_bench(quick: bool = False,
              engines: Optional[List[str]] = None,
              only: Optional[str] = None) -> List[BenchResult]:
    """Run the full harness; ``only`` substring-filters bench names."""
    results = run_micro_benches(quick=quick, only=only)
    results.extend(run_macro_benches(quick=quick, engines=engines,
                                     only=only))
    return results

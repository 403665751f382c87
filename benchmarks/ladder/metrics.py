"""The benchmark's metric catalogue: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root is written from these tables
(``tests/test_contract.py`` holds the two against each other), and
``run.py`` reports exactly these names: every end-to-end metric on
every workload, and every per-layer metric from the traced run — a
layer that does no work in a workload reports 0, and so, in the
driver's result line only, does a metric the workload cannot measure
(see ``run.report``).

Bounds are the share of the parent's median by which a metric may get
worse. One bound serves all four workloads, so it is sized from the
widest run-to-run quartile spread any workload shows in
``results/AA.md``. Every wall-clock metric has a workload that spreads
10-19% in a bad hour on this shared host (3-8% in a good one), so
each carries 25%, the widest the contract allows; memory and the
simulated clock spread under 1% and carry 5% and 2%. A gain or a loss
smaller than the bound is still measured the paired way the
choosing-metrics guide prescribes.
"""

from __future__ import annotations

from typing import List, Tuple

from layers import INPROC_LAYERS

WORKLOADS: List[Tuple[str, str]] = [
    ("ycsb-inproc",
     "in-process nvm-inp, 2 MB of tuples over a 256 KiB simulated "
     "cache: cache, allocator, index, engine and core do all the work; "
     "network, codec, group commit, pipes and filesystem do none"),
    ("tpcc-inproc",
     "in-process inp engine on TPC-C: inserts, deletes, scans, "
     "secondary indexes; the only workload where filesystem, WAL and "
     "checkpoints carry commits and recovery is WAL replay"),
    ("ycsb-served",
     "a real repro serve child, alternating lone and pair client "
     "segments over a cache-resident table: round trips, JSON codec "
     "and the 2 ms group-commit park dominate, engine work is <10%"),
    ("ycsb-sharded",
     "two executor processes behind ShardedDatabase, 80% posted, 10% "
     "sync get, 10% two-partition 2PC: coordinator, pipe and 2PC "
     "dominate; bypasses every server layer"),
]

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("txn_per_s", "1/s", "higher", 0.25),
    ("txn_p95_us", "us", "lower", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("cpu_us_per_txn", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_us_per_txn", "us", "lower", 0.02),
]

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    *[(f"{layer}.self_us_per_txn", "us", "lower")
      for layer in INPROC_LAYERS],
    *[(f"{layer}.calls_per_txn", "count", "lower")
      for layer in INPROC_LAYERS],
    ("nvm.device.loads_per_txn", "count", "lower"),
    ("nvm.device.stores_per_txn", "count", "lower"),
    ("nvm.cache.hit_rate", "ratio", "higher"),
    ("nvm.cache.sync_per_txn", "count", "lower"),
    ("nvm.cache.sfence_per_txn", "count", "lower"),
    ("nvm.cache.lines_flushed_per_txn", "count", "lower"),
    ("nvm.allocator.malloc_per_txn", "count", "lower"),
    ("nvm.allocator.live_bytes_per_tuple", "B", "lower"),
    ("nvm.filesystem.fsync_per_txn", "count", "lower"),
    ("nvm.filesystem.bytes_per_txn", "B", "lower"),
    ("index.get_us", "us", "lower"),
    ("index.put_us", "us", "lower"),
    ("engines.read_op_us", "us", "lower"),
    ("engines.write_op_us", "us", "lower"),
    ("engines.commit_us", "us", "lower"),
    ("engines.checkpoint_ms", "ms", "lower"),
    ("engines.checkpoints", "count", "lower"),
    ("engines.recover_ms", "ms", "lower"),
    ("core.database.recover_ms", "ms", "lower"),
    ("engines.footprint_bytes_per_tuple", "B", "lower"),
    ("client.begin_rtt_us", "us", "lower"),
    ("client.get_rtt_us", "us", "lower"),
    ("client.update_rtt_us", "us", "lower"),
    ("client.commit_rtt_us", "us", "lower"),
    ("client.ping_rtt_us", "us", "lower"),
    ("client.round_trips_per_txn", "count", "lower"),
    ("client.cpu_us_per_txn", "us", "lower"),
    ("server.protocol.encode_us_per_frame", "us", "lower"),
    ("server.protocol.decode_us_per_frame", "us", "lower"),
    ("server.protocol.bytes_per_txn", "B", "lower"),
    ("server.groupcommit.commit_park_us", "us", "lower"),
    ("server.groupcommit.mean_batch.lone", "count", "higher"),
    ("server.groupcommit.mean_batch.pair", "count", "higher"),
    ("server.groupcommit.rounds_per_txn.lone", "count", "lower"),
    ("server.groupcommit.rounds_per_txn.pair", "count", "lower"),
    ("server.groupcommit.timer_flush_frac.lone", "ratio", "lower"),
    ("server.groupcommit.timer_flush_frac.pair", "ratio", "lower"),
    ("server.server.cpu_us_per_txn", "us", "lower"),
    ("server.server.admission_waits", "count", "lower"),
    ("server.server.errors", "count", "lower"),
    ("server.tax_x", "x", "lower"),
    ("dist.coordinator.post_us_per_txn", "us", "lower"),
    ("dist.coordinator.barrier_wait_frac", "ratio", "lower"),
    ("dist.coordinator.cpu_us_per_txn", "us", "lower"),
    ("dist.executor.cpu_us_per_txn", "us", "lower"),
    ("dist.executor.busy_frac", "ratio", "higher"),
    ("dist.twopc.dtxn_us", "us", "lower"),
    ("harness.ipc.sync_rtt_us", "us", "lower"),
    ("dist.serial_us_per_txn", "us", "lower"),
    ("dist.tax_x", "x", "lower"),
    ("host.ref_us", "us", "lower"),
    ("host.raw_txn_per_s", "1/s", "higher"),
    ("host.raw_txn_p50_us", "us", "lower"),
    ("host.nproc", "count", "higher"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.recover_ms", "ms", "lower"),
]

RUN_SECONDS = 16
COMMAND = ["python3", "benchmarks/ladder/run.py"]
PATHS = ["benchmarks/ladder"]


def benchmark_json() -> dict:
    """The contract file's content."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }

"""Tests for the sharded execution tier (process-per-partition).

The tier's correctness contract: a sharded run of any spec produces
**byte-identical** simulated results to the serial run of the same
spec — sharding may only change wall-clock time. Everything here is
guarded on the ``fork`` start method like the scheduler's tests.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.core.database import Database
from repro.dist import ShardedDatabase
from repro.errors import (DatabaseClosedError, ShardedError,
                          SimulatedCrash)
from repro.fault.injector import FaultPlan
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec
from repro.obs.session import ObservabilitySession
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.tpcc_audit import audit_tpcc
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="sharded tier tests need the fork "
                          "start method")

TINY = dict(num_tuples=300, num_txns=250, cache_bytes=64 * 1024)

TPCC_TINY = TPCCConfig(warehouses=2, districts_per_warehouse=2,
                       customers_per_district=8, items=25,
                       initial_orders_per_district=4, seed=67)


def _result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Determinism: serial == sharded, byte for byte
# ----------------------------------------------------------------------

def test_ycsb_sharded_result_is_byte_identical():
    spec = ExperimentSpec.ycsb("nvm-inp", **TINY)
    serial = run(spec)
    sharded = run(spec.with_options(sharded=True))
    assert _result_json(serial) == _result_json(sharded)


@pytest.mark.parametrize("engine", ["nvm-inp", "inp"])
def test_ycsb_sharded_multipartition_result_is_byte_identical(engine):
    # ``inp``: reading a counter must not cost simulated time on either
    # transport (sizing its checkpoint file does — see
    # Partition.storage_breakdown).
    spec = ExperimentSpec.ycsb(engine, partitions=4, **TINY)
    serial = run(spec)
    sharded = run(spec.with_options(sharded=True))
    assert _result_json(serial) == _result_json(sharded)


def test_tpcc_sharded_result_is_byte_identical():
    spec = ExperimentSpec.tpcc("nvm-inp", tpcc_config=TPCC_TINY,
                               num_txns=120, partitions=2)
    serial = run(spec)
    sharded = run(spec.with_options(sharded=True))
    assert _result_json(serial) == _result_json(sharded)


def test_sharded_observability_exports_are_byte_identical(tmp_path):
    spec = ExperimentSpec.ycsb("nvm-inp", partitions=2,
                               crash_recover=True, **TINY)
    exports = {}
    for label, point in (("serial", spec),
                        ("sharded",
                         spec.with_options(sharded=True))):
        session = ObservabilitySession()
        run(point, obs=session)
        trace = tmp_path / f"{label}.jsonl"
        metrics = tmp_path / f"{label}.prom"
        session.export_trace(str(trace))
        session.export_metrics(str(metrics))
        exports[label] = (trace.read_bytes(), metrics.read_bytes())
    assert exports["serial"][0] == exports["sharded"][0]
    assert exports["serial"][1] == exports["sharded"][1]


# ----------------------------------------------------------------------
# Coordinator API
# ----------------------------------------------------------------------

def test_executor_errors_surface_with_traceback():
    db = ShardedDatabase(engine="nvm-inp", partitions=2)
    try:
        with pytest.raises(ShardedError) as excinfo:
            db.get("no_such_table", 1)
        assert "no_such_table" in str(excinfo.value)
    finally:
        db.close()


def test_fault_in_posted_work_surfaces_at_the_next_synchronous_verb():
    db = ShardedDatabase(engine="nvm-inp", partitions=2)
    try:
        workload = YCSBWorkload(YCSBConfig(num_tuples=40, seed=3),
                                partitions=2)
        workload.load(db)
        db.arm_faults(FaultPlan([("nvm_wal.append.after_persist", 1)]))
        db.update(YCSBWorkload.TABLE, 1, {"field0": "x"},
                  partition=0)                  # posted
        assert not db.crashed
        # The executor froze at the fault point; the reply to the next
        # synchronous verb is the typed power failure, not a traceback.
        with pytest.raises(SimulatedCrash) as excinfo:
            db.barrier()
        assert excinfo.value.point == "nvm_wal.append.after_persist"
        assert db.crashed
        db.disarm_faults()
        db.recover()
        assert db.get(YCSBWorkload.TABLE, 1,
                      partition=0)["field0"] != "x"
    finally:
        db.close()


def test_what_the_pipe_does_not_serve():
    db = ShardedDatabase(engine="nvm-inp", partitions=2)
    try:
        with pytest.raises(ShardedError):
            db.session().begin()
    finally:
        db.close()
    # The counters live in the executors: gone with them.
    with pytest.raises(DatabaseClosedError):
        db.committed_txns


# ----------------------------------------------------------------------
# TPC-C remote orders: the un-cheated path
# ----------------------------------------------------------------------

def test_remote_new_order_runs_as_distributed_txn():
    config = dataclasses.replace(TPCC_TINY, remote_order_fraction=0.3)
    serial_db = Database(engine="nvm-inp", partitions=2)
    serial = TPCCWorkload(config, partitions=2)
    serial.load(serial_db)
    counts = serial.run(serial_db, 120)
    assert serial.remote_redirected > 0
    assert serial.remote_distributed == 0
    assert audit_tpcc(serial_db, config, partitions=2) == []

    db = ShardedDatabase(engine="nvm-inp", partitions=2)
    try:
        sharded = TPCCWorkload(config, partitions=2)
        sharded.load(db)
        assert sharded.run(db, 120) == counts
        assert sharded.remote_distributed == serial.remote_redirected
        assert sharded.remote_redirected == 0
        # TPC-C consistency conditions hold across the 2PC writes,
        # including after a crash/recovery cycle.
        assert audit_tpcc(db, config, partitions=2) == []
        db.crash()
        db.recover()
        assert audit_tpcc(db, config, partitions=2) == []
    finally:
        db.close()

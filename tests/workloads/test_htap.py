"""Tests for the HTAP workload extension."""

import pytest

from repro import Database, EngineConfig
from repro.errors import WorkloadError
from repro.workloads.htap import HTAPConfig, HTAPWorkload


def test_invalid_config_rejected():
    with pytest.raises(WorkloadError):
        HTAPConfig(scan_fraction=1.5)
    with pytest.raises(WorkloadError):
        HTAPConfig(scan_fraction=0.6, update_fraction=0.6)


def test_operation_mix():
    workload = HTAPWorkload(HTAPConfig(num_tuples=500,
                                       scan_fraction=0.2, seed=1))
    kinds = [kind for kind, __ in workload.operations(2000)]
    scans = kinds.count("scan") / len(kinds)
    assert 0.15 < scans < 0.25


def test_runs_on_engines():
    for engine in ("nvm-inp", "log"):
        workload = HTAPWorkload(HTAPConfig(num_tuples=200,
                                           scan_fraction=0.1, seed=2))
        db = Database(engine=engine, seed=2,
                      engine_config=EngineConfig(
                          memtable_threshold_bytes=16 * 1024))
        workload.load(db)
        counts = workload.run(db, 100)
        assert sum(counts.values()) == 100
        assert counts["scan"] > 0


def test_scan_results_correct():
    workload = HTAPWorkload(HTAPConfig(num_tuples=100, seed=3))
    db = Database(engine="nvm-inp", seed=3)
    workload.load(db)
    from repro.workloads.htap import _scan_txn
    total = db.execute(_scan_txn, workload.TABLE, 0, 10, partition=0)
    # 10 tuples x 100-byte field0.
    assert total == 1000

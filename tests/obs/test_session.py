"""Tests for the observability session and the partition observer.

One session path drives both transports: it broadcasts the partition
contract's ``obs_*`` verbs and merges the replies in partition order.
The sharded cases are guarded on the ``fork`` start method like the
sharded tier's own tests.
"""

import inspect
import multiprocessing

import pytest

from repro.core.database import Database
from repro.dist import ShardedDatabase
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec
from repro.obs.session import ObservabilitySession
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="sharded tier tests need the fork "
                          "start method")
TRANSPORTS = [Database, pytest.param(ShardedDatabase, marks=needs_fork)]

LABELS = dict(engine="nvm-inp", workload="ycsb/test")
PARTITIONS = 3
TXNS = 120


def _loaded(database_class):
    workload = YCSBWorkload(YCSBConfig(num_tuples=90, seed=5),
                            partitions=PARTITIONS)
    db = database_class(engine="nvm-inp", partitions=PARTITIONS)
    workload.load(db)
    return db, workload


def _observed_cycle(db, workload):
    """attach -> window of ``TXNS`` one-operation transactions ->
    detach; returns the session and what ``end_run`` reported."""
    session = ObservabilitySession()
    session.attach(db, **LABELS)
    session.begin_run(db)
    workload.run(db, TXNS)
    stats = session.end_run(db)
    session.detach(db)
    return session, stats


def test_window_metrics_count_each_transaction_once():
    """``end_run`` must not merge into a reply's histogram: in process
    that is partition 0's live instrument, which ``detach`` merges into
    the registry again."""
    db, workload = _loaded(Database)
    committed = db.committed_txns
    session, stats = _observed_cycle(db, workload)
    assert db.committed_txns - committed == TXNS
    find = session.registry.find
    assert find("txn.latency_ns", **LABELS).count == TXNS
    assert find("txns.committed", **LABELS).value == TXNS
    # YCSB transactions are one get or one update each.
    assert sum(find("db.ops", op=op, **LABELS).value
               for op in ("get", "update")) == TXNS
    assert stats["latency_percentiles"]["max"] \
        == find("txn.latency_ns", **LABELS).max
    assert {sample["partition"] for sample in stats["timeseries"]} \
        == set(range(PARTITIONS))


@needs_fork
def test_both_transports_export_the_same_bytes(tmp_path):
    spec = ExperimentSpec.ycsb("nvm-inp", partitions=PARTITIONS,
                               crash_recover=True, num_tuples=150,
                               num_txns=TXNS, cache_bytes=64 * 1024)
    exports = []
    for label, point in (("inproc", spec),
                         ("sharded", spec.with_options(sharded=True))):
        session = ObservabilitySession()
        result = run(point, obs=session)
        trace = tmp_path / f"{label}.jsonl"
        metrics = tmp_path / f"{label}.prom"
        session.export_trace(str(trace))
        session.export_metrics(str(metrics))
        exports.append((trace.read_bytes(), metrics.read_bytes(),
                        result.latency_percentiles, result.timeseries))
    assert exports[0] == exports[1]
    assert exports[0][3]


def test_detach_leaves_the_platform_uninstrumented():
    db, workload = _loaded(Database)
    _observed_cycle(db, workload)
    for partition in db.partitions:
        platform = partition.platform
        assert platform.op_counters is None
        assert platform.txn_latency is None
        assert not platform.tracer.enabled


@pytest.mark.parametrize("database_class", TRANSPORTS)
def test_a_second_cycle_archives_only_itself(database_class):
    db, workload = _loaded(database_class)
    try:
        first, __ = _observed_cycle(db, workload)
        boundary = {partition.partition_id: partition.snapshot()["now_ns"]
                    for partition in db.partitions}
        second, __ = _observed_cycle(db, workload)
    finally:
        db.close()
    assert first.records and second.records
    assert {record["partition"] for record in second.records} \
        == set(boundary)
    for record in second.records:
        start_ns = record["start_ns"] if record["type"] == "span" \
            else record["t_ms"] * 1e6
        assert start_ns >= boundary[record["partition"]]
    assert second.registry.find("txn.latency_ns", **LABELS).count == TXNS


def test_merging_an_attached_session_is_refused():
    db, __ = _loaded(Database)
    session = ObservabilitySession()
    session.attach(db, **LABELS)
    with pytest.raises(ValueError):
        ObservabilitySession().merge(session)
    session.detach(db)
    merged = ObservabilitySession()
    merged.merge(session)
    assert merged.records == session.records


def test_one_observation_path():
    """The session reaches partitions through the contract only; the
    sharded database mirrors none of it."""
    assert ".platform" not in inspect.getsource(ObservabilitySession)
    assert not [name for name in vars(ShardedDatabase)
                if name.startswith("obs_")]

"""Cross-engine conformance: every engine must implement Table 2's
primitive operations with identical observable semantics."""

import pytest

from repro import Database, EngineConfig, PlatformConfig, TransactionAborted
from repro.engines.base import _REGISTRY, StorageEngine, engine_names
from repro.errors import DuplicateKeyError, TupleNotFoundError
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec

from .conftest import sample_row, standard_schema


def test_insert_select(db):
    db.insert("items", sample_row(1))
    assert db.get("items", 1) == sample_row(1)


def test_select_missing(db):
    assert db.get("items", 12345) is None


def test_insert_duplicate_rejected(db):
    db.insert("items", sample_row(1))
    with pytest.raises(DuplicateKeyError):
        db.insert("items", sample_row(1))


def test_update_single_field(db):
    db.insert("items", sample_row(1))
    db.update("items", 1, {"price": 777.0})
    row = db.get("items", 1)
    assert row["price"] == 777.0
    assert row["payload"] == sample_row(1)["payload"]


def test_update_inline_and_varlen_fields(db):
    db.insert("items", sample_row(1))
    db.update("items", 1, {"label": "new", "payload": "fresh" * 10})
    row = db.get("items", 1)
    assert row["label"] == "new"
    assert row["payload"] == "fresh" * 10


def test_update_missing_raises(db):
    with pytest.raises(TupleNotFoundError):
        db.update("items", 999, {"price": 1.0})


def test_repeated_updates(db):
    db.insert("items", sample_row(1))
    for value in range(10):
        db.update("items", 1, {"price": float(value)})
    assert db.get("items", 1)["price"] == 9.0


def test_delete_then_select(db):
    db.insert("items", sample_row(1))
    db.delete("items", 1)
    assert db.get("items", 1) is None


def test_delete_missing_raises(db):
    with pytest.raises(TupleNotFoundError):
        db.delete("items", 999)


def test_delete_then_reinsert(db):
    db.insert("items", sample_row(1))
    db.delete("items", 1)
    fresh = sample_row(1)
    fresh["price"] = -1.0
    db.insert("items", fresh)
    assert db.get("items", 1)["price"] == -1.0


def test_update_after_delete_raises(db):
    db.insert("items", sample_row(1))
    db.delete("items", 1)
    with pytest.raises(TupleNotFoundError):
        db.update("items", 1, {"price": 1.0})


def test_scan_range(db):
    for i in range(20):
        db.insert("items", sample_row(i))
    rows = db.scan("items", lo=5, hi=10)
    assert [key for key, __ in rows] == [5, 6, 7, 8, 9]
    assert rows[0][1] == sample_row(5)


def test_scan_reflects_deletes(db):
    for i in range(10):
        db.insert("items", sample_row(i))
    db.delete("items", 4)
    keys = [key for key, __ in db.scan("items")]
    assert keys == [0, 1, 2, 3, 5, 6, 7, 8, 9]


def test_secondary_index_tracks_inserts_and_deletes(db):
    for i in range(14):
        db.insert("items", sample_row(i))
    matches = db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 3))
    assert matches == [3, 10]
    db.delete("items", 3)
    matches = db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 3))
    assert matches == [10]


def test_secondary_index_tracks_updates(db):
    db.insert("items", sample_row(1))  # category 1
    db.update("items", 1, {"category": 5})
    assert db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 1)) == []
    assert db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 5)) == [1]


def test_transaction_sees_own_writes(db):
    def procedure(ctx):
        ctx.insert("items", sample_row(50))
        assert ctx.get("items", 50) == sample_row(50)
        ctx.update("items", 50, {"price": 3.0})
        assert ctx.get("items", 50)["price"] == 3.0
        ctx.delete("items", 50)
        assert ctx.get("items", 50) is None

    db.execute(procedure)


def test_abort_insert(db):
    def doomed(ctx):
        ctx.insert("items", sample_row(9))
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.get("items", 9) is None


def test_abort_update_restores_old_value(db):
    db.insert("items", sample_row(1))

    def doomed(ctx):
        ctx.update("items", 1, {"price": 0.0, "payload": "garbage"})
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.get("items", 1) == sample_row(1)


def test_abort_delete_restores_tuple(db):
    db.insert("items", sample_row(1))

    def doomed(ctx):
        ctx.delete("items", 1)
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.get("items", 1) == sample_row(1)


def test_abort_restores_secondary_indexes(db):
    db.insert("items", sample_row(1))

    def doomed(ctx):
        ctx.update("items", 1, {"category": 6})
        ctx.delete("items", 1)
        ctx.insert("items", sample_row(24))  # category 24 % 7 == 3
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 1)) == [1]
    assert db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 6)) == []
    assert db.execute(
        lambda ctx: ctx.get_secondary("items", "by_category", 3)) == []


def test_abort_mixed_operations(db):
    for i in range(5):
        db.insert("items", sample_row(i))

    def doomed(ctx):
        ctx.update("items", 0, {"price": -5.0})
        ctx.delete("items", 1)
        ctx.insert("items", sample_row(100))
        ctx.update("items", 100, {"label": "zzz"})
        ctx.delete("items", 100)
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    for i in range(5):
        assert db.get("items", i) == sample_row(i)
    assert db.get("items", 100) is None


def test_many_tuples_consistency(db):
    for i in range(300):
        db.insert("items", sample_row(i))
    for i in range(0, 300, 3):
        db.update("items", i, {"price": -float(i)})
    for i in range(0, 300, 5):
        db.delete("items", i)
    db.flush()
    for i in range(300):
        row = db.get("items", i)
        if i % 5 == 0:
            assert row is None
        elif i % 3 == 0:
            assert row["price"] == -float(i)
        else:
            assert row["price"] == sample_row(i)["price"]


def test_committed_txn_counter(db):
    for i in range(7):
        db.insert("items", sample_row(i))
    assert db.committed_txns == 7


# ----------------------------------------------------------------------
# The engine skeleton: every registered engine (the hybrid one too)
# gets its lifecycle from StorageEngine and supplies only hooks.
# ----------------------------------------------------------------------

LIFECYCLE = ("recover", "on_crash", "commit", "abort", "flush_commits")


def make_registered(engine_name: str) -> Database:
    db = Database(engine=engine_name, seed=23,
                  platform_config=PlatformConfig.for_engine(
                      engine_name, seed=23),
                  engine_config=EngineConfig(group_commit_size=4))
    db.create_table(standard_schema())
    return db


@pytest.mark.parametrize("engine_name", engine_names())
def test_lifecycle_is_defined_only_by_the_base_class(engine_name):
    for cls in _REGISTRY[engine_name].__mro__:
        if cls is StorageEngine or not issubclass(cls, StorageEngine):
            continue
        assert not set(LIFECYCLE) & set(vars(cls)), cls
    assert set(LIFECYCLE) <= set(vars(StorageEngine))


@pytest.mark.parametrize("engine_name", engine_names())
def test_recover_is_traced_and_fault_pointed_once(engine_name):
    db = make_registered(engine_name)
    for i in range(6):
        db.insert("items", sample_row(i))
    platform = db.partitions[0].platform
    platform.tracer.activate()
    db.crash()
    platform.faults.arm()
    db.recover()
    platform.faults.disarm()
    totals = [span for span in platform.tracer.spans
              if span.name == "recovery.total"]
    assert [span.tags for span in totals] == [{"engine": engine_name}]
    assert [point for point in platform.faults.hits
            if point in ("recovery.begin", "recovery.end")] \
        == ["recovery.begin", "recovery.end"]
    assert platform.faults.hits["recovery.begin"] == 1
    assert platform.faults.hits["recovery.end"] == 1


@pytest.mark.parametrize("engine_name", engine_names())
def test_on_crash_forgets_commits_awaiting_a_durable_point(engine_name):
    db = make_registered(engine_name)
    db.insert("items", sample_row(1))   # 1 of group_commit_size=4
    engine = db.partitions[0].engine
    assert len(engine._pending_durable) == 1
    assert engine._commits_since_flush == 1
    engine.on_crash()
    assert engine._pending_durable == []
    assert engine._commits_since_flush == 0


#: storage_breakdown() after a 200-tuple / 200-transaction YCSB run,
#: recorded before the per-engine dicts became one default.
FOOTPRINTS = {
    "inp": (264640, 6864, 25575, 155577, 0),
    "cow": (438792, 0, 0, 0, 415312),
    "log": (233736, 9344, 25575, 0, 0),
    "nvm-inp": (264640, 6864, 24, 0, 0),
    "nvm-cow": (264640, 4112, 0, 0, 528),
    "nvm-log": (233336, 9264, 24, 0, 0),
    "hybrid-inp": (264640, 0, 25575, 155577, 0),
    "nvm-mvcc": (270784, 6864, 24, 0, 24),
}


@pytest.mark.parametrize("engine_name", engine_names())
def test_storage_breakdown_components(engine_name):
    result = run(ExperimentSpec(engine=engine_name, workload="ycsb",
                                num_tuples=200, num_txns=200))
    assert list(result.storage_breakdown) == \
        ["table", "index", "log", "checkpoint", "other"]
    assert tuple(result.storage_breakdown.values()) == \
        FOOTPRINTS[engine_name]

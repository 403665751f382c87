"""Unit tests for the Database facade and transaction execution
(what holds on both transports is in test_database_contract.py)."""

import pytest

from repro import (Column, ColumnType, Database, EngineConfig, Schema,
                   TransactionAborted)
from repro.errors import ConfigError, DuplicateKeyError


def make_db(engine="nvm-inp"):
    return Database(engine=engine,
                    engine_config=EngineConfig(group_commit_size=2),
                    seed=11)


@pytest.fixture
def db():
    database = make_db()
    database.create_table(Schema.build(
        "accounts",
        [Column("id", ColumnType.INT),
         Column("owner", ColumnType.STRING, capacity=20),
         Column("balance", ColumnType.FLOAT)],
        primary_key=["id"],
        secondary_indexes={"by_owner": ["owner"]}))
    return database


def test_insert_and_get(db):
    db.insert("accounts", {"id": 1, "owner": "ada", "balance": 10.0})
    row = db.get("accounts", 1)
    assert row == {"id": 1, "owner": "ada", "balance": 10.0}


def test_get_missing_returns_none(db):
    assert db.get("accounts", 404) is None


def test_update(db):
    db.insert("accounts", {"id": 1, "owner": "ada", "balance": 10.0})
    db.update("accounts", 1, {"balance": 99.5})
    assert db.get("accounts", 1)["balance"] == 99.5


def test_delete(db):
    db.insert("accounts", {"id": 1, "owner": "ada", "balance": 10.0})
    db.delete("accounts", 1)
    assert db.get("accounts", 1) is None


def test_duplicate_insert_raises(db):
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 0.0})
    with pytest.raises(DuplicateKeyError):
        db.insert("accounts", {"id": 1, "owner": "b", "balance": 0.0})


def test_multi_op_transaction(db):
    def transfer(ctx, src, dst, amount):
        a = ctx.get("accounts", src)
        b = ctx.get("accounts", dst)
        ctx.update("accounts", src, {"balance": a["balance"] - amount})
        ctx.update("accounts", dst, {"balance": b["balance"] + amount})

    db.insert("accounts", {"id": 1, "owner": "a", "balance": 100.0})
    db.insert("accounts", {"id": 2, "owner": "b", "balance": 0.0})
    db.execute(transfer, 1, 2, 30.0)
    assert db.get("accounts", 1)["balance"] == 70.0
    assert db.get("accounts", 2)["balance"] == 30.0


def test_abort_rolls_back_everything(db):
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 100.0})

    def doomed(ctx):
        ctx.update("accounts", 1, {"balance": 0.0})
        ctx.insert("accounts", {"id": 2, "owner": "b", "balance": 5.0})
        ctx.abort("changed my mind")

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.get("accounts", 1)["balance"] == 100.0
    assert db.get("accounts", 2) is None
    assert db.aborted_txns == 1


def test_exception_in_procedure_aborts(db):
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 1.0})

    def broken(ctx):
        ctx.update("accounts", 1, {"balance": 2.0})
        raise ValueError("oops")

    with pytest.raises(ValueError):
        db.execute(broken)
    assert db.get("accounts", 1)["balance"] == 1.0


def test_secondary_lookup(db):
    for i, owner in enumerate(["ada", "bob", "ada"]):
        db.insert("accounts",
                  {"id": i, "owner": owner, "balance": 0.0})
    keys = db.execute(
        lambda ctx: ctx.get_secondary("accounts", "by_owner", "ada"))
    assert keys == [0, 2]


def test_scan(db):
    for i in range(10):
        db.insert("accounts",
                  {"id": i, "owner": f"o{i}", "balance": float(i)})
    rows = db.scan("accounts", lo=3, hi=7)
    assert [key for key, __ in rows] == [3, 4, 5, 6]


def test_zero_partitions_rejected():
    with pytest.raises(ConfigError):
        Database(partitions=0)


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError):
        Database(engine="fancy-db")


def test_now_ns_advances(db):
    before = db.now_ns
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 0.0})
    assert db.now_ns > before


def test_nvm_counters_accumulate(db):
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 0.0})
    counters = db.nvm_counters()
    assert counters["loads"] > 0
    assert counters["stores"] > 0


def test_storage_breakdown_components(db):
    db.insert("accounts", {"id": 1, "owner": "a", "balance": 0.0})
    breakdown = db.storage_breakdown()
    assert set(breakdown) == {"table", "index", "log", "checkpoint",
                              "other"}
    assert breakdown["table"] > 0


def test_time_breakdown_fractions(db):
    for i in range(20):
        db.insert("accounts", {"id": i, "owner": "a", "balance": 0.0})
    breakdown = db.time_breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["storage"] > 0

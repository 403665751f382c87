"""A tuple's varlen pointers are read from its slot.

``FixedSlotPool.pointers_of`` is what every release path frees: it
peeks the slot's varlen fields instead of reading a Python copy. On the
in-place engines it must name exactly the pointers a charged slot read
returns, after insert, update, aborted update and recovery, and the
read must cost no simulated time.
"""

import pytest

from repro import Column, ColumnType, Database, EngineConfig, Schema
from repro.errors import TransactionAborted

SCHEMA = Schema.build(
    "docs",
    [Column("id", ColumnType.INT),
     Column("title", ColumnType.STRING, capacity=40),
     Column("tag", ColumnType.STRING, capacity=8),
     Column("body", ColumnType.STRING, capacity=200)],
    primary_key=["id"])


def row(key: int, version: int = 0) -> dict:
    return {"id": key, "title": f"title-{key}-{version}", "tag": "t",
            "body": f"body-{key}-{version}-" + "b" * (key % 50)}


def charged_pointers(store, addr):
    layout = SCHEMA.layout
    fields = layout.fields.unpack_from(store.pool.read_slot(addr))
    return [fields[i] for i in layout.varlen]


def assert_slots_agree(db):
    engine = db.partitions[0].engine
    store = engine._tables["docs"]
    assert store.slots
    for addr in store.slots.values():
        now = db.now_ns
        pointers = store.pool.pointers_of(addr)
        assert db.now_ns == now
        assert pointers == charged_pointers(store, addr)
        assert len(pointers) == 2
        assert all(engine.allocator.owns(pointer) for pointer in pointers)


@pytest.mark.parametrize("engine", ["inp", "nvm-inp"])
def test_pointers_of_matches_a_charged_slot_read(engine):
    db = Database(engine=engine, seed=5,
                  engine_config=EngineConfig(group_commit_size=1,
                                             checkpoint_interval_txns=7))
    db.create_table(SCHEMA)
    for key in range(20):
        db.insert("docs", row(key))
    assert_slots_agree(db)
    for key in range(0, 20, 2):
        db.update("docs", key, {"body": row(key, 1)["body"]})
    for key in range(0, 20, 3):
        db.update("docs", key, {"title": row(key, 2)["title"],
                                "body": row(key, 2)["body"]})
    assert_slots_agree(db)

    def doomed(ctx):
        ctx.update("docs", 4, {"title": "aborted", "body": "aborted"})
        ctx.insert("docs", row(99))
        ctx.abort()

    with pytest.raises(TransactionAborted):
        db.execute(doomed)
    assert db.get("docs", 4)["title"] == row(4, 0)["title"]
    assert_slots_agree(db)
    for key in range(1, 20, 4):
        db.delete("docs", key)
    db.crash()
    db.recover()
    assert_slots_agree(db)
    assert db.get("docs", 6) == row(6, 2)
    assert db.get("docs", 1) is None

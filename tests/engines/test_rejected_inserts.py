"""An insert the schema rejects leaves nothing behind, on every engine.

Each engine validates an insert once, before it allocates a slot or
writes a log record, so a rejected insert takes no fixed slot, no
allocation and no row — and a valid insert afterwards still works.
"""

import pytest

from repro import Database, EngineConfig, PlatformConfig
from repro.config import CacheConfig, LatencyProfile
from repro.engines.slotted import FixedSlotPool
from repro.errors import SchemaError

from .conftest import ALL_ENGINES, sample_row, standard_schema

ENGINES = ALL_ENGINES + ["hybrid-inp"]

#: Engines whose tuples live in fixed slot pools.
SLOTTED = {"inp", "nvm-inp", "nvm-cow", "nvm-mvcc", "hybrid-inp"}


def make_db(engine):
    platform_config = PlatformConfig(
        latency=LatencyProfile.dram(),
        cache=CacheConfig(capacity_bytes=128 * 1024),
        dram_capacity_bytes=4 * 1024 * 1024, seed=7)
    db = Database(engine=engine, platform_config=platform_config,
                  engine_config=EngineConfig(group_commit_size=4),
                  seed=7)
    db.create_table(standard_schema())
    return db


def fixed_pools(engine):
    """The fixed slot pools of an engine's tables: ``_tables[...].pool``
    (the in-place and MVCC engines) or ``_pools[...].fixed`` (NVM-CoW)."""
    stores = [*getattr(engine, "_tables", {}).values(),
              *getattr(engine, "_pools", {}).values()]
    return [pool for store in stores
            for pool in (getattr(store, "pool", None),
                         getattr(store, "fixed", None))
            if isinstance(pool, FixedSlotPool)]


def footprint(db):
    partition = db.partitions[0]
    allocator = partition.platform.allocator
    return (sum(pool.live_count for pool in fixed_pools(partition.engine)),
            allocator.live_allocations, allocator.allocated_bytes,
            len(list(db.scan("items"))))


def invalid_rows(key):
    too_long = dict(sample_row(key), payload="p" * 121)
    wrong_type = dict(sample_row(key), price="cheap")
    missing = {name: value for name, value in sample_row(key).items()
               if name != "label"}
    unknown = dict(sample_row(key), colour="red")
    return [too_long, wrong_type, missing, unknown]


@pytest.mark.parametrize("engine", ENGINES)
def test_rejected_inserts_leave_no_trace(engine):
    db = make_db(engine)
    db.insert("items", sample_row(1))
    if engine in SLOTTED:
        assert fixed_pools(db.partitions[0].engine)
    before = footprint(db)
    for attempt in range(3):
        for row in invalid_rows(100 + attempt):
            with pytest.raises(SchemaError):
                db.insert("items", row)
    assert footprint(db) == before
    db.insert("items", sample_row(2))
    assert db.get("items", 2) == sample_row(2)
    assert footprint(db)[-1] == before[-1] + 1

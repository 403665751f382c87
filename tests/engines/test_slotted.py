"""Unit tests for the slotted storage pools."""

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.core.tuple_codec import STATE_ALLOCATED, STATE_PERSISTED
from repro.engines.slotted import SLOTS_PER_BLOCK, FixedSlotPool, VarlenPool
from repro.errors import InvalidAddressError


@pytest.fixture
def schema():
    return Schema.build("t", [Column("k", ColumnType.INT),
                              Column("v", ColumnType.INT)],
                        primary_key=["k"])


@pytest.fixture
def pool(platform, schema):
    return FixedSlotPool(schema, platform.allocator, platform.memory,
                        persistent=True), platform


def test_allocate_write_read(pool, schema):
    fixed, __ = pool
    addr = fixed.allocate_slot()
    data = bytes([STATE_ALLOCATED]) + b"\x01" * (schema.fixed_slot_size - 1)
    fixed.write_slot(addr, data)
    assert fixed.read_slot(addr) == data


def test_slots_distinct(pool):
    fixed, __ = pool
    addresses = {fixed.allocate_slot() for __unused in range(100)}
    assert len(addresses) == 100


def test_block_growth(pool):
    fixed, __ = pool
    for __unused in range(SLOTS_PER_BLOCK + 1):
        fixed.allocate_slot()
    assert fixed.live_count == SLOTS_PER_BLOCK + 1


def test_free_and_reuse(pool):
    fixed, __ = pool
    addr = fixed.allocate_slot()
    fixed.free_slot(addr)
    assert not fixed.owns(addr)
    assert addr in [fixed.allocate_slot()
                    for __unused in range(SLOTS_PER_BLOCK)]


def test_double_free_rejected(pool):
    fixed, __ = pool
    addr = fixed.allocate_slot()
    fixed.free_slot(addr)
    with pytest.raises(InvalidAddressError):
        fixed.free_slot(addr)


def test_wrong_size_write_rejected(pool):
    fixed, __ = pool
    addr = fixed.allocate_slot()
    with pytest.raises(InvalidAddressError):
        fixed.write_slot(addr, b"tiny")


def test_state_lifecycle(pool, schema):
    fixed, __ = pool
    addr = fixed.allocate_slot()
    fixed.write_slot(addr, bytes([STATE_ALLOCATED])
                     + b"\x00" * (schema.fixed_slot_size - 1))
    assert fixed.read_state(addr) == STATE_ALLOCATED
    fixed.set_state(addr, STATE_PERSISTED, durable=True)
    assert fixed.read_state(addr) == STATE_PERSISTED


def test_recover_unpersisted_reclaims_only_unpersisted(pool, schema):
    fixed, platform = pool
    blank = bytes([STATE_ALLOCATED]) + b"\x00" * (schema.fixed_slot_size - 1)
    kept = fixed.allocate_slot()
    fixed.write_slot(kept, blank)
    fixed.sync_slot(kept)
    fixed.set_state(kept, STATE_PERSISTED, durable=True)
    doomed = fixed.allocate_slot()
    fixed.write_slot(doomed, blank)
    fixed.sync_slot(doomed)
    reclaimed = fixed.recover_unpersisted()
    assert reclaimed == 1
    assert fixed.owns(kept)
    assert not fixed.owns(doomed)


def test_persistent_blocks_survive_crash(platform, schema):
    fixed = FixedSlotPool(schema, platform.allocator, platform.memory,
                          persistent=True)
    addr = fixed.allocate_slot()
    payload = bytes([STATE_PERSISTED]) + b"\x07" * (schema.fixed_slot_size - 1)
    fixed.write_slot(addr, payload)
    fixed.sync_slot(addr)
    platform.crash()
    assert fixed.read_slot(addr) == payload


def test_crash_reclaims_volatile_pool_blocks(platform, schema):
    fixed = FixedSlotPool(schema, platform.allocator, platform.memory,
                          persistent=False, tag="table")
    fixed.allocate_slot()
    assert platform.allocator.bytes_by_tag()["table"] > 0
    platform.crash()
    assert platform.allocator.bytes_by_tag()["table"] == 0
    assert platform.allocator.live_allocations == 0


def test_varlen_roundtrip(platform):
    pool = VarlenPool(platform.allocator, platform.memory,
                      persistent=True)
    addr = pool.write(b"hello world")
    assert pool.read(addr) == b"hello world"
    assert pool.contains(addr)
    pool.free(addr)
    assert not pool.contains(addr)


def test_varlen_sync_persists(platform):
    pool = VarlenPool(platform.allocator, platform.memory,
                      persistent=True)
    addr = pool.write(b"data")
    pool.sync(addr)
    platform.crash()
    assert pool.read(addr) == b"data"


def test_crash_reclaims_volatile_varlen_slots(platform):
    pool = VarlenPool(platform.allocator, platform.memory,
                      persistent=False)
    addr = pool.write(b"volatile")
    platform.crash()
    assert not pool.contains(addr)
    assert platform.allocator.live_allocations == 0

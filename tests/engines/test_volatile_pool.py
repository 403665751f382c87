"""Only pools whose engine reclaims slots after a restart track them."""

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.engines.slotted import SLOTS_PER_BLOCK, FixedSlotPool

from .conftest import make_database, sample_row


@pytest.fixture
def schema():
    return Schema.build("t", [Column("k", ColumnType.INT)],
                        primary_key=["k"])


@pytest.mark.parametrize("persistent", [False, True])
def test_reclamation_set_only_in_persistent_pools(platform, schema,
                                                  persistent):
    pool = FixedSlotPool(schema, platform.allocator, platform.memory,
                         persistent=persistent)
    slots = [pool.allocate_slot() for __ in range(SLOTS_PER_BLOCK + 3)]
    pool.free_slot(slots.pop())
    assert pool.live_count == SLOTS_PER_BLOCK + 2
    # A volatile pool dies with a crash, so nothing ever reclaims it;
    # shadowing its live slots would double their bookkeeping.
    expected = set(slots) if persistent else set()
    assert pool._unpersisted_slots == expected


def test_nvm_cow_tracks_no_slot_for_reclamation():
    """NVM-CoW never reclaims slots after a restart (a tuple copy is
    reachable only through a durable directory), so its persistent pools
    must not keep a reclamation entry per live slot."""
    db = make_database("nvm-cow", group_commit_size=1)
    for key in range(30):
        db.insert("items", sample_row(key))
    for key in range(0, 30, 3):
        db.update("items", key, {"payload": f"new-{key}"})
    for key in range(0, 30, 5):
        db.delete("items", key)
    pools = db.partitions[0].engine._pools["items"]
    assert pools.fixed.live_count >= 24
    assert pools.fixed._unpersisted_slots == set()
    db.crash()
    db.recover()
    assert db.get("items", 3)["payload"] == "new-3"
    assert len(db.scan("items")) == 24

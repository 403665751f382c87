"""Only persistent slot pools track slots for post-restart reclamation."""

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.engines.slotted import SLOTS_PER_BLOCK, FixedSlotPool


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

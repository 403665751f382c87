"""The allocator's crash reclaim is the one rule for when an allocation
dies: owners free what they hold, and the allocator alone knows whether
a crash already took it."""

import pytest

from repro.errors import InvalidAddressError


class _Recorder:
    """Allocator observer that logs every event."""

    def __init__(self):
        self.events = []

    def on_malloc(self, allocation):
        self.events.append(("malloc", allocation.addr))

    def on_persist(self, allocation):
        self.events.append(("persist", allocation.addr))

    def on_free(self, allocation):
        self.events.append(("free", allocation.addr))


@pytest.fixture
def allocator(platform):
    return platform.allocator


def test_free_of_reclaimed_allocation_is_a_noop(platform, allocator):
    doomed = allocator.malloc(64)
    assert allocator.crash_recover() == 1
    assert doomed.reclaimed
    frees = platform.stats.counter("alloc.free")
    recorder = _Recorder()
    allocator.observer = recorder
    allocator.free(doomed)
    allocator.free(doomed)
    assert platform.stats.counter("alloc.free") == frees
    assert recorder.events == []
    assert allocator.live_allocations == 0


def test_persisted_allocation_is_not_reclaimed(allocator):
    kept = allocator.malloc(64)
    allocator.persist(kept)
    allocator.crash_recover()
    assert not kept.reclaimed
    allocator.free(kept)
    assert allocator.live_allocations == 0


def test_double_free_raises(allocator):
    allocation = allocator.malloc(64)
    allocator.free(allocation)
    with pytest.raises(InvalidAddressError):
        allocator.free(allocation)


def test_stale_free_of_reused_address_keeps_the_new_owner(allocator):
    stale = allocator.malloc(64)
    allocator.free(stale)
    owner = allocator.malloc(64)
    assert owner.addr == stale.addr
    with pytest.raises(InvalidAddressError):
        allocator.free(stale)
    assert allocator.resolve(owner.addr) is owner
    assert allocator.live_allocations == 1
    assert allocator.bytes_by_tag()["other"] > 0


def test_reclaimed_free_of_reused_address_keeps_the_new_owner(allocator):
    doomed = allocator.malloc(64)
    allocator.crash_recover()
    owner = allocator.malloc(64)
    assert owner.addr == doomed.addr
    allocator.free(doomed)
    assert allocator.resolve(owner.addr) is owner
    assert allocator.live_allocations == 1


def test_batch_lookups_keep_order_and_reject_dead_pointers(allocator):
    first, second = allocator.malloc(32), allocator.malloc(48)
    pointers = [second.addr, first.addr]
    assert allocator.resolve_many(pointers) == [second, first]
    assert allocator.ranges(pointers) == [(second.addr, 48),
                                          (first.addr, 32)]
    assert allocator.resolve_many([]) == allocator.ranges([]) == []
    allocator.free(first)
    assert not allocator.owns(first.addr)
    assert allocator.owns(second.addr)
    with pytest.raises(KeyError):
        allocator.resolve_many(pointers)
    with pytest.raises(KeyError):
        allocator.ranges(pointers)

"""Differential test: the varlen pool against its earlier mirror map.

``VarlenPool`` resolves every pointer through the allocator and keeps no
map of its own. ``ReferenceVarlenPool`` below is the earlier pool,
verbatim: it mirrored ``addr -> Allocation`` in ``_slots`` and needed
``prune_dead`` after a crash to drop the slots the allocator reclaimed.
Both run the same seeded write / read / sync / free / crash sequence on
twin platforms and must give the same ``contains`` and ``read`` answers
and leave the same allocator state (records, free list, counters,
simulated clock) after every step.
"""

import random
from typing import Any, Dict, List

import pytest

from repro.config import CacheConfig, LatencyProfile, PlatformConfig
from repro.engines.slotted import VarlenPool
from repro.nvm.allocator import Allocation, NVMAllocator
from repro.nvm.memory import NVMMemory
from repro.nvm.platform import Platform
from repro.nvm.pointers import NVPtr


class ReferenceVarlenPool:
    """Pool of variable-length slots (non-inlined fields)."""

    def __init__(self, allocator: NVMAllocator, memory: NVMMemory,
                 persistent: bool, tag: str = "table") -> None:
        self._allocator = allocator
        self._memory = memory
        self._persistent = persistent
        self._tag = tag
        self._slots: Dict[NVPtr, Allocation] = {}

    def write(self, data: bytes) -> NVPtr:
        """Allocate a variable-length slot holding ``data``."""
        allocation = self._allocator.malloc(len(data), tag=self._tag)
        if self._persistent:
            self._allocator.persist(allocation)
        self._memory.store(allocation.addr, data)
        self._slots[allocation.addr] = allocation
        return allocation.addr

    def read(self, addr: NVPtr) -> bytes:
        allocation = self._slots[addr]
        return self._memory.load(allocation.addr, allocation.size)

    def read_many(self, addrs: List[NVPtr]) -> List[bytes]:
        """Batch-read several slots, in ``addrs`` order: their
        addresses are independent, so the loads overlap (memory-level
        parallelism)."""
        return self._memory.load_batch(
            [(addr, self._slots[addr].size) for addr in addrs])

    def sync(self, addr: NVPtr) -> None:
        allocation = self._slots[addr]
        self._allocator.sync(allocation)

    def sync_many(self, addrs: List[NVPtr],
                  extra_ranges: Any = ()) -> None:
        """Durably flush several slots (plus optional raw ranges, e.g.
        the fixed slot pointing at them) with one batched sync: a
        tuple's variable-length slots are allocated back to back, so
        per-slot syncs re-flush shared boundary cache lines and pay a
        fence per slot."""
        self._allocator.sync_many([self._slots[addr] for addr in addrs],
                                  extra_ranges=extra_ranges)

    def free(self, addr: NVPtr) -> None:
        allocation = self._slots.pop(addr)
        if self._allocator.resolve_optional(allocation.addr) is allocation:
            self._allocator.free(allocation)

    def contains(self, addr: NVPtr) -> bool:
        return addr in self._slots

    def prune_dead(self) -> int:
        """Drop bookkeeping for slots the allocator reclaimed during
        crash recovery (never-persisted allocations). Returns count."""
        dead = [addr for addr, allocation in self._slots.items()
                if self._allocator.resolve_optional(addr) is not allocation]
        for addr in dead:
            del self._slots[addr]
        return len(dead)

    @property
    def live_count(self) -> int:
        return len(self._slots)

    def destroy(self) -> None:
        for addr in list(self._slots):
            self.free(addr)


def _platform() -> Platform:
    return Platform(PlatformConfig(
        latency=LatencyProfile.dram(),
        cache=CacheConfig(capacity_bytes=16 * 1024),
        nvm_capacity_bytes=4 * 1024 * 1024, seed=99))


def _allocator_state(platform: Platform) -> tuple:
    allocator = platform.allocator
    records = sorted((a.addr, a.size, a.tag, a.kind, a.persisted)
                     for a in allocator._allocations.values())
    counters = {name: value
                for name, value in platform.stats.counters.items()
                if name.startswith("alloc.")}
    return (records, list(allocator._free), allocator._cursor,
            allocator.bytes_by_tag(), counters, platform.clock.now_ns)


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pool_matches_the_mirror_map_pool(seed, persistent):
    rng = random.Random(seed)
    ref_platform, new_platform = _platform(), _platform()
    ref = ReferenceVarlenPool(ref_platform.allocator, ref_platform.memory,
                              persistent)
    new = VarlenPool(new_platform.allocator, new_platform.memory,
                     persistent)
    issued: List[int] = []
    for step in range(400):
        live = [addr for addr in issued if ref.contains(addr)]
        roll = rng.random()
        if roll < 0.35 or not live:
            data = rng.randbytes(rng.randint(1, 200))
            addr = ref.write(data)
            assert new.write(data) == addr
            if addr not in issued:
                issued.append(addr)
        elif roll < 0.5:
            addr = rng.choice(live)
            assert new.read(addr) == ref.read(addr)
        elif roll < 0.6:
            addrs = rng.sample(live, min(len(live), rng.randint(1, 6)))
            assert new.read_many(addrs) == ref.read_many(addrs)
        elif roll < 0.7:
            addr = rng.choice(live)
            ref.sync(addr)
            new.sync(addr)
        elif roll < 0.78:
            addrs = rng.sample(live, min(len(live), rng.randint(0, 5)))
            extra = ((rng.randrange(8, 4096, 8), 8),)
            ref.sync_many(addrs, extra_ranges=extra)
            new.sync_many(addrs, extra_ranges=extra)
        elif roll < 0.95:
            addr = rng.choice(live)
            ref.free(addr)
            new.free(addr)
        else:
            ref_platform.crash()
            new_platform.crash()
            ref.prune_dead()
        for addr in issued:
            assert new.contains(addr) == ref.contains(addr), (step, addr)
        assert _allocator_state(new_platform) == \
            _allocator_state(ref_platform), step
    assert ref_platform.crash_count > 0

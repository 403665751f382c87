"""Differential test: slot liveness as one byte per slot.

``FixedSlotPool`` keeps slot liveness in one ``bytearray`` byte per slot,
found by bisecting the pool's sorted block bases.
``ReferenceFixedSlotPool`` below is the earlier pool, verbatim: it kept
every live slot address in the ``_live_slots`` set. Both run the same
seeded allocate / free / double free / foreign free / ``owns`` /
state / crash-and-``recover_unpersisted`` sequence on twin platforms and
must give the same answers, hold the same free list and leave the same
allocator state and simulated clock after every step.
"""

import random
import sys
from typing import List, Set

import pytest

from repro.config import CacheConfig, LatencyProfile, PlatformConfig
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tuple_codec import STATE_PERSISTED, STATE_UNALLOCATED
from repro.engines.slotted import SLOTS_PER_BLOCK, FixedSlotPool
from repro.errors import InvalidAddressError
from repro.nvm.allocator import NVMAllocator
from repro.nvm.memory import NVMMemory
from repro.nvm.platform import Platform
from repro.nvm.pointers import NVPtr


class ReferenceFixedSlotPool:
    """Pool of fixed-size tuple slots for one table."""

    def __init__(self, schema: Schema, allocator: NVMAllocator,
                 memory: NVMMemory, persistent: bool,
                 tag: str = "table", extra_bytes: int = 0) -> None:
        self.schema = schema
        #: Slots may carry an engine-defined suffix after the tuple
        #: bytes (e.g. the MVCC engine's version prologue).
        self.slot_size = schema.fixed_slot_size + extra_bytes
        self._allocator = allocator
        self._memory = memory
        self._persistent = persistent
        self._tag = tag
        self._free_slots: List[NVPtr] = []
        self._live_slots: Set[NVPtr] = set()
        #: Slots allocated whose persisted state byte was never set —
        #: the only ones post-restart reclamation must inspect (kept
        #: for persistent pools only: nothing reclaims a volatile one).
        self._unpersisted_slots: Set[NVPtr] = set()

    def allocate_slot(self) -> NVPtr:
        """Take a slot from the free list, growing the pool if empty."""
        if not self._free_slots:
            self._grow()
        addr = self._free_slots.pop()
        self._live_slots.add(addr)
        if self._persistent:
            self._unpersisted_slots.add(addr)
        return addr

    def _grow(self) -> None:
        block = self._allocator.malloc(
            self.slot_size * SLOTS_PER_BLOCK, tag=self._tag)
        if self._persistent:
            self._allocator.persist(block)
        for index in reversed(range(SLOTS_PER_BLOCK)):
            self._free_slots.append(block.addr + index * self.slot_size)

    def free_slot(self, addr: NVPtr) -> None:
        """Return a slot to the free list and clear its state byte."""
        if addr not in self._live_slots:
            raise InvalidAddressError(f"slot {addr:#x} is not live")
        self._live_slots.remove(addr)
        self._unpersisted_slots.discard(addr)
        self._memory.store(addr, bytes([STATE_UNALLOCATED]))
        if self._persistent:
            # The cleared state byte must reach NVM before the freeing
            # transaction's durable point — otherwise a crash resurrects
            # the slot as allocated while the free list also hands it
            # out after restart.
            self._memory.sync(addr, 1)
        self._free_slots.append(addr)

    def write_slot(self, addr: NVPtr, data: bytes) -> None:
        if len(data) != self.slot_size:
            raise InvalidAddressError(
                f"slot write of {len(data)} bytes, expected "
                f"{self.slot_size}")
        self._memory.store(addr, data)

    def read_slot(self, addr: NVPtr) -> bytes:
        return self._memory.load(addr, self.slot_size)

    def set_state(self, addr: NVPtr, state: int, durable: bool) -> None:
        """Update the slot's durability state byte (optionally synced)."""
        self._memory.store(addr, bytes([state]))
        if durable:
            self._memory.sync(addr, 1)
        if state == STATE_PERSISTED and durable:
            self._unpersisted_slots.discard(addr)

    def read_state(self, addr: NVPtr) -> int:
        return self._memory.load(addr, 1)[0]

    def sync_slot(self, addr: NVPtr) -> None:
        """Durably flush the whole slot (the NVM engines' 'sync tuple
        with NVM' step from Table 2)."""
        self._memory.sync(addr, self.slot_size)

    def mark_persisted(self, addr: NVPtr) -> None:
        """Record that the slot's persisted state durably reached NVM
        (post-restart reclamation no longer needs to inspect it)."""
        self._unpersisted_slots.discard(addr)

    def recover_unpersisted(self) -> int:
        """Post-restart slot reclamation (Section 4.1): slots that are
        allocated but not persisted transition back to unallocated.
        Returns how many were reclaimed."""
        reclaimed = 0
        for addr in list(self._unpersisted_slots):
            if addr in self._live_slots \
                    and self.read_state(addr) != STATE_PERSISTED:
                self.free_slot(addr)
                reclaimed += 1
            else:
                self._unpersisted_slots.discard(addr)
        return reclaimed

    @property
    def live_count(self) -> int:
        return len(self._live_slots)

    def owns(self, addr: NVPtr) -> bool:
        """Whether ``addr`` is a live slot of this pool."""
        return addr in self._live_slots


SCHEMA = Schema.build("t", [Column("k", ColumnType.INT),
                            Column("v", ColumnType.STRING, capacity=24)],
                      primary_key=["k"])


def _platform() -> Platform:
    return Platform(PlatformConfig(
        latency=LatencyProfile.dram(),
        cache=CacheConfig(capacity_bytes=16 * 1024),
        nvm_capacity_bytes=4 * 1024 * 1024, seed=99))


def _state(platform: Platform) -> tuple:
    allocator = platform.allocator
    records = sorted((a.addr, a.size, a.tag, a.persisted)
                     for a in allocator._allocations.values())
    return (records, list(allocator._free), allocator.bytes_by_tag(),
            platform.clock.now_ns)


def _outcome(call):
    """What a pool call answered: its value, or the error it raised."""
    try:
        return ("ok", call())
    except InvalidAddressError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pool_matches_the_live_set_pool(seed, persistent):
    rng = random.Random(seed)
    ref_platform, new_platform = _platform(), _platform()
    # A second pool on each platform interleaves its blocks with the
    # pool under test, so block bases are not one ascending run, and
    # gives foreign slot addresses to free and test.
    ref, ref_other = (ReferenceFixedSlotPool(
        SCHEMA, ref_platform.allocator, ref_platform.memory, persistent,
        extra_bytes=extra) for extra in (0, 8))
    new, new_other = (FixedSlotPool(
        SCHEMA, new_platform.allocator, new_platform.memory, persistent,
        extra_bytes=extra) for extra in (0, 8))
    issued: List[int] = []
    foreign: List[int] = []
    reclaimed = 0
    for step in range(1500):
        live = sorted(ref._live_slots)
        roll = rng.random()
        if roll < 0.4 or not live:
            addr = ref.allocate_slot()
            assert new.allocate_slot() == addr
            issued.append(addr)
            ref.write_slot(addr, bytes([1]) + bytes(ref.slot_size - 1))
            new.write_slot(addr, bytes([1]) + bytes(new.slot_size - 1))
        elif roll < 0.45:
            foreign.append(ref_other.allocate_slot())
            assert new_other.allocate_slot() == foreign[-1]
        elif roll < 0.65:
            addr = rng.choice(live)
            assert _outcome(lambda: new.free_slot(addr)) \
                == _outcome(lambda: ref.free_slot(addr)) == ("ok", None)
        elif roll < 0.72:
            # Double free, foreign free, misaligned and out-of-pool.
            candidates = [addr for addr in issued if addr not in live]
            candidates += foreign[-3:]
            if issued:
                candidates += [rng.choice(issued) + 1,
                               rng.choice(issued) + ref.slot_size
                               * SLOTS_PER_BLOCK * 50, 0]
            for addr in candidates[-8:]:
                assert _outcome(lambda: new.free_slot(addr)) \
                    == _outcome(lambda: ref.free_slot(addr)), addr
        elif roll < 0.82:
            addr = rng.choice(live)
            durable = rng.random() < 0.7
            ref.set_state(addr, STATE_PERSISTED, durable=durable)
            new.set_state(addr, STATE_PERSISTED, durable=durable)
        elif roll < 0.9:
            addr = rng.choice(live)
            ref.mark_persisted(addr)
            new.mark_persisted(addr)
        elif roll < 0.93:
            addr = rng.choice(live)
            ref.set_state(addr, STATE_UNALLOCATED, durable=True)
            new.set_state(addr, STATE_UNALLOCATED, durable=True)
        elif persistent:
            # A volatile pool dies with a crash (its engine builds a new
            # one), so only a persistent pool lives on to reclaim.
            ref_platform.crash()
            new_platform.crash()
            count = ref.recover_unpersisted()
            assert new.recover_unpersisted() == count
            reclaimed += count
        probes = [0] + issued[-40:] + foreign[-5:] + [
            addr + delta for addr in issued[-5:] for delta in (1, 8)]
        for addr in probes:
            assert new.owns(addr) == ref.owns(addr), (step, addr)
        assert new.live_count == ref.live_count, step
        assert new._free_slots == ref._free_slots, step
        assert _state(new_platform) == _state(ref_platform), step
    assert reclaimed > 0 or not persistent


def test_liveness_of_ten_thousand_slots_fits_in_16_kib(platform):
    """The set held a Python int object and a hash entry per live slot
    (over 500 KiB for 10,000 slots); a byte per slot and one base per
    block stay under 16 KiB."""
    pool = FixedSlotPool(SCHEMA, platform.allocator, platform.memory,
                         persistent=False)
    for __ in range(10_000):
        pool.allocate_slot()
    assert pool.live_count == 10_000
    # Everything the pool holds but its collaborators, its settings
    # and the free list (which the change leaves as it was), counting
    # the objects inside any list or set too.
    structures = [value for name, value in vars(pool).items()
                  if name.startswith("_") and name not in
                  ("_allocator", "_memory", "_free_slots", "_tag",
                   "_persistent")]
    size = sum(sys.getsizeof(value) for value in structures)
    size += sum(sys.getsizeof(item) for value in structures
                if isinstance(value, (list, set)) for item in value)
    assert size < 16 * 1024, size

"""Slotted storage pools (Section 3.1 / 4.1).

A table's storage area is split into separate pools for fixed-size
blocks and variable-length blocks. The fixed-size pool stores tuples in
fixed-size slots (byte-aligned, offsets computable); any field larger
than 8 bytes goes to a variable-length slot whose 8-byte pointer is
stored at the field's position. Deleted slots return to a free list;
when the free list is empty a new block is allocated through the
allocator interface.

For the NVM-aware engines the blocks are *persisted* allocations:
tuples written into them survive a crash, and each slot's header byte
carries the durability state (unallocated / allocated / persisted) that
lets recovery reclaim slots of uncommitted transactions (Section 4.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from ..core.schema import Schema
from ..core.tuple_codec import STATE_PERSISTED, STATE_UNALLOCATED
from ..errors import InvalidAddressError
from ..nvm.allocator import NVMAllocator
from ..nvm.memory import NVMMemory
from ..nvm.pointers import NVPtr

#: Tuple slots per fixed-size block allocation.
SLOTS_PER_BLOCK = 64


def read_slotted_tuple(schema: Schema, pool: "FixedSlotPool",
                       varlen: "VarlenPool", addr: int) -> Dict[str, Any]:
    """Read and decode one tuple: the fixed-size slot first, then all
    of its variable-length fields as one overlapped batch (the field
    pointers are independent once the slot is in hand)."""
    layout = schema.layout
    fields = layout.fields.unpack_from(pool.read_slot(addr))
    pointers = [fields[i] for i in layout.varlen]
    return layout.slot_values(
        fields, varlen.read_many(pointers) if pointers else ())


class FixedSlotPool:
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


class VarlenPool:
    """Pool of variable-length slots (non-inlined fields), one
    allocation each: the allocator's record is the pool's only one."""

    def __init__(self, allocator: NVMAllocator, memory: NVMMemory,
                 persistent: bool, tag: str = "table") -> None:
        self._allocator = allocator
        self._memory = memory
        self._persistent = persistent
        self._tag = tag

    def write(self, data: bytes) -> NVPtr:
        """Allocate a variable-length slot holding ``data``."""
        allocation = self._allocator.malloc(len(data), tag=self._tag)
        if self._persistent:
            self._allocator.persist(allocation)
        self._memory.store(allocation.addr, data)
        return allocation.addr

    def read(self, addr: NVPtr) -> bytes:
        return self._memory.load(addr, self._allocator.resolve(addr).size)

    def read_many(self, addrs: List[NVPtr]) -> List[bytes]:
        """Batch-read several slots, in ``addrs`` order: their
        addresses are independent, so the loads overlap (memory-level
        parallelism)."""
        return self._memory.load_batch(self._allocator.ranges(addrs))

    def sync(self, addr: NVPtr) -> None:
        self._allocator.sync(self._allocator.resolve(addr))

    def sync_many(self, addrs: List[NVPtr],
                  extra_ranges: Any = ()) -> None:
        """Durably flush several slots (plus optional raw ranges, e.g.
        the fixed slot pointing at them) with one batched sync: a
        tuple's variable-length slots are allocated back to back, so
        per-slot syncs re-flush shared boundary cache lines and pay a
        fence per slot."""
        self._allocator.sync_many(self._allocator.resolve_many(addrs),
                                  extra_ranges=extra_ranges)

    def free(self, addr: NVPtr) -> None:
        self._allocator.free(self._allocator.resolve(addr))

    def contains(self, addr: NVPtr) -> bool:
        return self._allocator.owns(addr)

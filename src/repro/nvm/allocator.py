"""NVM-aware memory allocator (Section 2.3).

The allocator satisfies the paper's two requirements:

1. **Durability** — a ``sync`` primitive (CLFLUSH + SFENCE through the
   cache model) that makes a region's pending writes durable.
2. **Naming** — allocation addresses are stable across restarts
   (non-volatile pointers), and :meth:`resolve` maps a pointer back to
   its allocation after recovery.

It follows a *rotating best-fit* policy (the paper extends libpmem the
same way): the free-list search starts from a rotating cursor so that
repeated alloc/free cycles spread allocations across the device, which
levels wear. The search is a lookup in a size-sorted copy of the free
list, not a scan. After a crash, the allocator "reclaims memory that has
not been persisted and restores its internal metadata to a consistent
state" — allocations never passed to :meth:`persist` are freed.

Two kinds of allocation are supported:

* ``bytes`` — a byte-backed region in the device address space,
  accessed via :class:`~repro.nvm.memory.NVMMemory` load/store.
* ``object`` — an *accounting* region that carries a live Python object
  (index nodes, MemTable entries...). Accesses are charged through the
  cache model with ``touch_read``/``touch_write``; crash consistency of
  the object's content is the owning data structure's responsibility
  (registered via platform crash hooks).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidAddressError, OutOfMemoryError
from ..sim.stats import StatsCollector
from .memory import NVMMemory
from .pointers import NVPtr

#: Accounting overhead per allocation (allocator header), bytes.
HEADER_SIZE = 16

_ALIGNMENT = 8


class Allocation:
    """A live allocation returned by :meth:`NVMAllocator.malloc`."""

    __slots__ = ("addr", "size", "tag", "kind", "persisted", "obj",
                 "reclaimed")

    def __init__(self, addr: NVPtr, size: int, tag: str, kind: str) -> None:
        self.addr = addr
        self.size = size
        self.tag = tag
        self.kind = kind
        #: Whether :meth:`NVMAllocator.persist` has marked this region
        #: as surviving allocator recovery.
        self.persisted = False
        self.obj: object = None
        #: Whether :meth:`NVMAllocator.crash_recover` took this region
        #: back; a later :meth:`NVMAllocator.free` of it is a no-op.
        self.reclaimed = False

    def __repr__(self) -> str:
        flag = "P" if self.persisted else "-"
        return (f"Allocation(addr={self.addr:#x}, size={self.size}, "
                f"tag={self.tag!r}, kind={self.kind}, {flag})")


class NVMAllocator:
    """Rotating best-fit allocator over the emulated NVM device."""

    def __init__(self, memory: NVMMemory, capacity_bytes: int,
                 stats: StatsCollector, tracer=None) -> None:
        self._memory = memory
        self._counters = stats.counter_table()
        self._tracer = tracer
        #: Persistence-ordering observer (malloc/persist/free events);
        #: ``None`` means "off" — one attribute check per call.
        self.observer = None
        self.capacity_bytes = capacity_bytes
        #: Free blocks ``(base, size)`` by base, searched from index
        #: ``_cursor``; the best-fit index ``_by_size`` sorts them as
        #: ``(size, base)``.
        self._free: List[Tuple[int, int]] = []
        self._by_size: List[Tuple[int, int]] = []
        self._cursor = 0
        # Reserve [0, _ALIGNMENT) so that 0 is never a valid pointer.
        self._insert_free(_ALIGNMENT, capacity_bytes - _ALIGNMENT)
        self._allocations: Dict[NVPtr, Allocation] = {}
        self._bytes_by_tag: Dict[str, int] = {}
        self._peak_by_tag: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def malloc(self, size: int, tag: str = "other",
               kind: str = "bytes") -> Allocation:
        """Allocate ``size`` bytes tagged ``tag``.

        ``kind`` is ``"bytes"`` for byte-backed regions or ``"object"``
        for accounting regions carrying a Python object.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if kind not in ("bytes", "object"):
            raise ValueError(f"unknown allocation kind {kind!r}")
        needed = -(-(size + HEADER_SIZE) // _ALIGNMENT) * _ALIGNMENT
        index = self._find_best_fit(needed)
        if index is None:
            raise OutOfMemoryError(
                f"cannot allocate {size} bytes "
                f"({self.free_bytes} free, fragmented)")
        base, block_size = self._free[index]
        by_size = self._by_size
        del by_size[bisect_left(by_size, (block_size, base))]
        if block_size == needed:
            del self._free[index]
        else:
            self._free[index] = (base + needed, block_size - needed)
            insort(by_size, (block_size - needed, base + needed))
        addr = base + HEADER_SIZE
        allocation = Allocation(addr, size, tag, kind)
        self._allocations[addr] = allocation
        self._account(tag, needed)
        self._counters["alloc.malloc"] += 1
        # Writing the allocation header touches NVM.
        self._memory.touch_write(base, HEADER_SIZE)
        if self.observer is not None:
            self.observer.on_malloc(allocation)
        return allocation

    def malloc_object(self, obj: object, size: int,
                      tag: str = "other") -> Allocation:
        """Allocate an accounting region holding ``obj`` (``size`` is
        the object's accounted NVM footprint in bytes)."""
        allocation = self.malloc(size, tag=tag, kind="object")
        allocation.obj = obj
        return allocation

    def _find_best_fit(self, needed: int) -> Optional[int]:
        """The index in ``_free`` of the smallest block that fits, the
        first at or after the cursor (wrapping) among equal sizes."""
        by_size = self._by_size
        smallest = bisect_left(by_size, (needed,))
        if smallest == len(by_size):
            return None
        free = self._free
        count = len(free)
        size = by_size[smallest][0]
        found = bisect_left(by_size, (size, free[self._cursor % count][0]))
        if found == len(by_size) or by_size[found][0] != size:
            found = smallest
        index = bisect_left(free, (by_size[found][1],))
        self._cursor = (index + 1) % count
        return index

    def free(self, allocation: Allocation) -> None:
        """Return ``allocation``'s region to the free list (a no-op if
        :meth:`crash_recover` already took it back)."""
        if allocation.reclaimed:
            return
        if self._allocations.get(allocation.addr) is not allocation:
            raise InvalidAddressError(
                f"double free or foreign allocation at {allocation.addr:#x}")
        del self._allocations[allocation.addr]
        base = allocation.addr - HEADER_SIZE
        needed = -(-(allocation.size + HEADER_SIZE) // _ALIGNMENT) * _ALIGNMENT
        self._insert_free(base, needed)
        self._account(allocation.tag, -needed)
        self._counters["alloc.free"] += 1
        allocation.obj = None
        if self.observer is not None:
            self.observer.on_free(allocation)

    def _insert_free(self, base: int, size: int) -> None:
        """Insert a free block, coalescing with adjacent blocks."""
        free, by_size = self._free, self._by_size
        index = bisect_left(free, (base,))
        if index < len(free) and free[index][0] == base + size:
            __, next_size = free.pop(index)
            del by_size[bisect_left(by_size, (next_size, base + size))]
            size += next_size
        if index > 0 and sum(free[index - 1]) == base:   # prev. ends here
            index -= 1
            base, prev_size = free[index]
            del by_size[bisect_left(by_size, (prev_size, base))]
            size += prev_size
            free[index] = (base, size)
        else:
            free.insert(index, (base, size))
        insort(by_size, (size, base))

    # ------------------------------------------------------------------
    # Durability & naming
    # ------------------------------------------------------------------

    def persist(self, allocation: Allocation) -> None:
        """Mark the allocation as durable allocator metadata: it will
        survive allocator recovery after a crash. Idempotent — a
        second call on an already-persisted allocation is a no-op, so
        repeated persists cannot inflate the ``alloc.persist`` stat."""
        if allocation.persisted:
            return
        allocation.persisted = True
        self._counters["alloc.persist"] += 1
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event("alloc.persist", size=allocation.size,
                               tag=allocation.tag)
        if self.observer is not None:
            self.observer.on_persist(allocation)

    def persist_all(self) -> int:
        """Persist every live allocation (bulk-load epilogue / orderly
        shutdown helper). Idempotent: already-persisted allocations are
        skipped, so calling it twice persists nothing the second time.
        Returns how many allocations transitioned to persisted."""
        transitioned = 0
        for allocation in self._allocations.values():
            if not allocation.persisted:
                self.persist(allocation)
                transitioned += 1
        return transitioned

    def sync(self, allocation: Allocation, offset: int = 0,
             size: Optional[int] = None) -> None:
        """Durably flush (part of) the allocation's region and mark the
        allocation persisted (Section 2.3 sync primitive)."""
        if size is None:
            size = allocation.size - offset
        if offset < 0 or offset + size > allocation.size:
            raise InvalidAddressError(
                f"sync range [{offset}, {offset + size}) outside "
                f"allocation of {allocation.size} bytes")
        self._memory.sync(allocation.addr + offset, size)
        if not allocation.persisted:
            allocation.persisted = True
            if self.observer is not None:
                self.observer.on_persist(allocation)
        self._counters["alloc.sync"] += 1

    def sync_many(self, allocations: Sequence[Allocation],
                  extra_ranges: Sequence[Tuple[int, int]] = ()) -> None:
        """Durably flush several allocations (plus optional raw
        ``(addr, size)`` ranges, e.g. the fixed slot the allocations
        hang off) as one batched sync: each distinct cache line is
        flushed once and a single fence orders them all. Marks every
        allocation persisted, like :meth:`sync`."""
        ranges = list(extra_ranges)
        ranges.extend((allocation.addr, allocation.size)
                      for allocation in allocations)
        if not ranges:
            return
        self._memory.sync_ranges(ranges)
        for allocation in allocations:
            if not allocation.persisted:
                allocation.persisted = True
                if self.observer is not None:
                    self.observer.on_persist(allocation)
        if allocations:
            self._counters["alloc.sync"] += len(allocations)

    def resolve(self, addr: NVPtr) -> Allocation:
        """Map a non-volatile pointer back to its live allocation."""
        try:
            return self._allocations[addr]
        except KeyError:
            raise InvalidAddressError(
                f"no live allocation at {addr:#x}") from None

    def resolve_many(self, addrs: Sequence[NVPtr]) -> List[Allocation]:
        """The live allocations at ``addrs``, in order (one call per
        batch; a dead pointer raises ``KeyError``)."""
        allocations = self._allocations
        return [allocations[addr] for addr in addrs]

    def ranges(self, addrs: Sequence[NVPtr]) -> List[Tuple[NVPtr, int]]:
        """``(addr, size)`` of each live allocation in ``addrs``, in
        order, ready for a batched load (``KeyError`` as above)."""
        allocations = self._allocations
        return [(addr, allocations[addr].size) for addr in addrs]

    def resolve_optional(self, addr: NVPtr) -> Optional[Allocation]:
        return self._allocations.get(addr)

    def owns(self, addr: NVPtr) -> bool:
        """Whether a live allocation starts at ``addr``."""
        return addr in self._allocations

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash_recover(self) -> int:
        """Post-crash allocator recovery: reclaim every allocation that
        was never persisted; return how many were reclaimed."""
        doomed = [allocation for allocation in self._allocations.values()
                  if not allocation.persisted]
        for allocation in doomed:
            self.free(allocation)
            allocation.reclaimed = True
        self._counters["alloc.crash_reclaimed"] += len(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _account(self, tag: str, delta: int) -> None:
        current = self._bytes_by_tag.get(tag, 0) + delta
        self._bytes_by_tag[tag] = current
        if current > self._peak_by_tag.get(tag, 0):
            self._peak_by_tag[tag] = current

    @property
    def allocated_bytes(self) -> int:
        return sum(self._bytes_by_tag.values())

    @property
    def free_bytes(self) -> int:
        return sum(size for __, size in self._free)

    def bytes_by_tag(self) -> Dict[str, int]:
        """Live allocated bytes per tag (footprint accounting)."""
        return dict(self._bytes_by_tag)

    def peak_bytes_by_tag(self) -> Dict[str, int]:
        """Peak allocated bytes per tag."""
        return dict(self._peak_by_tag)

    @property
    def live_allocations(self) -> int:
        return len(self._allocations)

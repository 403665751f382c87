"""The MemTable: mutable top level of the LSM tree (Section 3.3).

Tuple modifications are recorded as *entries* appended to a per-key
chain: a full image for inserts (``PUT``), the changed fields for
updates (``DELTA``), and a tombstone for deletes. A B+tree index over
the keys handles point and range queries. Reconstructing a tuple
("tuple coalescing") walks the chain — and, when the base image lives
in an older run, continues into the rest of the LSM tree, which is the
Log engine's read amplification.

The traditional Log engine keeps the MemTable in memory-as-volatile
allocations and loses it on a crash (it is rebuilt from the WAL); the
NVM-Log engine keeps entries and index on NVM, synced as they are
written, so immutable MemTables replace SSTables entirely
(Section 4.3).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ...index.bloom import BloomFilter
from ...index.cost import NVMIndexCostModel
from ...index.nv_btree import NVBTree
from ...index.stx_btree import STXBTree
from ...nvm.allocator import Allocation, NVMAllocator
from ...nvm.memory import NVMMemory
from .compaction import EntryPair

ENTRY_PUT = "put"
ENTRY_DELTA = "delta"
ENTRY_TOMBSTONE = "tombstone"

#: Accounted bytes of entry metadata beyond the payload.
ENTRY_OVERHEAD = 24


class MemTableEntry:
    """One modification record in a MemTable chain."""

    __slots__ = ("kind", "data", "allocation")

    def __init__(self, kind: str, data: bytes,
                 allocation: Allocation) -> None:
        self.kind = kind
        self.data = data
        self.allocation = allocation

    @property
    def size_bytes(self) -> int:
        return self.allocation.size


class MemTable:
    """One run of the LSM tree held in (NVM) memory."""

    def __init__(self, allocator: NVMAllocator, memory: NVMMemory,
                 node_size: int = 512, persistent: bool = False,
                 bloom_bits_per_key: int = 10,
                 bloom_hashes: int = 3) -> None:
        self._allocator = allocator
        self._memory = memory
        self._persistent = persistent
        self._bloom_bits_per_key = bloom_bits_per_key
        self._bloom_hashes = bloom_hashes
        cost = NVMIndexCostModel(allocator, memory, tag="index",
                                 persistent=persistent)
        self._index_cost = cost
        if persistent:
            self.index: STXBTree = NVBTree(node_size=node_size,
                                           cost_model=cost)
        else:
            self.index = STXBTree(node_size=node_size, cost_model=cost)
        self._chains: Dict[Any, List[MemTableEntry]] = {}
        self.size_bytes = 0
        self.immutable = False
        self.bloom: Optional[BloomFilter] = None
        self._bloom_alloc: Optional[Allocation] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, key: Any, kind: str, data: bytes) -> MemTableEntry:
        """Append a modification entry for ``key``; returns the entry
        (the NVM-Log engine records its pointer in the WAL)."""
        if self.immutable:
            raise RuntimeError("MemTable is immutable")
        size = ENTRY_OVERHEAD + len(data)
        allocation = self._allocator.malloc_object(None, size, tag="table")
        entry = MemTableEntry(kind, data, allocation)
        allocation.obj = entry
        self._memory.touch_write(allocation.addr, size)
        if self._persistent:
            self._allocator.sync(allocation)
        chain = self._chains.get(key)
        if chain is None:
            chain = []
            self._chains[key] = chain
            self.index.put(key, key)
        chain.append(entry)
        self.size_bytes += size
        return entry

    def remove_entry(self, key: Any, entry: MemTableEntry) -> None:
        """Remove a specific entry (transaction rollback / undo)."""
        chain = self._chains.get(key)
        if chain is None or entry not in chain:
            return
        chain.remove(entry)
        self.size_bytes -= entry.size_bytes
        self._allocator.free(entry.allocation)
        if not chain:
            del self._chains[key]
            self.index.delete(key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_chain(self, key: Any) -> List[MemTableEntry]:
        """All entries for ``key``, oldest first (charges NVM reads)."""
        if self.bloom is not None:
            # Bloom probes are scattered single-line reads.
            self._memory.touch_read_scattered(
                self._bloom_alloc.addr, self._bloom_alloc.size,
                self.bloom.num_hashes)
            if not self.bloom.might_contain(key):
                return []
        if self.index.get(key) is None:
            return []
        chain = self._chains.get(key, [])
        for entry in chain:
            self._memory.touch_read(entry.allocation.addr,
                                    entry.allocation.size)
        return list(chain)

    def pairs(self, key: Any) -> List[EntryPair]:
        """:meth:`get_chain` as ``(kind, data)`` pairs — the run
        look-up the engines share with :class:`SSTable`."""
        return [(entry.kind, entry.data) for entry in self.get_chain(key)]

    def keys(self) -> Iterator[Any]:
        return iter(self.index)

    def keys_in_range(self, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        for key, __ in self.index.items(lo=lo, hi=hi):
            yield key

    def rows(self) -> Iterator[Tuple[Any, List[EntryPair]]]:
        """(key, pairs) rows in key order — what a flush or merge
        writes into the next run."""
        for key, __ in self.index.items():
            yield key, [(entry.kind, entry.data)
                        for entry in self._chains[key]]

    def __contains__(self, key: Any) -> bool:
        return key in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mark_immutable(self) -> None:
        """Freeze the MemTable and build its Bloom filter (the NVM-Log
        engine's replacement for flushing to an SSTable)."""
        self.immutable = True
        self.bloom = BloomFilter.build(
            list(self._chains.keys()),
            bits_per_key=self._bloom_bits_per_key,
            num_hashes=self._bloom_hashes)
        self._bloom_alloc = self._allocator.malloc(
            max(self.bloom.size_bytes, 64), tag="index", kind="object")
        self._memory.touch_write(self._bloom_alloc.addr,
                                 self._bloom_alloc.size)
        if self._persistent:
            self._allocator.sync(self._bloom_alloc)

    def destroy(self) -> None:
        """Free every entry allocation (and let the index go)."""
        for chain in self._chains.values():
            for entry in chain:
                self._allocator.free(entry.allocation)
        self._chains.clear()
        self._index_cost.drop_all()
        if self._bloom_alloc is not None:
            self._allocator.free(self._bloom_alloc)
            self._bloom_alloc = None
        self.size_bytes = 0

"""SSTables: immutable sorted runs on the filesystem (Section 3.3).

When the Log engine's MemTable exceeds its threshold, it is flushed to
the filesystem as an immutable SSTable in a separate file, laid out in
the HDD/SSD-optimized inlined format. Each SSTable carries a Bloom
filter (to skip runs that cannot contain a key) and an in-memory sparse
index from key to file offset. The index and filter are volatile and
rebuilt when the SSTable is opened after a restart; the file itself is
durable.
"""

from __future__ import annotations

import pickle
import struct
from typing import (Any, Callable, Iterator, List, Optional,
                    Sequence, Tuple)

from ...index.bloom import BloomFilter
from ...index.stx_btree import STXBTree
from ...nvm.filesystem import NVMFile, NVMFilesystem
from .compaction import EntryPair

_RECORD_HEADER = struct.Struct("<II")  # key blob length, chain blob length

#: Builds the per-SSTable key -> location index. Engines pass a factory
#: producing a cost-charged STXBTree ("the engine builds indexes for
#: the new SSTable"); unit tests may use the free default.
IndexFactory = Callable[[], STXBTree]


class SSTable:
    """One immutable sorted run stored in its own file."""

    def __init__(self, filesystem: NVMFilesystem, file_name: str,
                 bloom_bits_per_key: int = 10,
                 bloom_hashes: int = 3,
                 index_factory: Optional[IndexFactory] = None,
                 allocator=None, memory=None) -> None:
        self._fs = filesystem
        self.file_name = file_name
        self._file: Optional[NVMFile] = None
        self._index_factory = index_factory or \
            (lambda: STXBTree(node_size=512))
        self._index: STXBTree = self._index_factory()
        self.bloom: Optional[BloomFilter] = None
        self._bloom_bits_per_key = bloom_bits_per_key
        self._bloom_hashes = bloom_hashes
        self._keys: List[Any] = []
        # When an allocator/memory pair is supplied, the Bloom filter
        # occupies an accounting region and probes charge NVM reads.
        self._allocator = allocator
        self._memory = memory
        self._bloom_alloc = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def write(cls, filesystem: NVMFilesystem, file_name: str,
              rows: Sequence[Tuple[Any, Sequence[EntryPair]]],
              bloom_bits_per_key: int = 10,
              bloom_hashes: int = 3,
              index_factory: Optional[IndexFactory] = None,
              allocator=None, memory=None) -> "SSTable":
        """Create an SSTable from (key, chain) rows in key order."""
        table = cls(filesystem, file_name,
                    bloom_bits_per_key=bloom_bits_per_key,
                    bloom_hashes=bloom_hashes,
                    index_factory=index_factory,
                    allocator=allocator, memory=memory)
        file = filesystem.open(file_name, create=True)
        filesystem.truncate(file, 0)
        offset = 0
        payload_parts = []
        for key, chain in rows:
            key_blob = pickle.dumps(key, protocol=4)
            chain_blob = pickle.dumps(list(chain), protocol=4)
            record = _RECORD_HEADER.pack(len(key_blob), len(chain_blob)) \
                + key_blob + chain_blob
            table._index.put(key, (offset, len(record)))
            table._keys.append(key)
            payload_parts.append(record)
            offset += len(record)
        filesystem.append(file, b"".join(payload_parts))
        filesystem.fsync(file)
        table._file = file
        table.bloom = BloomFilter.build(
            table._keys, bits_per_key=bloom_bits_per_key,
            num_hashes=bloom_hashes)
        table._place_bloom()
        return table

    def _place_bloom(self) -> None:
        if self._allocator is None or self.bloom is None:
            return
        self._release_bloom()
        self._bloom_alloc = self._allocator.malloc(
            max(self.bloom.size_bytes, 64), tag="index", kind="object")
        self._memory.touch_write(self._bloom_alloc.addr,
                                 self._bloom_alloc.size)

    def _release_bloom(self) -> None:
        if self._bloom_alloc is not None and self._allocator is not None:
            self._allocator.free(self._bloom_alloc)
            self._bloom_alloc = None

    def open(self) -> None:
        """(Re)build the in-memory index and Bloom filter from the file
        — done after a restart ("the engine builds indexes for the new
        SSTable")."""
        file = self._fs.open(self.file_name)
        data = self._fs.read_all(file)
        self._release_index()
        self._index = self._index_factory()
        self._keys = []
        offset = 0
        while offset + _RECORD_HEADER.size <= len(data):
            key_length, chain_length = _RECORD_HEADER.unpack_from(
                data, offset)
            record_length = _RECORD_HEADER.size + key_length + chain_length
            key = pickle.loads(
                data[offset + _RECORD_HEADER.size:
                     offset + _RECORD_HEADER.size + key_length])
            self._index.put(key, (offset, record_length))
            self._keys.append(key)
            offset += record_length
        self._file = file
        self.bloom = BloomFilter.build(
            self._keys, bits_per_key=self._bloom_bits_per_key,
            num_hashes=self._bloom_hashes)
        self._place_bloom()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_chain(self, key: Any) -> List[EntryPair]:
        """Entries for ``key`` in this run (empty if absent). The Bloom
        filter avoids the index look-up and file read for most absent
        keys (but the probes themselves are scattered NVM reads)."""
        if self.bloom is not None:
            if self._bloom_alloc is not None:
                self._memory.touch_read_scattered(
                    self._bloom_alloc.addr, self._bloom_alloc.size,
                    self.bloom.num_hashes)
            if not self.bloom.might_contain(key):
                return []
        location = self._index.get(key)
        if location is None:
            return []
        offset, length = location
        assert self._file is not None
        record = self._fs.read(self._file, offset, length)
        key_length, chain_length = _RECORD_HEADER.unpack_from(record, 0)
        chain = pickle.loads(
            record[_RECORD_HEADER.size + key_length:
                   _RECORD_HEADER.size + key_length + chain_length])
        return chain

    #: The run look-up under the name :class:`MemTable` shares.
    pairs = get_chain

    def keys(self) -> List[Any]:
        return list(self._keys)

    def keys_in_range(self, lo: Any = None, hi: Any = None) -> List[Any]:
        """Keys with ``lo <= key < hi`` (from the in-memory key list:
        no NVM or file traffic)."""
        return [key for key in self._keys
                if (lo is None or key >= lo) and (hi is None or key < hi)]

    def rows(self) -> Iterator[Tuple[Any, List[EntryPair]]]:
        """All (key, chain) rows in key order (compaction input)."""
        for key in self._keys:
            yield key, self.get_chain(key)

    @property
    def size_bytes(self) -> int:
        if self._file is None:
            return 0
        return self._file.size

    def destroy(self) -> None:
        """Delete the file and free the index and Bloom accounting."""
        if self._fs.exists(self.file_name):
            self._fs.delete(self.file_name)
        self._file = None
        self._release_index()
        self._release_bloom()

    def _release_index(self) -> None:
        """Free the volatile index's accounting allocations (engines
        attach the cost model to the tree they build)."""
        cost = getattr(self._index, "cost_model", None)
        if cost is not None:
            cost.drop_all()

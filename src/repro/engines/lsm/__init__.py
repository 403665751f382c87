"""LSM-tree components for the log-structured engines (Section 3.3).

* :class:`~repro.engines.lsm.memtable.MemTable` — the mutable top level
  of the LSM tree, with a B+tree index for point and range queries.
* :class:`~repro.engines.lsm.sstable.SSTable` — immutable sorted runs
  on the filesystem (traditional Log engine only; the NVM-Log engine
  keeps immutable MemTables on NVM instead — both answer the same
  ``pairs`` / ``keys_in_range`` / ``rows`` / ``destroy`` run contract).
* :mod:`~repro.engines.lsm.compaction` — merge logic that bounds read
  amplification by coalescing per-tuple entries across runs.
"""

from .compaction import coalesce_entries, merge_entry_chains
from .memtable import ENTRY_DELTA, ENTRY_PUT, ENTRY_TOMBSTONE, MemTable
from .sstable import SSTable

__all__ = [
    "ENTRY_DELTA",
    "ENTRY_PUT",
    "ENTRY_TOMBSTONE",
    "MemTable",
    "SSTable",
    "coalesce_entries",
    "merge_entry_chains",
]

"""NVM-aware log-structured updates engine (NVM-Log, Section 4.3).

The Log engine's batching exists to turn random durable-storage writes
into sequential ones — a benefit that mostly evaporates on NVM. The
NVM-Log engine therefore:

* keeps **all MemTables on NVM** via the allocator interface. Instead
  of flushing to a filesystem SSTable, a full MemTable is simply
  *marked immutable* (same physical layout, writes stop) and a new
  mutable MemTable starts;
* records only **non-volatile pointers** to tuple modifications in a
  non-volatile WAL whose sole purpose is *undo* of uncommitted
  transactions — MemTable entries are synced as they are written, so
  no redo pass exists and the WAL is truncated per transaction at
  commit;
* compacts by **merging immutable MemTables** into a new larger
  MemTable (with a Bloom filter each to skip runs on reads);
* uses non-volatile B+trees for MemTable and secondary indexes — no
  rebuild after restart, so recovery latency depends only on the
  transactions in flight at the crash (Fig. 12).

Everything below the write path is inherited: an immutable MemTable
is a run like an SSTable is, so the Log engine's read path, scan and
leveled compaction serve both; :meth:`NVMLogEngine._write_run` ("a new
larger MemTable" where the parent writes a file) is the difference.
"""

from __future__ import annotations

from typing import Any, Dict

from ..config import EngineConfig
from ..core.tuple_codec import encode_fields, encode_inlined
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, TupleNotFoundError
from ..fault.injector import register_fault_point
from ..nvm.platform import Platform
from ..sim.stats import Category
from .base import StorageEngine, register_engine
from .log_engine import LogEngine, Rows, _LogTable
from .lsm.memtable import (ENTRY_DELTA, ENTRY_PUT, ENTRY_TOMBSTONE,
                           MemTable)
from .nvm_wal import NVMWal, NVMWalRecord
from .secondary import secondary_add, secondary_remove, secondary_update

register_fault_point(
    "memtable.roll.before",
    "full MemTable about to be marked immutable",
    engines=("nvm-log",))
register_fault_point(
    "memtable.roll.after",
    "immutable MemTable installed, new mutable MemTable started",
    engines=("nvm-log",))


@register_engine
class NVMLogEngine(LogEngine):
    """Log-structured updates with all-NVM MemTables and undo-only WAL."""

    name = "nvm-log"
    is_nvm_aware = True
    persistent = True
    #: No files: the allocator's tags are the whole footprint.
    storage_breakdown = StorageEngine.storage_breakdown

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._nvm_wal = NVMWal(self.allocator, self.memory, tag="log",
                               faults=self.faults)

    # ------------------------------------------------------------------
    # Primitive operations (Table 2, NVM-Log column)
    # ------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str,
               values: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        schema = store.schema
        key = schema.key_of(values)
        if self._get(store, key) is not None:
            raise DuplicateKeyError(f"{table}: key {key!r} exists")
        schema.validate(values)
        image = encode_inlined(schema, values)
        # Sync tuple with NVM (entry alloc + sync inside add), record
        # the pointer in the WAL, sync the log entry, index it.
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_PUT, image)
        with self.stats.category(Category.RECOVERY):
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "insert", table, key,
                tuple_ptr=entry.allocation.addr, extra=(entry, values)))
        with self.stats.category(Category.INDEX):
            secondary_add(schema, store.secondary, key, values)
        txn.engine_state.setdefault("undo", []).append(
            ("insert", table, key, entry, values))

    def update(self, txn: Transaction, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        schema = store.schema
        schema.validate_partial(changes)
        old_values = self._get(store, key)
        if old_values is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        before = {name: old_values[name] for name in changes}
        delta = encode_fields(schema, changes)
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_DELTA, delta)
        new_values = dict(old_values)
        new_values.update(changes)
        # WAL: changed-field before-image + pointer (Table 3: F + p).
        with self.stats.category(Category.RECOVERY):
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "update", table, key,
                tuple_ptr=entry.allocation.addr,
                before_fields=encode_fields(schema, before),
                extra=(entry, old_values, new_values)))
        with self.stats.category(Category.INDEX):
            secondary_update(schema, store.secondary, key, old_values,
                             new_values)
        txn.engine_state.setdefault("undo", []).append(
            ("update", table, key, entry, old_values, new_values))

    def delete(self, txn: Transaction, table: str, key: Any) -> None:
        txn.require_active()
        store = self._table(table)
        schema = store.schema
        old_values = self._get(store, key)
        if old_values is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_TOMBSTONE, b"")
        with self.stats.category(Category.RECOVERY):
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "delete", table, key,
                tuple_ptr=entry.allocation.addr,
                extra=(entry, old_values)))
        with self.stats.category(Category.INDEX):
            secondary_remove(schema, store.secondary, key, old_values)
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, entry, old_values))

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        # Entries are already durable; just truncate the txn's log,
        # then roll the MemTable if it crossed its threshold.
        with self.tracer.span("wal.truncate", txn=txn.txn_id):
            self._nvm_wal.truncate_txn(txn.txn_id)
        for name, store in self._tables.items():
            if store.memtable.size_bytes >= \
                    self.config.memtable_threshold_bytes:
                self._roll_memtable(name, store)

    def _do_flush_commits(self) -> None:
        """Commits are durable immediately — nothing to flush."""

    def _do_abort(self, txn: Transaction) -> None:
        self._undo_txn(txn)
        self._nvm_wal.truncate_txn(txn.txn_id)

    def checkpoint(self) -> None:
        """NVM-Log takes no checkpoints — MemTables are already durable
        and recovery is undo-only."""

    # ------------------------------------------------------------------
    # MemTable rolling & compaction (no filesystem involved)
    # ------------------------------------------------------------------

    def _roll_memtable(self, name: str, store: _LogTable) -> None:
        """Mark the MemTable immutable and start a new one — the
        NVM-Log replacement for flushing an SSTable (Section 4.3)."""
        if not len(store.memtable):
            return
        self.faults.fire("memtable.roll.before")
        with self.stats.category(Category.STORAGE), \
                self.tracer.span("memtable.roll", table=name,
                                 entries=len(store.memtable),
                                 bytes=store.memtable.size_bytes):
            store.memtable.mark_immutable()
            if not store.levels:
                store.levels.append([])
            store.levels[0].append(store.memtable)
            store.memtable = self._make_memtable()
            self.stats.bump("lsm.memtable_rolls")
        self.faults.fire("memtable.roll.after")
        self._maybe_compact(name, store)

    def _write_run(self, name: str, store: _LogTable, level: int,
                   rows: Rows) -> MemTable:
        """Compaction output is "a new larger MemTable" (Section 4.3):
        the merged entries re-added on NVM and frozen, no file."""
        merged = self._make_memtable()
        for key, chain in rows:
            for kind, data in chain:
                merged.add(key, kind, data)
        merged.mark_immutable()
        return merged

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        """MemTables (mutable and immutable) and all indexes are
        non-volatile — nothing is lost."""

    def _do_recover(self) -> None:
        """Undo-only recovery: remove the MemTable entries of
        transactions in flight at the crash (Section 4.3)."""
        with self.tracer.span("recovery.wal_undo") as span:
            self._nvm_wal.head_ptr()  # locate the log on NVM
            undone = self._nvm_wal.undo_uncommitted(self._undo_wal_record)
            if span:
                span.tag(txns=undone)
        self.faults.fire("recovery.wal_undone")

    def _undo_wal_record(self, record: NVMWalRecord) -> None:
        store = self._table(record.table)
        entry, *images = record.extra
        store.memtable.remove_entry(record.key, entry)
        if record.op == "insert":
            secondary_remove(store.schema, store.secondary, record.key,
                             *images)
        elif record.op == "update":
            old_values, new_values = images
            secondary_update(store.schema, store.secondary, record.key,
                             new_values, old_values)
        else:
            secondary_add(store.schema, store.secondary, record.key,
                          *images)

"""NVM-aware in-place updates engine (NVM-InP, Section 4.1).

Differences from the traditional InP engine:

* **No tuple copies in the WAL.** When a transaction inserts a tuple,
  the engine syncs the tuple itself to NVM and records only a
  *non-volatile pointer* in the WAL (both the pointer and the tuple are
  on NVM, so the pointer stays valid across restarts). Updates log the
  before-images of just the changed inline fields plus old/new varlen
  pointers.
* **Non-volatile linked-list WAL** via the allocator interface, with
  per-transaction truncation at commit.
* **Non-volatile B+tree indexes** that are consistent immediately after
  restart — no rebuild during recovery.
* **Slot durability states** (unallocated / allocated / persisted) in
  each slot's header so that storage of transactions that never reached
  the persisted state is reclaimed after a restart, preventing
  non-volatile memory leaks.
* **Undo-only recovery** whose latency depends only on the number of
  transactions in flight at the crash, not on history (Fig. 12).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List

from ..config import EngineConfig
from ..core.schema import FIELD_SLOT_SIZE, SLOT_HEADER_SIZE
from ..core.tuple_codec import (STATE_PERSISTED, VARLEN, decode_fields,
                                encode_fields, encode_slotted)
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, TupleNotFoundError
from ..nvm.platform import Platform
from ..sim.stats import Category
from .base import StorageEngine, logger, register_engine
from .inp import InPEngine, _Table
from .nvm_wal import NVMWal, NVMWalRecord

_U64 = struct.Struct("<Q")


@register_engine
class NVMInPEngine(InPEngine):
    """In-place updates exploiting NVM's byte-addressable persistence."""

    name = "nvm-inp"
    is_nvm_aware = True
    persistent = True
    #: No files: the allocator's tags are the whole footprint.
    storage_breakdown = StorageEngine.storage_breakdown

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._nvm_wal = NVMWal(self.allocator, self.memory, tag="log",
                               faults=self.faults)

    # ------------------------------------------------------------------
    # Primitive operations (Table 2, NVM-InP column)
    # ------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str,
               values: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        key = store.schema.key_of(values)
        with self.stats.category(Category.INDEX):
            if key in store.slots:
                raise DuplicateKeyError(f"{table}: key {key!r} exists")
        store.schema.validate(values)
        with self.stats.category(Category.STORAGE):
            addr = store.pool.allocate_slot()
            slot, pointers = encode_slotted(store.schema, values,
                                            store.varlen.write)
            store.pool.write_slot(addr, slot)
        # Record the tuple *pointer* in the WAL and sync the entry
        # before marking the slot persisted; the entry (not the tuple
        # bytes) is what undo needs, so the tuple itself can be synced
        # once, with its state byte already set, right after.
        with self.stats.category(Category.RECOVERY):
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "insert", table, key, tuple_ptr=addr,
                after_varlen=tuple(zip(store.schema.layout.varlen_names,
                                       pointers))))
        with self.stats.category(Category.STORAGE):
            store.pool.set_state(addr, STATE_PERSISTED, durable=False)
            # One batched sync covers the state byte, every tuple
            # line, and the new varlen slots under a single fence.
            store.varlen.sync_many(
                pointers,
                extra_ranges=((addr, store.pool.slot_size),))
            store.pool.mark_persisted(addr)
        with self.stats.category(Category.INDEX):
            store.primary.put(key, addr)
            self._index_add(store, key, values)
        store.slots[key] = addr
        txn.engine_state.setdefault("undo", []).append(
            ("insert", table, key, addr))

    def update(self, txn: Transaction, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        store.schema.validate_partial(changes)
        with self.stats.category(Category.INDEX):
            addr = store.primary.get(key)
        if addr is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        with self.stats.category(Category.STORAGE):
            old_values = self._read_tuple(store, addr)
        before = {name: old_values[name] for name in changes}
        varlen_names = store.schema.layout.varlen_names
        inline_before = {name: value for name, value in before.items()
                         if name not in varlen_names}
        # WAL: changed inline before-images + old varlen pointers
        # (Table 3: log = F + p), synced before the in-place write.
        with self.stats.category(Category.RECOVERY):
            old_ptrs = self._varlen_ptrs_of(store, addr, changes)
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "update", table, key, tuple_ptr=addr,
                before_fields=encode_fields(store.schema, inline_before),
                before_varlen=tuple(old_ptrs.items())))
        with self.stats.category(Category.STORAGE):
            created: Dict[str, int] = {}
            replaced = self._write_fields(store, addr, changes,
                                          created=created)
            self._sync_fields(store, addr, changes, created)
        with self.stats.category(Category.INDEX):
            self._index_update(store, key, before, changes, old_values)
        txn.engine_state.setdefault("undo", []).append(
            ("update", table, key, addr, before, replaced))

    def delete(self, txn: Transaction, table: str, key: Any) -> None:
        txn.require_active()
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            addr = store.primary.get(key)
        if addr is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        old_values = self._read_tuple(store, addr)
        # WAL: just the tuple pointer (Table 3: log = p).
        with self.stats.category(Category.RECOVERY):
            self._nvm_wal.append(txn.txn_id, NVMWalRecord(
                "delete", table, key, tuple_ptr=addr))
        with self.stats.category(Category.INDEX):
            store.primary.delete(key)
            self._index_remove(store, key, old_values)
        del store.slots[key]
        # Space is reclaimed at the end of the transaction (Table 2).
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, addr, old_values))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _varlen_ptrs_of(self, store: _Table, addr: int,
                        changes: Dict[str, Any]) -> Dict[str, int]:
        """Current varlen pointers of the changed non-inline columns."""
        layout = store.schema.layout
        return {layout.names[position]: _U64.unpack(self.memory.load(
                    addr + SLOT_HEADER_SIZE + position * FIELD_SLOT_SIZE,
                    FIELD_SLOT_SIZE))[0]
                for position in layout.positions_of(changes)
                if layout.kinds[position] == VARLEN}

    def _field_ranges(self, store: _Table, addr: int,
                      names) -> List[tuple]:
        """``(addr, size)`` ranges of the named fields' slot positions."""
        return [(addr + SLOT_HEADER_SIZE + position * FIELD_SLOT_SIZE,
                 FIELD_SLOT_SIZE)
                for position in store.schema.layout.positions_of(names)]

    def _sync_fields(self, store: _Table, addr: int,
                     changes: Dict[str, Any],
                     created: Dict[str, int]) -> None:
        """Sync exactly the changed field positions (and new varlen
        slots) — the 'sync tuple changes with NVM' step of Table 2.
        Batched: adjacent field positions share cache lines, so
        per-field syncs would re-flush shared lines and pay one fence
        per field."""
        store.varlen.sync_many(
            list(created.values()),
            extra_ranges=self._field_ranges(store, addr, changes))

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        # All changes were persisted as they happened. The truncation is
        # the commit point, so it must come *before* reclamation: until
        # the log is gone, undo may still run and needs the deleted
        # tuples and superseded varlen slots intact (a crash after the
        # truncation merely leaks the space it would have reclaimed).
        with self.tracer.span("wal.truncate", txn=txn.txn_id):
            self._nvm_wal.truncate_txn(txn.txn_id)
        self._reclaim(txn)
        txn.engine_state["durable"] = True

    def _do_flush_commits(self) -> None:
        """No group commit needed — commits are durable immediately."""

    def _do_abort(self, txn: Transaction) -> None:
        # Roll back in reverse order using the in-memory undo records
        # (equivalent to walking the txn's non-volatile WAL entries).
        for record in reversed(txn.engine_state.get("undo", [])):
            self._undo_one(record)
        self._nvm_wal.truncate_txn(txn.txn_id)

    def _undo_one(self, record: tuple) -> None:
        kind = record[0]
        store = self._table(record[1])
        if kind == "insert":
            __, __t, key, addr = record
            values = self._read_tuple(store, addr)
            with self.stats.category(Category.INDEX):
                store.primary.delete(key)
                self._index_remove(store, key, values)
            store.slots.pop(key, None)
            self._release_tuple(store, addr)
        elif kind == "update":
            __, __t, key, addr, before, replaced = record
            current = self._read_tuple(store, addr)
            with self.stats.category(Category.STORAGE):
                self._restore_fields(store, addr, before, replaced)
                self.memory.sync_ranges(
                    self._field_ranges(store, addr, before))
            with self.stats.category(Category.INDEX):
                self._index_update(store, key, {}, before, current)
        else:  # delete
            __, __t, key, addr, old_values = record
            with self.stats.category(Category.INDEX):
                store.primary.put(key, addr)
                self._index_add(store, key, old_values)
            store.slots[key] = addr

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """NVM-InP takes no checkpoints — the database *is* durable."""

    def _on_crash(self) -> None:
        """Pools, indexes, and the NVM WAL all survive."""

    def _do_recover(self) -> None:
        """Undo-only recovery (Section 4.1): committed effects are
        already durable; roll back the transactions whose WAL entries
        were never truncated."""
        with self.tracer.span("recovery.wal_undo") as span:
            self._nvm_wal.head_ptr()  # locate the log on NVM
            undone = self._nvm_wal.undo_uncommitted(self._undo_wal_record)
            if span:
                span.tag(txns=undone)
        self.faults.fire("recovery.wal_undone")
        with self.tracer.span("recovery.pool_reclaim"):
            for store in self._tables.values():
                store.pool.recover_unpersisted()
        logger.info("nvm-inp: undo-only recovery complete")

    def _undo_wal_record(self, record: NVMWalRecord) -> None:
        store = self._table(record.table)
        if record.op == "insert":
            addr = record.tuple_ptr
            if store.slots.get(record.key) != addr:
                return
            values = self._read_tuple(store, addr)
            store.primary.delete(record.key)
            self._index_remove(store, record.key, values)
            del store.slots[record.key]
            self._release_tuple(store, addr)
        elif record.op == "update":
            addr = record.tuple_ptr
            before = decode_fields(store.schema, record.before_fields) \
                if record.before_fields else {}
            replaced = {}
            current = self._read_tuple(store, addr)
            # Restore old varlen pointers recorded in the WAL entry.
            for name, old_ptr in record.before_varlen:
                position = store.schema.layout.positions[name]
                offset = addr + SLOT_HEADER_SIZE \
                    + position * FIELD_SLOT_SIZE
                new_ptr = _U64.unpack(
                    self.memory.load(offset, FIELD_SLOT_SIZE))[0]
                self.memory.store(offset, _U64.pack(old_ptr))
                self.memory.sync(offset, FIELD_SLOT_SIZE)
                if new_ptr != old_ptr:  # else: crashed before the store
                    store.varlen.free(new_ptr)
            if before:
                self._restore_fields(store, addr, before, replaced)
                # The restored field bytes must be durable before
                # recover() truncates this txn's WAL entries — a crash
                # after truncation would otherwise leave the aborted
                # update's bytes in the tuple with no undo record left
                # to repair them (SDA002; mirrors the abort path).
                self.memory.sync_ranges(
                    self._field_ranges(store, addr, before))
                self._index_update(store, record.key, {}, before, current)
        else:  # delete — point the indexes back at the original tuple
            addr = record.tuple_ptr
            if record.key in store.slots:
                return
            values = self._read_tuple(store, addr)
            store.primary.put(record.key, addr)
            self._index_add(store, record.key, values)
            store.slots[record.key] = addr

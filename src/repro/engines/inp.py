"""In-place updates engine (InP, Section 3.1).

The most common storage engine strategy: a single version of each
tuple, updated in place. Modeled after VoltDB — no buffer pool; tuples
live in fixed-size slots (non-inlined fields in variable-length slots);
STX B+trees for primary and secondary indexes.

Durability comes from an ARIES-style write-ahead log on the filesystem
with group commit, plus periodic gzip-compressed checkpoints that bound
recovery latency. The engine treats allocator memory as *volatile*:
after a crash everything in the pools and indexes is gone, and recovery
loads the last checkpoint, replays the WAL for committed transactions,
and rebuilds all indexes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import EngineConfig
from ..core.schema import FIELD_SLOT_SIZE, SLOT_HEADER_SIZE, Schema
from ..core.tuple_codec import (VARLEN, decode_fields, decode_inlined,
                                encode_fields, encode_inlined,
                                encode_slotted)
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, TupleNotFoundError
from ..fault.injector import register_fault_point
from ..index.stx_btree import STXBTree
from ..nvm.platform import Platform
from ..sim.stats import Category
from . import wal as walmod
from .base import StorageEngine, logger, register_engine
from .checkpoint import Checkpointer
from .secondary import (secondary_add, secondary_remove,
                        secondary_update)
from .slotted import FixedSlotPool, VarlenPool, read_slotted_tuple
from .wal import WALEntry, WriteAheadLog

import struct

_U64 = struct.Struct("<Q")

register_fault_point(
    "checkpoint.truncate_wal.before",
    "checkpoint installed, WAL about to be truncated",
    engines=("inp", "hybrid-inp"))


class _Table:
    """Per-table storage state for the InP engine."""

    __slots__ = ("schema", "pool", "varlen", "primary", "secondary",
                 "slots", "varlen_of")

    def __init__(self, schema: Schema, engine: "InPEngine") -> None:
        self.schema = schema
        self.build_storage(engine)
        #: primary key -> slot address (engine metadata mirror).
        self.slots: Dict[Any, int] = {}
        #: slot address -> varlen pointers owned by that tuple.
        self.varlen_of: Dict[int, List[int]] = {}

    def build_storage(self, engine: "InPEngine") -> None:
        """Fresh pools and indexes: at table creation, and again when
        recovery replaces the volatile ones a crash took."""
        self.pool = FixedSlotPool(self.schema, engine.allocator,
                                  engine.memory,
                                  persistent=engine.persistent)
        self.varlen = VarlenPool(engine.allocator, engine.memory,
                                 persistent=engine.persistent)
        self.primary = engine._make_index()
        #: index name -> (btree mapping secondary key -> {primary keys})
        self.secondary: Dict[str, STXBTree] = {
            name: engine._make_index()
            for name in self.schema.secondary_indexes
        }


@register_engine
class InPEngine(StorageEngine):
    """In-place updates with filesystem WAL and checkpoints."""

    name = "inp"
    is_nvm_aware = False

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._wal = WriteAheadLog(platform.filesystem,
                                  faults=platform.faults)
        self._checkpointer = Checkpointer(platform.filesystem,
                                          platform.clock,
                                          faults=platform.faults)
        self._commits_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _create_table_storage(self, schema: Schema) -> None:
        self._tables[schema.table] = _Table(schema, self)

    # ------------------------------------------------------------------
    # Primitive operations (Table 2)
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
        # WAL first: full tuple after-image (Table 3: log = T).
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_INSERT, txn.txn_id, self._table_id(table),
                key=key, after=encode_inlined(store.schema, values)))
        with self.stats.category(Category.STORAGE):
            addr = store.pool.allocate_slot()
            slot, pointers = encode_slotted(store.schema, values,
                                            store.varlen.write)
            store.pool.write_slot(addr, slot)
            store.varlen_of[addr] = pointers
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
        # WAL: before and after images of the changed fields only
        # (Table 3: log = 2 x (F + V)).
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_UPDATE, txn.txn_id, self._table_id(table),
                key=key,
                before=encode_fields(store.schema, before),
                after=encode_fields(store.schema, changes)))
        with self.stats.category(Category.STORAGE):
            replaced = self._write_fields(store, addr, changes)
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
        with self.stats.category(Category.STORAGE):
            old_values = self._read_tuple(store, addr)
        # WAL: full before-image (Table 3: log = T).
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_DELETE, txn.txn_id, self._table_id(table),
                key=key, before=encode_inlined(store.schema, old_values)))
        with self.stats.category(Category.INDEX):
            store.primary.delete(key)
            self._index_remove(store, key, old_values)
        del store.slots[key]
        # The slot is reclaimed at commit; abort restores the entries.
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, addr, old_values))

    def select(self, txn: Transaction, table: str,
               key: Any) -> Optional[Dict[str, Any]]:
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            addr = store.primary.get(key)
        if addr is None:
            return None
        with self.stats.category(Category.STORAGE):
            return self._read_tuple(store, addr)

    def select_secondary(self, txn: Transaction, table: str,
                         index_name: str, key: Any) -> List[Any]:
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            matches = store.secondary[index_name].get(key)
        return sorted(matches) if matches else []

    def scan(self, txn: Transaction, table: str, lo: Any = None,
             hi: Any = None) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        store = self._table(table)
        for key, addr in list(store.primary.items(lo=lo, hi=hi)):
            with self.stats.category(Category.STORAGE):
                values = self._read_tuple(store, addr)
            yield key, values

    # ------------------------------------------------------------------
    # Tuple I/O helpers
    # ------------------------------------------------------------------

    def _read_tuple(self, store: _Table, addr: int) -> Dict[str, Any]:
        return read_slotted_tuple(store.schema, store.pool,
                                  store.varlen, addr)

    def _write_fields(self, store: _Table, addr: int,
                      changes: Dict[str, Any],
                      created: Optional[Dict[str, int]] = None,
                      ) -> Dict[str, int]:
        """In-place update of the changed fields; returns the old
        varlen pointers that were replaced (for undo). When ``created``
        is supplied it is filled with the fresh varlen pointers."""
        layout = store.schema.layout
        replaced: Dict[str, int] = {}
        owned = store.varlen_of.setdefault(addr, [])
        for position in layout.positions_of(changes):
            name = layout.names[position]
            stored = layout.packers[position](changes[name])
            offset = addr + SLOT_HEADER_SIZE + position * FIELD_SLOT_SIZE
            if layout.kinds[position] == VARLEN:
                old_ptr = _U64.unpack(
                    self.memory.load(offset, FIELD_SLOT_SIZE))[0]
                new_ptr = store.varlen.write(stored)
                self.memory.store(offset, _U64.pack(new_ptr))
                replaced[name] = old_ptr
                if created is not None:
                    created[name] = new_ptr
                if old_ptr in owned:
                    owned.remove(old_ptr)
                owned.append(new_ptr)
            else:
                self.memory.store(offset, stored)
        return replaced

    def _restore_fields(self, store: _Table, addr: int,
                        before: Dict[str, Any],
                        replaced: Dict[str, int]) -> None:
        """Undo an in-place update: inline fields get their old values
        written back; varlen fields get their *original pointers*
        restored and the aborted update's fresh slots freed."""
        layout = store.schema.layout
        owned = store.varlen_of.setdefault(addr, [])
        for position in layout.positions_of(before):
            name = layout.names[position]
            offset = addr + SLOT_HEADER_SIZE + position * FIELD_SLOT_SIZE
            if name in replaced:
                new_ptr = _U64.unpack(
                    self.memory.load(offset, FIELD_SLOT_SIZE))[0]
                old_ptr = replaced[name]
                self.memory.store(offset, _U64.pack(old_ptr))
                if new_ptr in owned:
                    owned.remove(new_ptr)
                store.varlen.free(new_ptr)
                owned.append(old_ptr)
            else:
                self.memory.store(
                    offset, layout.packers[position](before[name]))

    # ------------------------------------------------------------------
    # Secondary index maintenance
    # ------------------------------------------------------------------

    def _index_add(self, store: _Table, key: Any,
                   values: Dict[str, Any]) -> None:
        secondary_add(store.schema, store.secondary, key, values)

    def _index_remove(self, store: _Table, key: Any,
                      values: Dict[str, Any]) -> None:
        secondary_remove(store.schema, store.secondary, key, values)

    def _index_update(self, store: _Table, key: Any,
                      before: Dict[str, Any], changes: Dict[str, Any],
                      old_values: Dict[str, Any]) -> None:
        secondary_update(store.schema, store.secondary, key, old_values,
                         {**old_values, **changes})

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        undo = txn.engine_state.get("undo")
        if not undo:
            return  # read-only transaction: nothing to log or reclaim
        self._wal.append(WALEntry(walmod.OP_COMMIT, txn.txn_id))
        self._reclaim(txn)
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= self.checkpoint_interval_txns:
            self.checkpoint()

    def _do_flush_commits(self) -> None:
        with self.tracer.span("wal.fsync",
                              pending=self._wal.pending_bytes()):
            self._wal.flush()

    def _do_abort(self, txn: Transaction) -> None:
        self._wal.append(WALEntry(walmod.OP_ABORT, txn.txn_id))
        for record in reversed(txn.engine_state.get("undo", [])):
            kind = record[0]
            store = self._table(record[1])
            if kind == "insert":
                __, __t, key, addr = record
                with self.stats.category(Category.INDEX):
                    store.primary.delete(key)
                    self._index_remove(store, key,
                                       self._read_tuple(store, addr))
                del store.slots[key]
                self._release_tuple(store, addr)
            elif kind == "update":
                __, __t, key, addr, before, replaced = record
                current = self._read_tuple(store, addr)
                with self.stats.category(Category.STORAGE):
                    self._restore_fields(store, addr, before, replaced)
                with self.stats.category(Category.INDEX):
                    self._index_update(store, key, {}, before, current)
            else:  # delete
                __, __t, key, addr, old_values = record
                with self.stats.category(Category.INDEX):
                    store.primary.put(key, addr)
                    self._index_add(store, key, old_values)
                store.slots[key] = addr

    def _reclaim(self, txn: Transaction) -> None:
        """Commit-time reclamation: free the slots of deleted tuples
        and the varlen slots that updates replaced."""
        for record in txn.engine_state.get("undo", []):
            if record[0] == "delete":
                __, table, __k, addr, __v = record
                self._release_tuple(self._table(table), addr)
            elif record[0] == "update":
                __, table, __k, __a, __b, replaced = record
                store = self._table(table)
                for old_ptr in replaced.values():
                    store.varlen.free(old_ptr)

    def _release_tuple(self, store: _Table, addr: int) -> None:
        with self.stats.category(Category.STORAGE):
            for pointer in store.varlen_of.pop(addr, []):
                store.varlen.free(pointer)
            store.pool.free_slot(addr)

    # ------------------------------------------------------------------
    # Checkpointing & recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot all tables, then truncate the WAL (Section 3.1)."""
        self.flush_commits()

        def rows_of(store: _Table):
            return (self._read_tuple(store, addr)
                    for addr in list(store.slots.values()))

        with self.stats.category(Category.RECOVERY), \
                self.tracer.span("checkpoint.write") as span:
            tables = {name: (store.schema, rows_of(store))
                      for name, store in self._tables.items()}
            size = self._checkpointer.write(tables)
            self.faults.fire("checkpoint.truncate_wal.before")
            self._wal.truncate()
            if span:
                span.tag(compressed_bytes=size,
                         number=self._checkpointer.checkpoints_taken)
        logger.info("%s: checkpoint #%d written (%d bytes compressed)",
                    self.name, self._checkpointer.checkpoints_taken, size)
        self._commits_since_checkpoint = 0

    def _on_crash(self) -> None:
        """Everything in allocator memory is gone (volatile use): the
        crash reclaimed it, and recovery replaces the pools."""
        for store in self._tables.values():
            store.slots.clear()
            store.varlen_of.clear()

    def _do_recover(self) -> None:
        """Load the last checkpoint, replay the WAL (redo committed
        transactions only), rebuild every index."""
        with self.tracer.span("recovery.rebuild_storage"):
            for store in self._tables.values():
                store.build_storage(self)
        with self.tracer.span("recovery.checkpoint_load") as span:
            restored = 0
            for name, values in self._checkpointer.read(self.schemas):
                # SDA002 waived: InP (and hybrid-inp) rebuild
                # *volatile* pools here; durability is the
                # checkpoint + filesystem WAL, so the rebuilt
                # slots need no NVM sync.
                self._recover_insert(self._tables[name], values)  # noqa: SDA002
                restored += 1
            if span:
                span.tag(tuples=restored)
        self.faults.fire("recovery.checkpoint_loaded")
        with self.tracer.span("recovery.wal_replay") as span:
            committed = self._wal.committed_txn_ids()
            replayed = 0
            for entry in self._wal.replay():
                if entry.op in (walmod.OP_COMMIT, walmod.OP_ABORT):
                    continue
                if entry.txn_id not in committed:
                    continue
                # SDA002 waived: WAL redo writes into the same
                # volatile rebuilt pools as the checkpoint load
                # above; the filesystem WAL remains the durable
                # copy until the next checkpoint.
                self._replay_entry(entry)  # noqa: SDA002
                replayed += 1
            if span:
                span.tag(entries=replayed, committed=len(committed))
        self.faults.fire("recovery.wal_replayed")
        logger.info("%s: recovery replayed WAL for %d committed txns",
                    self.name, len(committed))

    def _recover_insert(self, store: _Table,
                        values: Dict[str, Any]) -> None:
        key = store.schema.key_of(values)
        addr = store.pool.allocate_slot()
        slot, pointers = encode_slotted(store.schema, values,
                                        store.varlen.write)
        store.pool.write_slot(addr, slot)
        store.varlen_of[addr] = pointers
        store.primary.put(key, addr)
        self._index_add(store, key, values)
        store.slots[key] = addr

    def _replay_entry(self, entry: WALEntry) -> None:
        name = self._table_name(entry.table_id)
        store = self._tables[name]
        if entry.op == walmod.OP_INSERT:
            values = decode_inlined(store.schema, entry.after)
            if entry.key not in store.slots:
                self._recover_insert(store, values)
        elif entry.op == walmod.OP_UPDATE:
            addr = store.slots.get(entry.key)
            if addr is None:
                return
            changes = decode_fields(store.schema, entry.after)
            old_values = self._read_tuple(store, addr)
            before = {k: old_values[k] for k in changes}
            self._write_fields(store, addr, changes)
            self._index_update(store, entry.key, before, changes,
                               old_values)
        elif entry.op == walmod.OP_DELETE:
            addr = store.slots.pop(entry.key, None)
            if addr is None:
                return
            old_values = self._read_tuple(store, addr)
            store.primary.delete(entry.key)
            self._index_remove(store, entry.key, old_values)
            self._release_tuple(store, addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def storage_breakdown(self) -> Dict[str, int]:
        breakdown = super().storage_breakdown()
        breakdown["log"] = self._wal.size_bytes
        breakdown["checkpoint"] = self._checkpointer.size_bytes
        return breakdown


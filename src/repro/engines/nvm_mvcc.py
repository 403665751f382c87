"""SOFORT-style multi-version engine on NVM (Section 6 related work).

SOFORT [51] is "designed to not perform any logging and uses MVCC":
updates never modify tuples in place and never copy before-images into
a log — they append a new *version*. This extension engine explores
that design point on the testbed's NVM substrate:

* every version is a persistent slot carrying a prologue of
  ``(begin_ts, end_ts, prev_ptr)`` after the tuple bytes;
* an update creates the new version, durably closes the old one
  (a single 8-byte ``end_ts`` write), and links them;
* **commit is one atomic durable 8-byte write** — advancing the
  persistent commit watermark. No redo information exists anywhere;
* a minimal in-flight registry (the non-volatile pointer list reused
  from the NVM-InP engine) lets recovery find the versions of
  transactions that were active at the crash and unlink them — undo
  metadata, not a log: it holds pointers only, never images;
* superseded versions are reclaimed at commit (the serial-execution
  testbed has no snapshot readers keeping them alive).

Compared with NVM-InP, updates trade the in-place field write for a
full version copy — more bytes written per update, but no before-image
logging and a natural path to snapshot reads.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import EngineConfig
from ..core.schema import Schema
from ..core.tuple_codec import encode_slotted
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, TupleNotFoundError
from ..index.nv_btree import NVBTree
from ..nvm.platform import Platform
from ..sim.stats import Category
from .base import StorageEngine, register_engine
from .nvm_wal import NVMWal, NVMWalRecord
from .secondary import secondary_add, secondary_remove, secondary_update
from .slotted import FixedSlotPool, VarlenPool, read_slotted_tuple

_U64 = struct.Struct("<Q")

#: Version prologue appended after the tuple bytes.
PROLOGUE_SIZE = 24  # begin_ts (8) + end_ts (8) + prev ptr (8)
END_INFINITY = 2 ** 64 - 1
NO_PREV = 0


class _MVCCTable:
    """Per-table storage for the MVCC engine."""

    __slots__ = ("schema", "pool", "varlen", "index", "secondary")

    def __init__(self, schema: Schema, engine: "NVMMVCCEngine") -> None:
        self.schema = schema
        self.pool = FixedSlotPool(schema, engine.allocator, engine.memory,
                                  persistent=engine.persistent,
                                  extra_bytes=PROLOGUE_SIZE)
        self.varlen = VarlenPool(engine.allocator, engine.memory,
                                 persistent=engine.persistent)
        self.index = engine._make_index()
        self.secondary: Dict[str, NVBTree] = {
            name: engine._make_index()
            for name in schema.secondary_indexes
        }


@register_engine
class NVMMVCCEngine(StorageEngine):
    """Logging-free multi-version storage on NVM (SOFORT-style)."""

    name = "nvm-mvcc"
    is_nvm_aware = True
    persistent = True

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        #: In-flight version registry (pointers only, truncated at
        #: commit) — what recovery walks to unlink uncommitted versions.
        self._inflight = NVMWal(self.allocator, self.memory, tag="log",
                                faults=self.faults)
        #: The commit watermark: one durable 8-byte NVM word.
        self._watermark = self.allocator.malloc(8, tag="other")
        self.allocator.persist(self._watermark)
        self.memory.atomic_durable_store_u64(self._watermark.addr, 0)

    def _create_table_storage(self, schema: Schema) -> None:
        self._tables[schema.table] = _MVCCTable(schema, self)

    # ------------------------------------------------------------------
    # Version helpers
    # ------------------------------------------------------------------

    def _prologue_addr(self, store: _MVCCTable, addr: int) -> int:
        return addr + store.schema.fixed_slot_size

    def _write_version(self, store: _MVCCTable, values: Dict[str, Any],
                       begin_ts: int, prev: int) -> int:
        """Materialize one durable version; returns its address."""
        addr = store.pool.allocate_slot()
        slot, pointers = encode_slotted(store.schema, values,
                                        store.varlen.write)
        prologue = _U64.pack(begin_ts) + _U64.pack(END_INFINITY) \
            + _U64.pack(prev)
        store.pool.write_slot(addr, slot + prologue)
        # One batched sync: slot (incl. prologue) + varlen fields,
        # each line flushed once under a single fence.
        store.varlen.sync_many(
            pointers,
            extra_ranges=((addr, store.pool.slot_size),))
        store.pool.mark_persisted(addr)
        return addr

    def _read_version(self, store: _MVCCTable,
                      addr: int) -> Dict[str, Any]:
        return read_slotted_tuple(store.schema, store.pool,
                                  store.varlen, addr)

    def _set_end(self, store: _MVCCTable, addr: int, end_ts: int) -> None:
        """Durably close (or reopen) a version — one 8-byte write."""
        offset = self._prologue_addr(store, addr) + 8
        self.memory.atomic_durable_store_u64(offset, end_ts)

    def _free_version(self, store: _MVCCTable, addr: int) -> None:
        # The pointers first: a version whose slot post-restart
        # reclamation already freed still owns its varlen slots.
        for pointer in store.pool.pointers_of(addr):
            store.varlen.free(pointer)
        if store.pool.owns(addr):
            store.pool.free_slot(addr)

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str,
               values: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        key = store.schema.key_of(values)
        with self.stats.category(Category.INDEX):
            if store.index.get(key) is not None:
                raise DuplicateKeyError(f"{table}: key {key!r} exists")
        store.schema.validate(values)
        with self.stats.category(Category.STORAGE):
            addr = self._write_version(store, values, txn.timestamp,
                                       NO_PREV)
        with self.stats.category(Category.RECOVERY):
            self._inflight.append(txn.txn_id, NVMWalRecord(
                "insert", table, key, tuple_ptr=addr))
        with self.stats.category(Category.INDEX):
            store.index.put(key, addr)
            secondary_add(store.schema, store.secondary, key, values)
        txn.engine_state.setdefault("undo", []).append(
            ("insert", table, key, addr))

    def update(self, txn: Transaction, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        txn.require_active()
        store = self._table(table)
        store.schema.validate_partial(changes)
        with self.stats.category(Category.INDEX):
            current = store.index.get(key)
        if current is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        with self.stats.category(Category.STORAGE):
            old_values = self._read_version(store, current)
            new_values = dict(old_values)
            new_values.update(changes)
            fresh = self._write_version(store, new_values,
                                        txn.timestamp, prev=current)
            self._set_end(store, current, txn.timestamp)
        with self.stats.category(Category.RECOVERY):
            self._inflight.append(txn.txn_id, NVMWalRecord(
                "update", table, key, tuple_ptr=fresh,
                extra=current))
        with self.stats.category(Category.INDEX):
            store.index.put(key, fresh)
            secondary_update(store.schema, store.secondary, key,
                             old_values, new_values)
        txn.engine_state.setdefault("undo", []).append(
            ("update", table, key, fresh, current, old_values,
             new_values))

    def delete(self, txn: Transaction, table: str, key: Any) -> None:
        txn.require_active()
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            current = store.index.get(key)
        if current is None:
            raise TupleNotFoundError(f"{table}: no tuple with key {key!r}")
        old_values = self._read_version(store, current)
        with self.stats.category(Category.STORAGE):
            self._set_end(store, current, txn.timestamp)
        with self.stats.category(Category.RECOVERY):
            self._inflight.append(txn.txn_id, NVMWalRecord(
                "delete", table, key, tuple_ptr=current))
        with self.stats.category(Category.INDEX):
            store.index.delete(key)
            secondary_remove(store.schema, store.secondary, key,
                             old_values)
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, current, old_values))

    def select(self, txn: Transaction, table: str,
               key: Any) -> Optional[Dict[str, Any]]:
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            addr = store.index.get(key)
        if addr is None:
            return None
        with self.stats.category(Category.STORAGE):
            return self._read_version(store, addr)

    def select_secondary(self, txn: Transaction, table: str,
                         index_name: str, key: Any) -> List[Any]:
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            members = store.secondary[index_name].get(key)
        return sorted(members) if members else []

    def scan(self, txn: Transaction, table: str, lo: Any = None,
             hi: Any = None) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        store = self._table(table)
        for key, addr in list(store.index.items(lo=lo, hi=hi)):
            with self.stats.category(Category.STORAGE):
                values = self._read_version(store, addr)
            yield key, values

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        if txn.engine_state.get("undo"):
            # THE commit: one atomic durable watermark write.
            self.memory.atomic_durable_store_u64(
                self._watermark.addr, txn.timestamp)
        # Drop the in-flight registry before reclaiming: until the
        # registry is gone recovery may still undo this transaction and
        # needs the superseded versions intact.
        self._inflight.truncate_txn(txn.txn_id)
        # Reclaim versions this transaction superseded or deleted (no
        # snapshot readers exist in the serial testbed).
        for record in txn.engine_state.get("undo", []):
            kind = record[0]
            store = self._table(record[1])
            if kind == "update":
                self._free_version(store, record[4])  # old version
            elif kind == "delete":
                self._free_version(store, record[3])

    def _do_abort(self, txn: Transaction) -> None:
        for record in reversed(txn.engine_state.get("undo", [])):
            self._undo_one(record)
        self._inflight.truncate_txn(txn.txn_id)

    def _undo_one(self, record: tuple) -> None:
        kind = record[0]
        store = self._table(record[1])
        key = record[2]
        if kind == "insert":
            addr = record[3]
            values = self._read_version(store, addr)
            store.index.delete(key)
            secondary_remove(store.schema, store.secondary, key, values)
            self._free_version(store, addr)
        elif kind == "update":
            __, __t, __k, fresh, current, old_values, new_values = record
            self._set_end(store, current, END_INFINITY)
            store.index.put(key, current)
            secondary_update(store.schema, store.secondary, key,
                             new_values, old_values)
            self._free_version(store, fresh)
        else:  # delete
            __, __t, __k, current, old_values = record
            self._set_end(store, current, END_INFINITY)
            store.index.put(key, current)
            secondary_add(store.schema, store.secondary, key, old_values)

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def _do_recover(self) -> None:
        """Unlink the versions of transactions in flight at the crash;
        everything committed is already durable (the watermark)."""
        self.memory.load_u64(self._watermark.addr)
        self._inflight.undo_uncommitted(self._undo_wal_record)
        for store in self._tables.values():
            store.pool.recover_unpersisted()

    def _undo_wal_record(self, record: NVMWalRecord) -> None:
        store = self._table(record.table)
        key = record.key
        if record.op == "insert":
            addr = record.tuple_ptr
            if store.index.get(key) != addr:
                return
            values = self._read_version(store, addr)
            store.index.delete(key)
            secondary_remove(store.schema, store.secondary, key, values)
            self._free_version(store, addr)
        elif record.op == "update":
            fresh = record.tuple_ptr
            current = record.extra
            if store.index.get(key) != fresh:
                return
            new_values = self._read_version(store, fresh)
            self._set_end(store, current, END_INFINITY)
            old_values = self._read_version(store, current)
            store.index.put(key, current)
            secondary_update(store.schema, store.secondary, key,
                             new_values, old_values)
            self._free_version(store, fresh)
        else:  # delete
            current = record.tuple_ptr
            if store.index.get(key) is not None:
                return
            self._set_end(store, current, END_INFINITY)
            old_values = self._read_version(store, current)
            store.index.put(key, current)
            secondary_add(store.schema, store.secondary, key, old_values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def watermark(self) -> int:
        """The durable commit watermark (last committed timestamp)."""
        return self.memory.load_u64(self._watermark.addr)


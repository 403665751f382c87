"""Log-structured updates engine (Log, Section 3.3).

Modeled on LevelDB: tuple modifications are first recorded in a
filesystem WAL, then applied to the MemTable. When the MemTable exceeds
its threshold it is flushed as an immutable SSTable file (with a Bloom
filter), and a leveled compaction process periodically merges runs to
bound read amplification. Reads must coalesce a tuple's entries across
the MemTable and however many runs contain them — the engine's
characteristic read amplification.

Recovery rebuilds the MemTable from the WAL (redo committed, skip
uncommitted), reopens every SSTable (rebuilding their volatile indexes
and Bloom filters), and reconstructs the secondary indexes.

A *run* is anything with ``pairs(key)``, ``keys_in_range(lo, hi)``,
``rows()`` and ``destroy()`` — an :class:`SSTable` here, an immutable
:class:`MemTable` in the NVM-Log subclass. Read path, scan, leveled
compaction and run merge are written once against that contract;
:meth:`LogEngine._write_run` alone says which kind of run is produced.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..config import EngineConfig
from ..core.schema import Schema
from ..core.tuple_codec import (decode_fields, decode_inlined,
                                encode_fields, encode_inlined)
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, TupleNotFoundError
from ..fault.injector import register_fault_point
from ..index.stx_btree import STXBTree
from ..nvm.platform import Platform
from ..sim.stats import Category
from . import wal as walmod
from .base import StorageEngine, logger, register_engine
from .lsm.compaction import (EntryPair, chain_has_base, coalesce_entries,
                             merge_entry_chains)
from .lsm.memtable import (ENTRY_DELTA, ENTRY_PUT, ENTRY_TOMBSTONE,
                           MemTable)
from .lsm.sstable import SSTable
from .secondary import secondary_add, secondary_remove, secondary_update
from .wal import WALEntry, WriteAheadLog

register_fault_point(
    "memtable.flush.before",
    "MemTable about to be flushed to a level-0 SSTable",
    engines=("log",))
register_fault_point(
    "memtable.flush.after_write",
    "SSTable durably written, WAL not yet truncated",
    engines=("log",))
register_fault_point(
    "compaction.merge.before",
    "level overflow detected, compaction merge about to run",
    engines=("log", "nvm-log"))


#: One immutable run below the MemTable.
Run = Union[SSTable, MemTable]
Rows = List[Tuple[Any, List[EntryPair]]]


class _LogTable:
    """Per-table LSM tree for the Log engines."""

    __slots__ = ("schema", "memtable", "levels", "secondary",
                 "sstable_ids")

    def __init__(self, schema: Schema, engine: "LogEngine") -> None:
        self.schema = schema
        self.memtable = engine._make_memtable()
        #: levels[i] is a list of runs, oldest first; level i+1 holds
        #: runs produced by compacting level i.
        self.levels: List[List[Run]] = []
        self.secondary: Dict[str, STXBTree] = {
            name: engine._make_index()
            for name in schema.secondary_indexes
        }
        self.sstable_ids = itertools.count(0)


@register_engine
class LogEngine(StorageEngine):
    """Log-structured updates with a filesystem WAL and SSTables."""

    name = "log"
    is_nvm_aware = False

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._wal = WriteAheadLog(platform.filesystem,
                                  faults=platform.faults)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_memtable(self) -> MemTable:
        return MemTable(self.allocator, self.memory,
                        node_size=self.config.btree_node_size,
                        persistent=self.persistent,
                        bloom_bits_per_key=self.config.bloom_bits_per_key,
                        bloom_hashes=self.config.bloom_hashes)

    def _create_table_storage(self, schema: Schema) -> None:
        self._tables[schema.table] = _LogTable(schema, self)

    # ------------------------------------------------------------------
    # Read path: tuple coalescing across LSM runs
    # ------------------------------------------------------------------

    def _collect_chain(self, store: _LogTable,
                       key: Any) -> List[Tuple[str, bytes]]:
        """Gather the key's entries from newest run to the run holding
        its base record, then return them oldest-first."""
        segments: List[List[Tuple[str, bytes]]] = []
        older = itertools.chain.from_iterable(map(reversed, store.levels))
        for run in itertools.chain([store.memtable], older):  # newest first
            # Per-run look-ups (Bloom probe + run index descent
            # + entry fetch) are the LSM index accesses that
            # dominate the Log engines' Fig. 13 breakdown.
            with self.stats.category(Category.INDEX):
                chain = run.pairs(key)
            segments.append(chain)
            if chain_has_base(chain):
                break
        segments.reverse()  # oldest first
        return merge_entry_chains(segments)

    def _get(self, store: _LogTable, key: Any) -> Optional[Dict[str, Any]]:
        chain = self._collect_chain(store, key)
        if not chain:
            return None
        schema = store.schema
        return coalesce_entries(
            chain,
            decode_full=lambda data: decode_inlined(schema, data),
            decode_delta=lambda data: decode_fields(schema, data))

    # ------------------------------------------------------------------
    # Primitive operations (Table 2)
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
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_INSERT, txn.txn_id, self._table_id(table),
                key=key, after=image))
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_PUT, image)
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
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_UPDATE, txn.txn_id, self._table_id(table),
                key=key,
                before=encode_fields(schema, before),
                after=encode_fields(schema, changes)))
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_DELTA,
                                       encode_fields(schema, changes))
        new_values = dict(old_values)
        new_values.update(changes)
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
        with self.stats.category(Category.RECOVERY):
            self._wal.append(WALEntry(
                walmod.OP_DELETE, txn.txn_id, self._table_id(table),
                key=key, before=encode_inlined(schema, old_values)))
        with self.stats.category(Category.STORAGE):
            entry = store.memtable.add(key, ENTRY_TOMBSTONE, b"")
        with self.stats.category(Category.INDEX):
            secondary_remove(schema, store.secondary, key, old_values)
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, entry, old_values))

    def select(self, txn: Transaction, table: str,
               key: Any) -> Optional[Dict[str, Any]]:
        return self._get(self._table(table), key)

    def select_secondary(self, txn: Transaction, table: str,
                         index_name: str, key: Any) -> List[Any]:
        store = self._table(table)
        with self.stats.category(Category.INDEX):
            members = store.secondary[index_name].get(key)
        return sorted(members) if members else []

    def scan(self, txn: Transaction, table: str, lo: Any = None,
             hi: Any = None) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        store = self._table(table)
        keys = set(store.memtable.keys_in_range(lo, hi))
        for level in store.levels:
            for run in level:
                keys.update(run.keys_in_range(lo, hi))
        for key in sorted(keys):
            values = self._get(store, key)
            if values is not None:
                yield key, values

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        if txn.engine_state.get("undo"):
            self._wal.append(WALEntry(walmod.OP_COMMIT, txn.txn_id))

    def _do_flush_commits(self) -> None:
        with self.tracer.span("wal.fsync",
                              pending=self._wal.pending_bytes()):
            self._wal.flush()
        # MemTable flushes happen at durable points, between
        # transactions, so an SSTable never contains dirty data.
        for name, store in self._tables.items():
            if store.memtable.size_bytes >= \
                    self.config.memtable_threshold_bytes:
                self._flush_memtable(name, store)

    def _do_abort(self, txn: Transaction) -> None:
        self._wal.append(WALEntry(walmod.OP_ABORT, txn.txn_id))
        self._undo_txn(txn)

    def _undo_txn(self, txn: Transaction) -> None:
        """Remove the transaction's MemTable entries and reverse its
        secondary index effects, newest first."""
        for record in reversed(txn.engine_state.get("undo", [])):
            kind, table, key, entry = record[0], record[1], record[2], \
                record[3]
            store = self._table(table)
            with self.stats.category(Category.STORAGE):
                store.memtable.remove_entry(key, entry)
            with self.stats.category(Category.INDEX):
                if kind == "insert":
                    secondary_remove(store.schema, store.secondary, key,
                                     record[4])
                elif kind == "update":
                    __, __t, __k, __e, old_values, new_values = record
                    secondary_update(store.schema, store.secondary, key,
                                     new_values, old_values)
                else:  # delete
                    secondary_add(store.schema, store.secondary, key,
                                  record[4])

    def checkpoint(self) -> None:
        """The Log engine's durable-point equivalent of a checkpoint:
        flush every MemTable to an SSTable (which truncates the WAL).
        Recovery latency afterwards depends only on transactions since
        this flush (Section 5.4)."""
        self.flush_commits()
        with self.tracer.span("checkpoint.memtable_flush",
                              tables=len(self._tables)):
            for name, store in self._tables.items():
                self._flush_memtable(name, store)

    # ------------------------------------------------------------------
    # Flush & compaction
    # ------------------------------------------------------------------

    def _flush_memtable(self, name: str, store: _LogTable) -> None:
        """Flush the MemTable to a level-0 SSTable and truncate the WAL
        (its contents are now durably in the run)."""
        if not len(store.memtable):
            return
        self.faults.fire("memtable.flush.before")
        with self.stats.category(Category.STORAGE), \
                self.tracer.span("memtable.flush", table=name,
                                 entries=len(store.memtable),
                                 bytes=store.memtable.size_bytes):
            run = self._write_run(name, store, 0,
                                  list(store.memtable.rows()))
            if not store.levels:
                store.levels.append([])
            store.levels[0].append(run)
            self.faults.fire("memtable.flush.after_write")
            store.memtable.destroy()
            store.memtable = self._make_memtable()
        with self.stats.category(Category.RECOVERY):
            if all(not len(t.memtable) for t in self._tables.values()):
                self._wal.truncate()
        self._maybe_compact(name, store)

    def _maybe_compact(self, name: str, store: _LogTable) -> None:
        """Leveled compaction: when a level holds too many runs, merge
        them into a single run one level down."""
        level = 0
        while level < len(store.levels):
            runs = store.levels[level]
            if len(runs) <= self.config.lsm_max_runs_per_level:
                level += 1
                continue
            with self.stats.category(Category.STORAGE), \
                    self.tracer.span("compaction.merge", table=name,
                                     level=level, runs=len(runs)):
                self.faults.fire("compaction.merge.before")
                merged = self._write_run(
                    name, store, level + 1,
                    self._merged_rows(store, level, runs))
                if level + 1 >= len(store.levels):
                    store.levels.append([])
                store.levels[level + 1].append(merged)
                for run in runs:
                    run.destroy()
                store.levels[level] = []
                self.stats.bump("lsm.compactions")
                logger.info("%s: compacted %d runs of %s level %d",
                            self.name, len(runs), name, level)
            level += 1

    def _merged_rows(self, store: _LogTable, level: int,
                     runs: List[Run]) -> Rows:
        """Merge entries per key across runs (oldest run first) and
        drop superseded history."""
        merged_chains: Dict[Any, List] = {}
        for run in runs:  # oldest first
            for key, chain in run.rows():
                merged_chains.setdefault(key, []).append(chain)
        is_bottom = not any(store.levels[level + 1:])
        rows = []
        for key in sorted(merged_chains):
            chain = merge_entry_chains(merged_chains[key])
            if is_bottom and chain and chain[-1][0] == ENTRY_TOMBSTONE:
                continue  # purged tuples drop out at the bottom level
            if chain:
                rows.append((key, chain))
        return rows

    def _write_run(self, name: str, store: _LogTable, level: int,
                   rows: Rows) -> Run:
        """Materialize ``rows`` as this engine's kind of run: an
        SSTable file with a volatile index and Bloom filter."""
        return SSTable.write(
            self.filesystem,
            f"sstable/{name}/L{level}-{next(store.sstable_ids)}",
            rows, bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_hashes=self.config.bloom_hashes,
            index_factory=self._make_index,
            allocator=self.allocator, memory=self.memory)

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        """MemTable and all in-memory indexes are gone; SSTable files
        survive but need their indexes rebuilt."""
        for store in self._tables.values():
            store.memtable = self._make_memtable()
            store.secondary = {name: self._make_index()
                               for name in store.schema.secondary_indexes}

    def _do_recover(self) -> None:
        """Rebuild the MemTable from the WAL (committed transactions
        only), reopen SSTables, reconstruct secondary indexes."""
        with self.tracer.span("recovery.sstable_open"):
            for store in self._tables.values():
                for level in store.levels:
                    for run in level:
                        run.open()
        with self.tracer.span("recovery.wal_replay") as span:
            committed = self._wal.committed_txn_ids()
            replayed = 0
            for entry in self._wal.replay():
                if entry.op in (walmod.OP_COMMIT, walmod.OP_ABORT):
                    continue
                if entry.txn_id not in committed:
                    continue
                self._replay_entry(entry)
                replayed += 1
            if span:
                span.tag(entries=replayed,
                         committed=len(committed))
        self.faults.fire("recovery.wal_replayed")
        with self.tracer.span("recovery.index_rebuild"):
            self._rebuild_secondaries()

    def _replay_entry(self, entry: WALEntry) -> None:
        store = self._tables[self._table_name(entry.table_id)]
        if entry.op == walmod.OP_INSERT:
            store.memtable.add(entry.key, ENTRY_PUT, entry.after)
        elif entry.op == walmod.OP_UPDATE:
            store.memtable.add(entry.key, ENTRY_DELTA, entry.after)
        else:
            store.memtable.add(entry.key, ENTRY_TOMBSTONE, b"")

    def _rebuild_secondaries(self) -> None:
        for name, store in self._tables.items():
            if not store.schema.secondary_indexes:
                continue
            for key, values in self.scan(None, name):
                secondary_add(store.schema, store.secondary, key, values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def storage_breakdown(self) -> Dict[str, int]:
        breakdown = super().storage_breakdown()
        breakdown["table"] += self.filesystem.total_bytes("sstable/")
        breakdown["log"] = self._wal.size_bytes
        return breakdown

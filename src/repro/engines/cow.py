"""Copy-on-write updates engine (CoW, Section 3.2).

Shadow paging in the style of System R / LMDB: the engine maintains a
*current* directory (committed state) and a *dirty* directory (effects
of in-flight transactions) as two versions of an append-only
copy-on-write B+tree. Committing a batch of transactions writes the
newly created pages to the database file, fsyncs, and then atomically
updates the **master record** (at a fixed offset in the file) to point
at the new root. No write-ahead log and no recovery procedure: after a
crash the master record is guaranteed to point at a consistent current
directory.

Tuples are stored in the HDD/SSD-optimized format with all fields
inlined (Section 3.2) inside the leaves, so updates copy the entire
tuple even when only one field changes — the root of this engine's
write amplification. Secondary indexes map secondary keys to primary
keys and are versioned the same way.

Pages of nodes replaced by a committed epoch are recycled through a
free-page list (the two-version reuse LMDB performs), and the in-memory
node graph doubles as the internal page cache — it is volatile, so
after a restart table directories are demand-loaded from the file.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import EngineConfig
from ..core.schema import Schema
from ..core.tuple_codec import decode_inlined, encode_inlined
from ..core.transaction import Transaction
from ..errors import DuplicateKeyError, StorageEngineError, TupleNotFoundError
from ..fault.injector import register_fault_point
from ..index.cost import NVMIndexCostModel, PerNodeProbes
from ..index.cow_btree import CoWBTree, CoWNode
from ..nvm.platform import Platform
from ..sim.stats import Category
from .base import StorageEngine, register_engine

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: Size of the master record region at the start of the database file:
#: a format version plus one root-page slot per directory.
MASTER_SLOTS = 64
MASTER_SIZE = 8 * (1 + MASTER_SLOTS)
_NO_ROOT = 0xFFFFFFFFFFFFFFFF

register_fault_point(
    "cow.persist.before_fsync",
    "epoch's new pages written to the file, not yet fsync'd",
    engines=("cow",))
register_fault_point(
    "cow.master_flip.before",
    "new pages durable, master record not yet updated",
    engines=("cow", "nvm-cow"))
register_fault_point(
    "cow.master_flip.after_write",
    "master record written in place, not yet fsync'd",
    engines=("cow",))
register_fault_point(
    "cow.master_flip.after",
    "master record durable, superseded pages not yet recycled",
    engines=("cow", "nvm-cow"))


class _PageCache:
    """LRU cache of directory pages held in memory (Section 3.2: "the
    engine maintains an internal page cache to keep the hot pages in
    memory"). A miss charges a filesystem page read."""

    def __init__(self, capacity_pages: int, on_miss) -> None:
        self.capacity = max(capacity_pages, 1)
        self._on_miss = on_miss
        self._pages: Dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def access(self, node_id: int, is_new: bool = False) -> None:
        if node_id in self._pages:
            self.hits += 1
            del self._pages[node_id]
        else:
            if not is_new:
                self.misses += 1
                self._on_miss()
            while len(self._pages) >= self.capacity:
                del self._pages[next(iter(self._pages))]
        self._pages[node_id] = None

    def invalidate(self, node_id: int) -> None:
        self._pages.pop(node_id, None)

    def clear(self) -> None:
        self._pages.clear()


class _PagedCostModel(PerNodeProbes):
    """Wraps the in-memory cost model with page-cache accounting."""

    def __init__(self, inner: NVMIndexCostModel,
                 page_cache: _PageCache) -> None:
        self._inner = inner
        self._cache = page_cache

    def node_allocated(self, node_id: int, size: int) -> None:
        self._inner.node_allocated(node_id, size)
        self._cache.access(node_id, is_new=True)

    def node_freed(self, node_id: int) -> None:
        self._cache.invalidate(node_id)
        self._inner.node_freed(node_id)

    def node_probed(self, node_id: int, size: int) -> None:
        self._cache.access(node_id)
        self._inner.node_probed(node_id, size)

    def node_read(self, node_id: int, size: int) -> None:
        self._cache.access(node_id)
        self._inner.node_read(node_id, size)

    def node_written(self, node_id: int, size: int) -> None:
        self._cache.access(node_id, is_new=True)
        self._inner.node_written(node_id, size)

    def sync_node(self, node_id: int, offset: int, size: int) -> None:
        self._inner.sync_node(node_id, offset, size)


class _Directory:
    """One versioned directory (primary table or secondary index)."""

    __slots__ = ("name", "tree", "slot", "page_of", "loaded")

    def __init__(self, name: str, tree: CoWBTree, slot: int) -> None:
        self.name = name
        self.tree = tree
        self.slot = slot            # master-record slot index
        self.page_of: Dict[int, int] = {}   # node_id -> page number
        self.loaded = True


@register_engine
class CoWEngine(StorageEngine):
    """Copy-on-write updates without logging."""

    name = "cow"
    is_nvm_aware = False
    instant_recovery = True

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._dirs: Dict[str, _Directory] = {}
        # Here ``_tables`` maps a table to its directory names.
        self._file = platform.filesystem.open("cow/database",
                                              create=True)
        if self._file.size < MASTER_SIZE:
            empty = _U64.pack(1) + _U64.pack(_NO_ROOT) * MASTER_SLOTS
            platform.filesystem.write(self._file, 0, empty)
            platform.filesystem.fsync(self._file)
        self._free_pages: List[int] = []
        self._next_page = 0
        self._next_slot = 0
        self.page_size = config.cow_btree_node_size

    # ------------------------------------------------------------------
    # Directory construction
    # ------------------------------------------------------------------

    def _make_tree(self, schema: Optional[Schema]) -> CoWBTree:
        inner = NVMIndexCostModel(self.allocator, self.memory,
                                  tag="other", persistent=False)
        # A page-cache miss reads the page through the memory-mapped
        # file (LMDB maps the database, so reads bypass the syscall
        # path): a prefetch-friendly bulk NVM read of one page.
        page_cache = _PageCache(
            max(1, self.config.page_cache_bytes // self.page_size),
            on_miss=lambda: self.platform.device.charge_bulk_load(
                self.page_size, prefetch_discount=0.1))
        cost = _PagedCostModel(inner, page_cache)
        leaf_fanout = None
        if schema is not None:
            leaf_fanout = max(2, self.page_size // schema.inlined_size)
        return CoWBTree(node_size=self.page_size, cost_model=cost,
                        leaf_fanout=leaf_fanout)

    def _create_table_storage(self, schema: Schema) -> None:
        names = []
        directory = self._new_directory(f"{schema.table}", schema)
        names.append(directory.name)
        for index_name in schema.secondary_indexes:
            secondary = self._new_directory(
                f"{schema.table}.{index_name}", None)
            names.append(secondary.name)
        self._tables[schema.table] = names

    def _new_directory(self, name: str,
                       schema: Optional[Schema]) -> _Directory:
        if self._next_slot >= MASTER_SLOTS:
            raise StorageEngineError("master record is full")
        directory = _Directory(name, self._make_tree(schema),
                               self._next_slot)
        self._next_slot += 1
        self._dirs[name] = directory
        return directory

    def _primary_dir(self, table: str) -> _Directory:
        self._schema(table)
        self._ensure_loaded(table)
        return self._dirs[table]

    def _secondary_dir(self, table: str, index_name: str) -> _Directory:
        self._ensure_loaded(table)
        return self._dirs[f"{table}.{index_name}"]

    # ------------------------------------------------------------------
    # Leaf value representation (overridden by NVM-CoW)
    # ------------------------------------------------------------------

    def _encode_tuple(self, txn: Transaction, schema: Schema,
                      values: Dict[str, Any]) -> Any:
        """Leaf value for a tuple: the fully-inlined byte image."""
        return encode_inlined(schema, values)

    def _decode_tuple(self, schema: Schema, stored: Any) -> Dict[str, Any]:
        return decode_inlined(schema, stored)

    def _release_tuple_value(self, stored: Any) -> None:
        """Reclaim out-of-tree storage for a replaced/deleted value
        (nothing to do when tuples are inlined in the leaves)."""

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str,
               values: Dict[str, Any]) -> None:
        txn.require_active()
        schema = self._schema(table)
        schema.validate(values)
        directory = self._primary_dir(table)
        key = schema.key_of(values)
        with self.stats.category(Category.STORAGE):
            directory.tree.begin_batch()
            if directory.tree.get(key) is not None:
                raise DuplicateKeyError(f"{table}: key {key!r} exists")
            stored = self._encode_tuple(txn, schema, values)
            directory.tree.put(key, stored)
        with self.stats.category(Category.INDEX):
            self._secondary_add(table, schema, key, values)
        txn.engine_state.setdefault("undo", []).append(
            ("insert", table, key, values))
        txn.engine_state.setdefault("created_values", []).append(stored)

    def update(self, txn: Transaction, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        txn.require_active()
        schema = self._schema(table)
        schema.validate_partial(changes)
        directory = self._primary_dir(table)
        with self.stats.category(Category.STORAGE):
            directory.tree.begin_batch()
            stored = directory.tree.get(key)
            if stored is None:
                raise TupleNotFoundError(
                    f"{table}: no tuple with key {key!r}")
            old_values = self._decode_tuple(schema, stored)
            # Copy-on-write: copy the whole tuple, modify the copy.
            new_values = dict(old_values)
            new_values.update(changes)
            new_stored = self._encode_tuple(txn, schema, new_values)
            directory.tree.put(key, new_stored)
        with self.stats.category(Category.INDEX):
            self._secondary_update(table, schema, key, old_values,
                                   new_values)
        txn.engine_state.setdefault("undo", []).append(
            ("update", table, key, old_values,
             {name: new_values[name] for name in changes}, stored))
        txn.engine_state.setdefault("superseded", []).append(stored)
        txn.engine_state.setdefault("created_values", []).append(new_stored)

    def delete(self, txn: Transaction, table: str, key: Any) -> None:
        txn.require_active()
        schema = self._schema(table)
        directory = self._primary_dir(table)
        with self.stats.category(Category.STORAGE):
            directory.tree.begin_batch()
            stored = directory.tree.get(key)
            if stored is None:
                raise TupleNotFoundError(
                    f"{table}: no tuple with key {key!r}")
            old_values = self._decode_tuple(schema, stored)
            directory.tree.delete(key)
        with self.stats.category(Category.INDEX):
            self._secondary_remove(table, schema, key, old_values)
        txn.engine_state.setdefault("undo", []).append(
            ("delete", table, key, old_values, stored))
        txn.engine_state.setdefault("superseded", []).append(stored)

    def select(self, txn: Transaction, table: str,
               key: Any) -> Optional[Dict[str, Any]]:
        schema = self._schema(table)
        directory = self._primary_dir(table)
        with self.stats.category(Category.STORAGE):
            stored = directory.tree.get(key)
        if stored is None:
            return None
        return self._decode_tuple(schema, stored)

    def select_secondary(self, txn: Transaction, table: str,
                         index_name: str, key: Any) -> List[Any]:
        directory = self._secondary_dir(table, index_name)
        with self.stats.category(Category.INDEX):
            members = directory.tree.get(key)
        return sorted(members) if members else []

    def scan(self, txn: Transaction, table: str, lo: Any = None,
             hi: Any = None) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        schema = self._schema(table)
        directory = self._primary_dir(table)
        for key, stored in list(directory.tree.items(lo=lo, hi=hi)):
            yield key, self._decode_tuple(schema, stored)

    # ------------------------------------------------------------------
    # Secondary index maintenance (versioned: values are frozensets)
    # ------------------------------------------------------------------

    def _secondary_add(self, table: str, schema: Schema, key: Any,
                       values: Dict[str, Any]) -> None:
        for index_name in schema.secondary_indexes:
            directory = self._secondary_dir(table, index_name)
            directory.tree.begin_batch()
            seckey = schema.index_key_of(index_name, values)
            members = directory.tree.get(seckey) or frozenset()
            directory.tree.put(seckey, members | {key})

    def _secondary_remove(self, table: str, schema: Schema, key: Any,
                          values: Dict[str, Any]) -> None:
        for index_name in schema.secondary_indexes:
            directory = self._secondary_dir(table, index_name)
            directory.tree.begin_batch()
            seckey = schema.index_key_of(index_name, values)
            members = directory.tree.get(seckey)
            if members is None:
                continue
            members = members - {key}
            if members:
                directory.tree.put(seckey, members)
            else:
                directory.tree.delete(seckey)

    def _secondary_update(self, table: str, schema: Schema, key: Any,
                          old_values: Dict[str, Any],
                          new_values: Dict[str, Any]) -> None:
        for index_name, columns in schema.secondary_indexes.items():
            old_key = schema.index_key_of(index_name, old_values)
            new_key = schema.index_key_of(index_name, new_values)
            if old_key == new_key:
                continue
            directory = self._secondary_dir(table, index_name)
            directory.tree.begin_batch()
            members = directory.tree.get(old_key)
            if members is not None:
                members = members - {key}
                if members:
                    directory.tree.put(old_key, members)
                else:
                    directory.tree.delete(old_key)
            members = directory.tree.get(new_key) or frozenset()
            directory.tree.put(new_key, members | {key})

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _do_commit(self, txn: Transaction) -> None:
        """Logical commit only — the dirty directory flip happens at
        the group-commit boundary."""

    def _do_abort(self, txn: Transaction) -> None:
        """Un-apply the transaction's changes from the dirty version."""
        for record in reversed(txn.engine_state.get("undo", [])):
            kind, table = record[0], record[1]
            schema = self._schema(table)
            directory = self._primary_dir(table)
            directory.tree.begin_batch()
            if kind == "insert":
                __, __t, key, values = record
                directory.tree.delete(key)
                self._secondary_remove(table, schema, key, values)
            elif kind == "update":
                __, __t, key, old_values, changes, old_stored = record
                current = self._decode_tuple(
                    schema, directory.tree.get(key))
                directory.tree.put(key, old_stored)
                self._secondary_update(table, schema, key, current,
                                       old_values)
            else:  # delete
                __, __t, key, old_values, old_stored = record
                directory.tree.put(key, old_stored)
                self._secondary_add(table, schema, key, old_values)
        # The new tuple copies the txn created are garbage now; the
        # superseded values remain live again.
        txn.engine_state.pop("superseded", None)
        for stored in txn.engine_state.pop("created_values", []):
            self._release_tuple_value(stored)

    def _do_flush_commits(self) -> None:
        """Persist created pages and flip the master record — the group
        commit mechanism of Section 3.2."""
        dirty = [directory for directory in self._dirs.values()
                 if directory.tree.in_batch]
        if not dirty:
            return
        reclaimable: List[int] = []
        with self.tracer.span("cow.page_persist",
                              directories=len(dirty)):
            for directory in dirty:
                directory.tree.commit(
                    persist=lambda created, root, d=directory:
                    self._persist_nodes(d, created, root, reclaimable))
        self.faults.fire("cow.master_flip.before")
        with self.tracer.span("cow.master_flip"):
            self._write_master(dirty)
        self.faults.fire("cow.master_flip.after")
        # Only after the master record is durable are the previous
        # version's pages truly dead and safe to recycle.
        self._free_pages.extend(reclaimable)
        self._reclaim_superseded()

    def _reclaim_superseded(self) -> None:
        for txn in self._pending_durable:
            for stored in txn.engine_state.pop("superseded", []):
                self._release_tuple_value(stored)

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------

    def _persist_nodes(self, directory: _Directory,
                       created: List[CoWNode], root: CoWNode,
                       reclaimable: List[int]) -> None:
        """Write this epoch's new nodes to the file, children first so
        that every child already has a page number. Pages of replaced
        nodes (LMDB's two-version reuse) are collected into
        ``reclaimable`` — the caller recycles them only after the
        master record flip is durable."""
        created_ids = {node.node_id for node in created}
        ordered = self._postorder(root, created_ids)
        for node in ordered:
            payload = self._serialize_node(directory, node)
            record = _U32.pack(len(payload)) + payload
            count = -(-len(record) // self.page_size)
            page = self._allocate_pages(count)
            directory.page_of[node.node_id] = (page, count)
            self.filesystem.write(
                self._file, MASTER_SIZE + page * self.page_size,
                record.ljust(count * self.page_size, b"\x00"))
        self.faults.fire("cow.persist.before_fsync")
        self.filesystem.fsync(self._file)
        for node in directory.tree.replaced_this_epoch():
            location = directory.page_of.pop(node.node_id, None)
            if location is not None:
                page, count = location
                reclaimable.extend(range(page, page + count))

    def _postorder(self, root: CoWNode, created_ids: set) -> List[CoWNode]:
        ordered: List[CoWNode] = []
        seen = set()

        def visit(node: CoWNode) -> None:
            if node.node_id in seen or node.node_id not in created_ids:
                return
            seen.add(node.node_id)
            if not node.is_leaf:
                for child in node.children:
                    visit(child)
            ordered.append(node)

        visit(root)
        return ordered

    def _serialize_node(self, directory: _Directory,
                        node: CoWNode) -> bytes:
        if node.is_leaf:
            return pickle.dumps(("L", node.keys, node.values),
                                protocol=4)
        child_pages = [directory.page_of[child.node_id][0]
                       for child in node.children]
        return pickle.dumps(("B", node.keys, child_pages), protocol=4)

    def _allocate_pages(self, count: int) -> int:
        """Allocate ``count`` pages; single pages come from the free
        list, multi-page (overflow) nodes take fresh consecutive
        pages at the end of the file."""
        if count == 1 and self._free_pages:
            return self._free_pages.pop()
        page = self._next_page
        self._next_page += count
        return page

    def _write_master(self, dirty: List[_Directory]) -> None:
        """Atomically update the master record to point at the new
        roots (one durable write after the page fsync)."""
        for directory in dirty:
            location = directory.page_of.get(
                directory.tree.current_root.node_id)
            if location is None:
                # Root unchanged this epoch (e.g. abort-only batch).
                continue
            self.filesystem.write(
                self._file, 8 * (1 + directory.slot),
                _U64.pack(location[0]))
        self.faults.fire("cow.master_flip.after_write")
        self.filesystem.fsync(self._file)

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        """The page cache (in-memory node graphs) is volatile."""
        for directory in self._dirs.values():
            directory.loaded = False

    def _do_recover(self) -> None:
        """No recovery: read the master record; directories are
        demand-loaded on first access (the DBMS is online immediately,
        Section 3.2)."""
        with self.tracer.span("recovery.master_read"):
            self.filesystem.read(self._file, 0, MASTER_SIZE)

    def _ensure_loaded(self, table: str) -> None:
        for name in self._tables.get(table, [table]):
            directory = self._dirs[name]
            if not directory.loaded:
                self._load_directory(directory)

    def _load_directory(self, directory: _Directory) -> None:
        """Demand-load a directory's reachable pages from the file."""
        with self.stats.category(Category.STORAGE):
            schema = self.schemas.get(directory.name)
            directory.tree = self._make_tree(schema)
            directory.page_of.clear()
            raw = self.filesystem.read(
                self._file, 8 * (1 + directory.slot), 8)
            root_page = _U64.unpack(raw)[0]
            if root_page == _NO_ROOT:
                directory.loaded = True
                return
            root, size, used_pages = self._load_page_graph(directory,
                                                           root_page)
            directory.tree.install_recovered_root(root, size)
            directory.loaded = True
            self._rebuild_free_pages()

    def _load_page_graph(self, directory: _Directory,
                         root_page: int) -> Tuple[CoWNode, int, set]:
        used = set()
        size = 0

        def load(page: int) -> CoWNode:
            nonlocal size
            offset = MASTER_SIZE + page * self.page_size
            first = self.filesystem.read(self._file, offset,
                                         self.page_size)
            length = _U32.unpack_from(first, 0)[0]
            record = first[4:4 + length]
            if 4 + length > self.page_size:
                record += self.filesystem.read(
                    self._file, offset + self.page_size,
                    4 + length - self.page_size)
            count = -(-(4 + length) // self.page_size)
            used.update(range(page, page + count))
            kind, keys, rest = pickle.loads(record)
            node = directory.tree.materialize_node(kind == "L")
            node.keys = keys
            if kind == "L":
                node.values = rest
                size += len(keys)
            else:
                node.children = [load(child_page) for child_page in rest]
            directory.page_of[node.node_id] = (page, count)
            return node

        root = load(root_page)
        return root, size, used

    def _rebuild_free_pages(self) -> None:
        """After (re)loads, recompute which pages are unreferenced."""
        live = {page
                for directory in self._dirs.values()
                for start, count in directory.page_of.values()
                for page in range(start, start + count)}
        if self._next_page < (self._file.size - MASTER_SIZE) \
                // self.page_size:
            self._next_page = (self._file.size - MASTER_SIZE) \
                // self.page_size
        self._free_pages = [page for page in range(self._next_page)
                            if page not in live]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def storage_breakdown(self) -> Dict[str, int]:
        breakdown = super().storage_breakdown()  # "other": page cache
        breakdown["table"] = self._file.size
        return breakdown

"""NVM-aware copy-on-write updates engine (NVM-CoW, Section 4.2).

Three optimizations over the traditional CoW engine:

1. The copy-on-write B+tree is **non-volatile**, maintained directly
   through the allocator interface — no filesystem pages, no kernel
   crossings, no page cache duplication.
2. Tuples are persisted in slotted NVM pools and the dirty directory
   records only **non-volatile tuple pointers**, so the engine "avoids
   the transformation and copying costs incurred by the CoW engine".
3. The **master record** is an 8-byte NVM location updated with a
   single atomic durable write after the batch's new tree nodes and
   tuple copies have been synced, with memory barriers ordering the
   writes so only committed transactions are visible after restart.

Like the CoW engine there is no recovery process: after a crash the
master record points at a consistent current directory; the dirty
directory's storage is reclaimed (the paper does this asynchronously,
the simulator does it in the crash hook).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..config import EngineConfig
from ..core.schema import Schema
from ..core.tuple_codec import STATE_PERSISTED, encode_slotted
from ..core.transaction import Transaction
from ..fault.injector import register_fault_point
from ..index.cost import NVMIndexCostModel
from ..index.cow_btree import CoWBTree, CoWNode
from ..nvm.platform import Platform
from .base import StorageEngine, register_engine
from .cow import MASTER_SLOTS, CoWEngine, _Directory
from .slotted import FixedSlotPool, VarlenPool, read_slotted_tuple

register_fault_point(
    "nvm_cow.tuple_copy.after",
    "tuple copy synced into the NVM pools, pointer not yet recorded",
    engines=("nvm-cow",))
register_fault_point(
    "nvm_cow.node_sync.after",
    "epoch's new tree nodes synced, master record not yet flipped",
    engines=("nvm-cow",))
register_fault_point(
    "nvm_cow.master_flip.before_slot",
    "immediately before a directory's atomic durable master store",
    engines=("nvm-cow",))


class _TuplePools:
    """Per-table persistent slot pools for the NVM-CoW engine."""

    __slots__ = ("schema", "fixed", "varlen", "varlen_of")

    def __init__(self, schema: Schema, engine: "NVMCoWEngine") -> None:
        self.schema = schema
        self.fixed = FixedSlotPool(schema, engine.allocator,
                                   engine.memory,
                                   persistent=engine.persistent)
        self.varlen = VarlenPool(engine.allocator, engine.memory,
                                 persistent=engine.persistent)
        self.varlen_of: Dict[int, List[int]] = {}


@register_engine
class NVMCoWEngine(CoWEngine):
    """Copy-on-write updates over a non-volatile B+tree."""

    name = "nvm-cow"
    is_nvm_aware = True
    instant_recovery = True
    persistent = True
    #: No database file: the allocator's tags are the whole footprint.
    storage_breakdown = StorageEngine.storage_breakdown

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        super().__init__(platform, config)
        self._pools: Dict[str, _TuplePools] = {}
        # Master record: one atomic 8-byte slot per directory on NVM.
        self._master = self.allocator.malloc(8 * MASTER_SLOTS, tag="other")
        self.allocator.persist(self._master)
        #: directory name -> (root node, size) the durable master record
        #: points at — the crash hook's source of truth when a crash
        #: lands between the in-memory flip and the master store.
        self._durable_roots: Dict[str, Tuple[CoWNode, int]] = {}
        platform.register_crash_hook(self._crash_hook)

    # ------------------------------------------------------------------
    # Non-volatile directories + tuple pools
    # ------------------------------------------------------------------

    @property
    def _node_size(self) -> int:
        return self.config.nvm_cow_node_size \
            or self.config.cow_btree_node_size

    def _make_tree(self, schema: Optional[Schema]) -> CoWBTree:
        # Leaf entries are (key, tuple pointer) pairs, so leaves have
        # the same fanout as branches — no inlined tuple data.
        cost = NVMIndexCostModel(self.allocator, self.memory, tag="index",
                                 persistent=True)
        tree = CoWBTree(node_size=self._node_size, cost_model=cost)
        tree.cost_model = cost  # engine needs it to sync created nodes
        return tree

    def _create_table_storage(self, schema: Schema) -> None:
        super()._create_table_storage(schema)
        self._pools[schema.table] = _TuplePools(schema, self)
        for name, directory in self._dirs.items():
            self._durable_roots.setdefault(
                name, (directory.tree.current_root,
                       directory.tree.size(dirty=False)))

    def _encode_tuple(self, txn: Transaction, schema: Schema,
                      values: Dict[str, Any]) -> Any:
        """Persist the tuple copy in the slot pools and return its
        non-volatile pointer (Table 2: 'sync tuple with NVM. Store
        tuple pointer in dirty dir.')."""
        pools = self._pools[schema.table]
        addr = pools.fixed.allocate_slot()
        # Born persisted: only a durable directory makes it reachable.
        slot, pointers = encode_slotted(schema, values,
                                        pools.varlen.write,
                                        state=STATE_PERSISTED)
        pools.fixed.write_slot(addr, slot)
        pools.varlen_of[addr] = pointers
        # One batched sync: the slot and its varlen fields, each line
        # flushed once under a single fence.
        pools.varlen.sync_many(
            pointers,
            extra_ranges=((addr, pools.fixed.slot_size),))
        pools.fixed.mark_persisted(addr)
        self.faults.fire("nvm_cow.tuple_copy.after")
        return addr

    def _decode_tuple(self, schema: Schema, stored: Any) -> Dict[str, Any]:
        pools = self._pools[schema.table]
        return read_slotted_tuple(schema, pools.fixed, pools.varlen,
                                  stored)

    def _release_tuple_value(self, stored: Any) -> None:
        """Free a superseded/aborted tuple copy and its varlen slots."""
        for pools in self._pools.values():
            # The address belongs to exactly one table's pool.
            if pools.fixed.owns(stored):
                for pointer in pools.varlen_of.pop(stored, []):
                    pools.varlen.free(pointer)
                pools.fixed.free_slot(stored)
                return

    # ------------------------------------------------------------------
    # Commit path: sync created nodes, flip master record atomically
    # ------------------------------------------------------------------

    def _persist_nodes(self, directory: _Directory,
                       created: List[CoWNode], root: CoWNode,
                       reclaimable: List[int]) -> None:
        """Durably sync this epoch's new nodes via the allocator
        interface (no filesystem pages, no copies)."""
        cost = directory.tree.cost_model
        for node in created:
            cost.sync_node(node.node_id, 0, self._node_size)
        self.faults.fire("nvm_cow.node_sync.after")
        directory.page_of[root.node_id] = (root.node_id, 1)  # identity

    def _write_master(self, dirty: List[_Directory]) -> None:
        """One atomic durable 8-byte write per directory, ordered after
        the node syncs by the sync primitive's fence."""
        for directory in dirty:
            self.faults.fire("nvm_cow.master_flip.before_slot")
            root = directory.tree.current_root
            root_alloc = directory.tree.cost_model.allocation_for(
                root.node_id)
            self.memory.atomic_durable_store_u64(
                self._master.addr + 8 * directory.slot,
                root.node_id,
                publishes=((root_alloc.addr, root_alloc.size),)
                if root_alloc is not None else None)
            # The store above is durable the moment it returns; mirror
            # it so the crash hook knows which root survived.
            self._durable_roots[directory.name] = (
                directory.tree.current_root,
                directory.tree.size(dirty=False))

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def _crash_hook(self) -> None:
        """Platform crash: discard the dirty directory (its storage is
        reclaimed, Section 4.2) and the tuple copies created by
        transactions that never reached a durable flip.

        A crash can also land *inside* the group-commit flush — after
        the in-memory tree flip but before the atomic master store. The
        durable master record is the source of truth, so any directory
        whose in-memory root diverges from :attr:`_durable_roots` is
        rolled back to the durable root (its node objects are still
        alive: superseded nodes are only recycled after the flip)."""
        in_batch = any(directory.tree.in_batch
                       for directory in self._dirs.values())
        for directory in self._dirs.values():
            directory.tree.abort()
        rolled_back = False
        for name, directory in self._dirs.items():
            durable = self._durable_roots.get(name)
            if durable is None:
                continue
            root, size = durable
            if directory.tree.current_root is not root:
                directory.tree.install_recovered_root(root, size)
                rolled_back = True
        doomed: List[Any] = []
        for txn in self._active_txns.values():
            doomed.extend(txn.engine_state.pop("created_values", []))
            txn.engine_state.pop("superseded", None)
            txn.engine_state.pop("undo", None)
        for txn in self._pending_durable:
            created = txn.engine_state.pop("created_values", [])
            txn.engine_state.pop("superseded", None)
            txn.engine_state.pop("undo", None)
            # Pending commits whose flip became durable are live — their
            # tuple copies are referenced by the surviving tree. Doom
            # them only when no flip covered them (still in the dirty
            # version, or the flip was rolled back above).
            if rolled_back or in_batch:
                doomed.extend(created)
        for stored in doomed:
            self._release_tuple_value(stored)
        self._active_txns.clear()

    def _on_crash(self) -> None:
        """The non-volatile tree and pools survive; directories never
        need reloading."""
        for directory in self._dirs.values():
            directory.loaded = True

    def _do_recover(self) -> None:
        """No recovery: a single master-record read and the engine can
        start handling transactions (Section 4.2)."""
        with self.tracer.span("recovery.master_read"):
            self.memory.load(self._master.addr, 8 * MASTER_SLOTS)

    def _ensure_loaded(self, table: str) -> None:
        """Non-volatile directories are always live."""

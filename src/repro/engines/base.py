"""The storage engine interface, skeleton and registry.

Every engine implements the primitive database operations of Table 2
(insert / update / delete / select). The lifecycle around them is
written once: :class:`StorageEngine` owns ``commit`` / ``abort`` /
``flush_commits`` / ``on_crash`` / ``recover`` and the footprint
report, and an engine supplies only the ``_do_*`` / ``_on_crash``
hooks that differ. The testbed coordinator drives engines only through
this interface, which is what lets the paper compare six architectures
"on a single platform".
"""

from __future__ import annotations

import abc
import itertools
import logging
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from ..config import EngineConfig
from ..core.schema import Schema
from ..core.transaction import Transaction, TransactionStatus
from ..errors import ConfigError, StorageEngineError
from ..index.cost import NVMIndexCostModel
from ..index.nv_btree import NVBTree
from ..index.stx_btree import STXBTree
from ..nvm.platform import Platform
from ..sim.stats import Category

logger = logging.getLogger("repro.engines")

#: registry: engine name -> class
_REGISTRY: Dict[str, Type["StorageEngine"]] = {}


def register_engine(cls: Type["StorageEngine"]) -> Type["StorageEngine"]:
    """Class decorator adding an engine to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def create_engine(name: str, platform: Platform,
                  config: Optional[EngineConfig] = None) -> "StorageEngine":
    """Instantiate a registered engine by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of "
            f"{sorted(_REGISTRY)}") from None
    return cls(platform, config or EngineConfig())


def engine_names() -> List[str]:
    """All registered engine names, traditional engines first."""
    order = ["inp", "cow", "log", "nvm-inp", "nvm-cow", "nvm-log"]
    return [name for name in order if name in _REGISTRY] + sorted(
        name for name in _REGISTRY if name not in order)


class ENGINE_NAMES:
    """Canonical engine name constants."""

    INP = "inp"
    COW = "cow"
    LOG = "log"
    NVM_INP = "nvm-inp"
    NVM_COW = "nvm-cow"
    NVM_LOG = "nvm-log"

    ALL = (INP, COW, LOG, NVM_INP, NVM_COW, NVM_LOG)
    TRADITIONAL = (INP, COW, LOG)
    NVM_AWARE = (NVM_INP, NVM_COW, NVM_LOG)

    #: traditional engine -> its NVM-aware counterpart
    COUNTERPART = {INP: NVM_INP, COW: NVM_COW, LOG: NVM_LOG}


class StorageEngine(abc.ABC):
    """Abstract storage engine over an emulated platform."""

    name: str = "abstract"
    is_nvm_aware: bool = False
    #: True if the engine needs no recovery procedure at all (CoW pair).
    instant_recovery: bool = False
    #: True if allocator memory (pools, MemTables, indexes) is the
    #: engine's durable state, not a volatile heap rebuilt after a crash.
    persistent: bool = False

    def __init__(self, platform: Platform, config: EngineConfig) -> None:
        self.platform = platform
        self.config = config
        self.memory = platform.memory
        self.allocator = platform.allocator
        self.filesystem = platform.filesystem
        self.stats = platform.stats
        self.clock = platform.clock
        # The platform's tracer is activated/deactivated in place, so
        # caching the reference is safe and keeps hot paths cheap.
        self.tracer = platform.tracer
        # Fault injector — same in-place arm/disarm contract.
        self.faults = platform.faults
        self.schemas: Dict[str, Schema] = {}
        #: table name -> the engine's per-table storage state.
        self._tables: Dict[str, Any] = {}
        self._txn_ids = itertools.count(1)
        self._timestamps = itertools.count(1)
        self._commits_since_flush = 0
        #: Modifying commits between checkpoints; initialized from the
        #: config but adjustable at runtime (e.g. after bulk loading).
        self.checkpoint_interval_txns = config.checkpoint_interval_txns
        self._pending_durable: List[Transaction] = []
        self._active_txns: Dict[int, Transaction] = {}
        self.committed_txns = 0
        self.aborted_txns = 0

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def create_table(self, schema: Schema) -> None:
        """Register ``schema`` and build its storage and indexes."""
        if schema.table in self.schemas:
            raise StorageEngineError(f"table {schema.table} exists")
        self.schemas[schema.table] = schema
        self._create_table_storage(schema)

    @abc.abstractmethod
    def _create_table_storage(self, schema: Schema) -> None:
        """Engine-specific storage + index creation."""

    def _schema(self, table: str) -> Schema:
        try:
            return self.schemas[table]
        except KeyError:
            raise StorageEngineError(f"no such table {table!r}") from None

    def _table(self, name: str) -> Any:
        self._schema(name)
        return self._tables[name]

    def _table_id(self, name: str) -> int:
        return sorted(self.schemas).index(name)

    def _table_name(self, table_id: int) -> str:
        return sorted(self.schemas)[table_id]

    def _make_index(self) -> STXBTree:
        """A B+tree charged as index NVM traffic, non-volatile iff the
        engine is :attr:`persistent`. ``tree.cost_model`` lets an owner
        (an SSTable) release the tree's node allocations."""
        cost = NVMIndexCostModel(self.allocator, self.memory, tag="index",
                                 persistent=self.persistent)
        tree_class = NVBTree if self.persistent else STXBTree
        tree = tree_class(node_size=self.config.btree_node_size,
                          cost_model=cost)
        tree.cost_model = cost
        return tree

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction (timestamp-ordered serial execution)."""
        txn = Transaction(next(self._txn_ids), next(self._timestamps))
        txn.begin_ns = self.clock.now_ns
        self._active_txns[txn.txn_id] = txn
        ordering = self.platform.ordering
        if ordering is not None:
            ordering.txn_begin(txn.txn_id)
        self._on_begin(txn)
        return txn

    def _on_begin(self, txn: Transaction) -> None:
        """Hook for engine-specific begin work."""

    def commit(self, txn: Transaction) -> None:
        """Logically commit; durability may await :meth:`flush_commits`
        (group commit). Engines that persist immediately mark the
        transaction durable here."""
        txn.require_active()
        with self.stats.category(Category.RECOVERY):
            self._do_commit(txn)
        txn.mark_committed()
        txn.commit_ns = self.clock.now_ns
        self._active_txns.pop(txn.txn_id, None)
        self.committed_txns += 1
        self._pending_durable.append(txn)
        ordering = self.platform.ordering
        if ordering is not None:
            # Immediately-durable engines flag the txn in _do_commit;
            # group-commit engines defer the ordering check to the next
            # durable point (flush_commits).
            ordering.txn_commit(
                txn.txn_id,
                durable=bool(txn.engine_state.get("durable")))
        self._commits_since_flush += 1
        if self._commits_since_flush >= self.config.group_commit_size:
            self.flush_commits()

    def abort(self, txn: Transaction) -> None:
        """Abort and roll back the transaction's effects."""
        txn.require_active()
        with self.stats.category(Category.RECOVERY):
            self._do_abort(txn)
        txn.mark_aborted()
        self._active_txns.pop(txn.txn_id, None)
        self.aborted_txns += 1
        ordering = self.platform.ordering
        if ordering is not None:
            ordering.txn_abort(txn.txn_id)

    def flush_commits(self) -> List[int]:
        """Reach a durable point: every logically committed transaction
        becomes durable (group commit boundary). Returns their ids."""
        with self.stats.category(Category.RECOVERY):
            self._do_flush_commits()
        durable_ids = []
        for txn in self._pending_durable:
            if txn.status is TransactionStatus.COMMITTED:
                txn.mark_durable()
            durable_ids.append(txn.txn_id)
        self._pending_durable.clear()
        self._commits_since_flush = 0
        ordering = self.platform.ordering
        if ordering is not None and durable_ids:
            ordering.durable_point(durable_ids)
        return durable_ids

    @abc.abstractmethod
    def _do_commit(self, txn: Transaction) -> None: ...

    @abc.abstractmethod
    def _do_abort(self, txn: Transaction) -> None: ...

    def _do_flush_commits(self) -> None:
        """Engine-specific durable point (fsync / master-record flip).
        Engines with immediate persistence leave this a no-op."""

    # ------------------------------------------------------------------
    # Primitive database operations (Table 2)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def insert(self, txn: Transaction, table: str,
               values: Dict[str, Any]) -> None: ...

    @abc.abstractmethod
    def update(self, txn: Transaction, table: str, key: Any,
               changes: Dict[str, Any]) -> None: ...

    @abc.abstractmethod
    def delete(self, txn: Transaction, table: str, key: Any) -> None: ...

    @abc.abstractmethod
    def select(self, txn: Transaction, table: str,
               key: Any) -> Optional[Dict[str, Any]]: ...

    @abc.abstractmethod
    def select_secondary(self, txn: Transaction, table: str,
                         index_name: str, key: Any) -> List[Any]:
        """Primary keys of tuples whose secondary key equals ``key``."""

    @abc.abstractmethod
    def scan(self, txn: Transaction, table: str, lo: Any = None,
             hi: Any = None) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        """(key, values) pairs with ``lo <= key < hi`` in key order."""

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Reset engine state that lived in volatile structures. Called
        by the testbed right after the platform crash, before
        :meth:`recover`."""
        self._on_crash()
        # Nothing is left waiting for a durable point.
        self._pending_durable.clear()
        self._commits_since_flush = 0

    def _on_crash(self) -> None:
        """Drop the engine's volatile state (default: it has none)."""

    def recover(self) -> float:
        """Restore the database to a consistent state after a restart;
        returns the simulated seconds the recovery took."""
        start_ns = self.clock.now_ns
        self.faults.fire("recovery.begin")
        with self.stats.category(Category.RECOVERY), \
                self.tracer.span("recovery.total", engine=self.name):
            self._do_recover()
        self.faults.fire("recovery.end")
        return self.clock.elapsed_since(start_ns) / 1e9

    @abc.abstractmethod
    def _do_recover(self) -> None:
        """The recovery procedure, run inside :meth:`recover`'s span."""

    def checkpoint(self) -> None:
        """Take a checkpoint (engines without checkpoints: no-op)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def storage_breakdown(self) -> Dict[str, int]:
        """Live NVM bytes by component: table / index / log /
        checkpoint / other (Fig. 14). The default reads the allocator's
        tags; engines that keep files add what those hold."""
        by_tag = self.allocator.bytes_by_tag()
        return {
            "table": by_tag.get("table", 0),
            "index": by_tag.get("index", 0),
            "log": by_tag.get("log", 0),
            "checkpoint": 0,
            "other": by_tag.get("other", 0),
        }

    def storage_footprint(self) -> int:
        return sum(self.storage_breakdown().values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tables={sorted(self.schemas)})"

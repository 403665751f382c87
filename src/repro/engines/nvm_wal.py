"""Non-volatile write-ahead log (Sections 4.1, 4.3).

The NVM-aware engines store the WAL "as a non-volatile linked list.
[The engine] appends new entries to the list using an atomic write."
Instead of copying tuple contents into the log, entries record
**non-volatile pointers** to the tuples (and, for updates, the
before-images of the changed inline fields needed for undo) — this is
the data-duplication saving that Table 3 models as ``p`` versus ``T``.

Because committed changes are persisted immediately, the log never
needs a redo pass: at commit the transaction's entries are truncated,
and recovery only walks the entries of transactions that were active
at the time of failure, undoing them. Recovery latency therefore
depends only on the number of in-flight transactions (Fig. 12).

That walk is :meth:`NVMWal.undo_uncommitted`: the engine says how to
undo one record; the log owns the order (transactions by id, records
newest first) and truncates a transaction once it is fully undone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..fault.injector import FaultInjector, register_fault_point
from ..nvm.allocator import Allocation, NVMAllocator
from ..nvm.memory import NVMMemory
from ..nvm.pointers import NULL_PTR, NVPtr

#: Accounted bytes of an entry's fixed header (txn id, op, table id,
#: previous-entry pointer, key digest).
ENTRY_HEADER_SIZE = 32

register_fault_point(
    "nvm_wal.append.after_persist",
    "entry synced to NVM, anchor pointer not yet linked",
    engines=("nvm-inp", "nvm-log", "nvm-mvcc"))
register_fault_point(
    "nvm_wal.append.after_link",
    "entry durably linked into the transaction's list",
    engines=("nvm-inp", "nvm-log", "nvm-mvcc"))
register_fault_point(
    "nvm_wal.truncate.before",
    "commit point: transaction's entries about to be truncated",
    engines=("nvm-inp", "nvm-log", "nvm-mvcc"))


@dataclass(frozen=True)
class NVMWalRecord:
    """Payload of one non-volatile WAL entry."""

    op: str                       # "insert" | "update" | "delete"
    table: str
    key: Any
    tuple_ptr: NVPtr = NULL_PTR   # non-volatile pointer to the tuple slot
    before_fields: bytes = b""    # changed inline fields' before-image
    before_varlen: Tuple[Tuple[str, NVPtr], ...] = ()
    after_varlen: Tuple[Tuple[str, NVPtr], ...] = ()
    extra: Any = None             # engine-specific undo payload

    @property
    def content_size(self) -> int:
        """Accounted NVM bytes of this record beyond the header."""
        return (8 if self.tuple_ptr != NULL_PTR else 0) \
            + len(self.before_fields) \
            + 8 * (len(self.before_varlen) + len(self.after_varlen))


@dataclass
class _TxnLog:
    head: NVPtr = NULL_PTR
    entries: List[Allocation] = field(default_factory=list)


class NVMWal:
    """Per-transaction non-volatile linked lists of WAL entries."""

    def __init__(self, allocator: NVMAllocator, memory: NVMMemory,
                 tag: str = "log",
                 faults: FaultInjector = None) -> None:
        self._allocator = allocator
        self._memory = memory
        self._tag = tag
        # The list-head anchor is an 8-byte durable location updated
        # with an atomic durable write on every append.
        self._anchor = allocator.malloc(8, tag=tag)
        allocator.persist(self._anchor)
        self._logs: Dict[int, _TxnLog] = {}
        self._faults = faults if faults is not None else FaultInjector()

    def append(self, txn_id: int, record: NVMWalRecord) -> Allocation:
        """Durably append ``record`` to the transaction's list."""
        log = self._logs.setdefault(txn_id, _TxnLog())
        size = ENTRY_HEADER_SIZE + record.content_size
        entry = self._allocator.malloc_object(record, size, tag=self._tag)
        # Persist the entry, then atomically link it (Section 4.1:
        # "persists this entry before updating the slot's state").
        self._allocator.sync(entry)
        self._faults.fire("nvm_wal.append.after_persist")
        self._memory.atomic_durable_store_u64(
            self._anchor.addr, entry.addr,
            publishes=((entry.addr, entry.size),))
        log.entries.append(entry)
        log.head = entry.addr
        self._faults.fire("nvm_wal.append.after_link")
        return entry

    def truncate_txn(self, txn_id: int) -> int:
        """Drop a committed transaction's entries ("after all of the
        transaction's changes are safely persisted, the engine
        truncates the log"). Returns entries freed."""
        self._faults.fire("nvm_wal.truncate.before")
        log = self._logs.pop(txn_id, None)
        if log is None:
            return 0
        for entry in log.entries:
            self._allocator.free(entry)
        return len(log.entries)

    def active_txn_ids(self) -> List[int]:
        """Transactions with untruncated entries (in-flight at crash)."""
        return sorted(self._logs)

    def entries_for(self, txn_id: int) -> List[NVMWalRecord]:
        """The transaction's records in append order (reads charge NVM
        loads — recovery walks the non-volatile list)."""
        log = self._logs.get(txn_id)
        if log is None:
            return []
        records = []
        for entry in log.entries:
            self._memory.touch_read(entry.addr, entry.size)
            records.append(entry.obj)
        return records

    def undo_uncommitted(self,
                         undo: Callable[[NVMWalRecord], None]) -> int:
        """Undo-only recovery: hand each in-flight transaction's
        records to ``undo`` newest first, then truncate it. Returns the
        number of transactions rolled back. A crash part-way leaves the
        transactions not yet truncated for the next call."""
        txn_ids = self.active_txn_ids()
        for txn_id in txn_ids:
            for record in reversed(self.entries_for(txn_id)):
                undo(record)
            self.truncate_txn(txn_id)
        return len(txn_ids)

    @property
    def size_bytes(self) -> int:
        return sum(entry.size for log in self._logs.values()
                   for entry in log.entries)

    @property
    def entry_count(self) -> int:
        return sum(len(log.entries) for log in self._logs.values())

    def head_ptr(self) -> Optional[NVPtr]:
        value = self._memory.load_u64(self._anchor.addr)
        return value or None

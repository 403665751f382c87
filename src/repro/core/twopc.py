"""Two-phase commit with presumed abort over the simulated NVM.

Cross-partition transactions run as one branch per participating
partition. The driver loop and the in-doubt resolver live in
:class:`~repro.core.database.Database`; the participant verbs are part
of the :class:`~repro.core.partition.Partition` contract; this module
holds what both build on — the durable record format, the redo capture
and its idempotent replay. The protocol (one coordinator, the *home*
partition doubling as the decision-record owner) is the classic
presumed-abort 2PC:

1. **Prepare** — every branch executes inside an ordinary engine
   transaction that is left *open*, while a :class:`RecordingContext`
   captures the branch's redo operations. The participant then appends
   a durable ``prepare`` record (redo included) to its own
   ``twopc.log`` and votes yes; a branch that aborts votes no and rolls
   back immediately.
2. **Decide** — if every branch voted yes, the home partition appends a
   durable ``commit`` decision to ``twopc.decisions``. No decision is
   logged for aborts: absence of a decision *is* the abort decision
   (presumed abort).
3. **Finish** — every prepared branch commits its open engine
   transaction, forces a durable point
   (:meth:`~repro.engines.base.StorageEngine.flush_commits`), and only
   then appends a ``resolved`` marker to its ``twopc.log``. The marker
   can therefore never be durable before the data it covers.

Recovery (presumed abort): a prepare without a resolved marker is *in
doubt*. The participant asks the home partition's decision log — a
``commit`` decision means the redo operations are reapplied (they are
idempotent: inserts skip-or-update, updates carry absolute values and
apply only if the row exists, deletes apply only if the row exists);
no decision means abort, and since the engine's own recovery already
rolled back the in-flight prepared transaction there is nothing to
undo. Either way the branch then writes its resolved marker.

All records go through the engine platform's NVM filesystem with an
``append`` + ``fsync`` pair, so the existing crash model (un-synced
writes roll back wholesale) guarantees no torn protocol records, and
the static durability analyzer sees the same append-then-fsync
discipline the engines use.

Crash points (armed like any engine fault point, but scoped to the
pseudo-engine ``"2pc"`` so the standard per-engine campaigns ignore
them):

- ``twopc.prepare.after`` — participant crashed after its prepare
  record became durable (vote never reached the coordinator).
- ``twopc.decide.before`` — coordinator crashed after collecting
  unanimous yes votes, before the decision became durable.
- ``twopc.decide.after`` — coordinator crashed after the decision
  became durable, before any participant finished.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from ..fault.injector import register_fault_point
from .executor import TransactionContext

__all__ = ["LOG_FILE", "DECISIONS_FILE", "RecordingContext",
           "append_record", "replay_redo", "pending_prepares",
           "committed_decisions",
           "FP_PREPARE_AFTER", "FP_DECIDE_BEFORE", "FP_DECIDE_AFTER"]

#: Per-participant protocol log: ``prepare`` and ``resolved`` records.
LOG_FILE = "twopc.log"
#: Per-home decision log: ``commit`` records (absence = abort).
DECISIONS_FILE = "twopc.decisions"

FP_PREPARE_AFTER = register_fault_point(
    "twopc.prepare.after",
    "2PC participant: prepare record durable, vote not yet delivered",
    engines=("2pc",))
FP_DECIDE_BEFORE = register_fault_point(
    "twopc.decide.before",
    "2PC coordinator: all participants prepared, decision not durable",
    engines=("2pc",))
FP_DECIDE_AFTER = register_fault_point(
    "twopc.decide.after",
    "2PC coordinator: commit decision durable, participants unfinished",
    engines=("2pc",))

_LEN = struct.Struct("<I")

Redo = List[Tuple[Any, ...]]


def append_record(filesystem, name: str,
                  record: Tuple[Any, ...]) -> None:
    """Append one length-prefixed pickled record and force it durable."""
    file = filesystem.open(name, create=True)
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    filesystem.append(file, _LEN.pack(len(blob)) + blob)
    filesystem.fsync(file)


def _read_records(filesystem, name: str) -> List[Tuple[Any, ...]]:
    if not filesystem.exists(name):
        return []
    data = filesystem.read_all(filesystem.open(name))
    records: List[Tuple[Any, ...]] = []
    offset = 0
    while offset + _LEN.size <= len(data):
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        if offset + length > len(data):
            break  # torn tail: cannot happen post-fsync, be defensive
        records.append(pickle.loads(data[offset:offset + length]))
        offset += length
    return records


class RecordingContext(TransactionContext):
    """A transaction context that also captures the branch's redo log.

    Write operations are recorded (with absolute values, exactly as
    issued) so a prepared branch can be replayed idempotently after a
    crash wiped its open transaction.
    """

    __slots__ = ("redo",)

    def __init__(self, engine: Any, txn: Any) -> None:
        super().__init__(engine, txn)
        self.redo: Redo = []

    def insert(self, table: str, values: Dict[str, Any]) -> None:
        super().insert(table, values)
        self.redo.append(("insert", table, dict(values)))

    def update(self, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        super().update(table, key, changes)
        self.redo.append(("update", table, key, dict(changes)))

    def delete(self, table: str, key: Any) -> None:
        super().delete(table, key)
        self.redo.append(("delete", table, key))


def pending_prepares(filesystem) -> List[Tuple[int, int, Redo]]:
    """In-doubt branches in this participant's protocol log:
    ``[(dtxn_id, home_partition, redo), ...]`` sorted by id."""
    prepared: Dict[int, Tuple[int, Redo]] = {}
    for record in _read_records(filesystem, LOG_FILE):
        if record[0] == "prepare":
            __, dtxn_id, home, redo = record
            prepared[dtxn_id] = (home, redo)
        elif record[0] == "resolved":
            prepared.pop(record[1], None)
    return [(dtxn_id, home, redo)
            for dtxn_id, (home, redo) in sorted(prepared.items())]


def committed_decisions(filesystem,
                        dtxn_ids: Iterable[int]) -> Set[int]:
    """Those of ``dtxn_ids`` with a durable commit decision in this
    home partition's decision log."""
    decided = {record[1]
               for record in _read_records(filesystem, DECISIONS_FILE)
               if record[0] == "commit"}
    return decided & set(dtxn_ids)


def replay_redo(ctx: Any, redo: Redo,
                schema_of: Callable[[str], Any]) -> None:
    """Stored procedure reapplying a committed branch's redo log.

    Idempotent by construction: inserts become updates when the row
    already exists, updates carry absolute values and skip missing
    rows, deletes skip missing rows — so it is safe whether or not the
    original engine commit survived the crash.
    """
    for op in redo:
        kind = op[0]
        if kind == "insert":
            __, table, values = op
            schema = schema_of(table)
            key = schema.key_of(values)
            if ctx.get(table, key) is None:
                ctx.insert(table, values)
            else:
                primary = set(schema.primary_key)
                changes = {column: value
                           for column, value in values.items()
                           if column not in primary}
                if changes:
                    ctx.update(table, key, changes)
        elif kind == "update":
            __, table, key, changes = op
            if ctx.get(table, key) is not None:
                ctx.update(table, key, changes)
        else:
            __, table, key = op
            if ctx.get(table, key) is not None:
                ctx.delete(table, key)

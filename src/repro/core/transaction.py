"""Transactions and their lifecycle.

The testbed executes transactions serially per partition under
timestamp ordering (Section 3): each transaction receives a
monotonically increasing timestamp at begin, runs to completion, and
either commits or aborts. Engines attach their own undo state to the
transaction via :attr:`Transaction.engine_state`.
"""

from __future__ import annotations

import enum
from typing import Any, Dict

from ..errors import TransactionStateError


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"      # logically committed (may await flush)
    DURABLE = "durable"          # group-commit flushed / persisted
    ABORTED = "aborted"


class Transaction:
    """One transaction executing against a storage engine."""

    __slots__ = ("txn_id", "timestamp", "status", "engine_state",
                 "begin_ns", "commit_ns")

    def __init__(self, txn_id: int, timestamp: int) -> None:
        self.txn_id = txn_id
        self.timestamp = timestamp
        self.status = TransactionStatus.ACTIVE
        #: Engine-private undo/redo bookkeeping for this transaction.
        self.engine_state: Dict[str, Any] = {}
        self.begin_ns: float = 0.0
        self.commit_ns: float = 0.0

    def require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionStateError(
                f"txn {self.txn_id} is {self.status.value}, not active")

    def mark_committed(self) -> None:
        self.require_active()
        self.status = TransactionStatus.COMMITTED

    def mark_durable(self) -> None:
        if self.status is not TransactionStatus.COMMITTED:
            raise TransactionStateError(
                f"txn {self.txn_id} is {self.status.value}, "
                "cannot become durable")
        self.status = TransactionStatus.DURABLE

    def mark_aborted(self) -> None:
        self.require_active()
        self.status = TransactionStatus.ABORTED

    def __repr__(self) -> str:
        return (f"Transaction(id={self.txn_id}, ts={self.timestamp}, "
                f"{self.status.value})")

"""The commit ledger: server-side memory for exactly-once commits.

The commit-ambiguity window of a wire protocol: the client sends
``commit``, the connection dies, and the client cannot tell whether
the transaction was applied (the ack frame was lost) or never started
(the request frame was lost). The ledger closes that window with
client-generated **commit tokens**: every tokened ``commit`` records
its fate here — ``pending`` while parked on group commit, then
``durable`` (with the full result frame) or ``failed`` (power failed
before the batch's durable point) — and a retried ``commit`` or a
``commit_status`` probe resolves against the record instead of
re-running the transaction.

A token is ``"<nonce>:<seq>"`` where ``nonce`` identifies one client
connection-lifetime and ``seq`` increases monotonically within it.
That structure is what lets a *bounded* ledger stay honest: completed
entries are evicted FIFO once ``capacity`` is exceeded (counted, not
scanned — a commit's bookkeeping does not grow with the ledger), but the
per-nonce high-water mark of recorded sequence numbers survives
eviction, so the ledger can distinguish

* ``unknown`` — this token was **never recorded**: the commit verb
  never started executing, so the transaction was certainly not
  applied (the client may safely re-run it);
* ``forgotten`` — this token **was recorded but evicted**: the
  outcome is genuinely ambiguous and the client must reconcile from
  data (:class:`~repro.errors.CommitAmbiguousError`).

Nonce high-water marks are themselves bounded (LRU); a client retrying
a commit from a nonce evicted out of the tracking window also gets
``forgotten`` — the safe answer.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, Optional, Tuple

from ..errors import ProtocolError

__all__ = ["CommitLedger", "LedgerEntry"]

#: Completed entries remembered before FIFO eviction.
DEFAULT_CAPACITY = 4096

#: Client nonces whose high-water marks are tracked (LRU).
DEFAULT_NONCE_CAPACITY = 1024


class LedgerEntry:
    """One tokened commit's recorded fate."""

    __slots__ = ("status", "result", "reason")

    def __init__(self, status: str, result: Optional[Dict[str, Any]]
                 = None, reason: str = "") -> None:
        self.status = status        # "pending" | "durable" | "failed"
        self.result = result
        self.reason = reason

    def to_wire(self, token: str) -> Dict[str, Any]:
        return {"token": token, "status": self.status,
                "result": self.result, "reason": self.reason}


def _parse_token(token: str) -> Tuple[str, int]:
    nonce, sep, seq = token.rpartition(":")
    if not sep or not nonce:
        raise ProtocolError(
            f"malformed commit token {token!r} (want '<nonce>:<seq>')")
    try:
        return nonce, int(seq)
    except ValueError:
        raise ProtocolError(
            f"malformed commit token {token!r} (non-integer seq)") \
            from None


class CommitLedger:
    """Bounded exactly-once commit memory (event-loop confined)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 nonce_capacity: int = DEFAULT_NONCE_CAPACITY) -> None:
        if capacity < 1 or nonce_capacity < 1:
            raise ValueError("ledger capacities must be >= 1")
        self._capacity = capacity
        self._nonce_capacity = nonce_capacity
        #: token -> entry; insertion order is completion-eviction order.
        self._entries: "OrderedDict[str, LedgerEntry]" = OrderedDict()
        #: nonce -> highest seq ever recorded (survives entry eviction).
        self._high_water: "OrderedDict[str, int]" = OrderedDict()
        self._pending = 0           # entries whose status is "pending"
        # Accounting (exposed by the ``stats`` verb).
        self.recorded = 0
        self.dedup_hits = 0
        self.evicted = 0

    # ------------------------------------------------------------------

    def lookup(self, token: str) -> Optional[LedgerEntry]:
        """The live entry for ``token``, or None (see :meth:`status`
        for the unknown/forgotten distinction)."""
        _parse_token(token)     # validate even on a miss
        return self._entries.get(token)

    def status(self, token: str) -> Dict[str, Any]:
        """Wire answer for ``commit_status``: one of ``pending``,
        ``durable``, ``failed``, ``forgotten``, ``unknown``."""
        nonce, seq = _parse_token(token)
        entry = self._entries.get(token)
        if entry is not None:
            self.dedup_hits += 1
            return entry.to_wire(token)
        high = self._high_water.get(nonce)
        if high is None:
            if len(self._high_water) >= self._nonce_capacity:
                # The nonce may have been tracked and evicted: the
                # outcome of any of its tokens is unknowable.
                return {"token": token, "status": "forgotten",
                        "result": None,
                        "reason": "client nonce evicted from the "
                                  "ledger's tracking window"}
            return {"token": token, "status": "unknown",
                    "result": None, "reason": ""}
        if seq <= high:
            return {"token": token, "status": "forgotten",
                    "result": None,
                    "reason": "token evicted from the bounded "
                              "commit ledger"}
        return {"token": token, "status": "unknown", "result": None,
                "reason": ""}

    # ------------------------------------------------------------------

    def begin(self, token: str) -> None:
        """Record the commit as in flight *before any engine work* —
        from here on a retry resolves against the ledger, never the
        engine."""
        nonce, seq = _parse_token(token)
        if token in self._entries:
            raise ProtocolError(
                f"commit token {token!r} is already recorded")
        self._entries[token] = LedgerEntry("pending")
        self._pending += 1
        self.recorded += 1
        high = self._high_water.get(nonce)
        if high is None or seq > high:
            self._high_water[nonce] = max(high or 0, seq)
        self._high_water.move_to_end(nonce)
        while len(self._high_water) > self._nonce_capacity:
            self._high_water.popitem(last=False)

    def resolve_durable(self, token: str,
                        result: Dict[str, Any]) -> None:
        self._resolve(token, "durable", result=result)

    def resolve_failed(self, token: str, reason: str) -> None:
        self._resolve(token, "failed", reason=reason)

    def _resolve(self, token: str, status: str, *,
                 result: Optional[Dict[str, Any]] = None,
                 reason: str = "") -> None:
        entry = self._entries.get(token)
        if entry is None or entry.status != "pending":
            return                      # already resolved or evicted
        self._pending -= 1
        entry.status = status
        entry.result = result
        entry.reason = reason
        # Completed entries age out FIFO; pending ones never do (their
        # commit coroutine is still running and will resolve them).
        self._entries.move_to_end(token)
        self._evict()

    def _evict(self) -> None:
        excess = len(self._entries) - self._pending - self._capacity
        if excess <= 0:
            return
        # Oldest completed first, stopping at the last one to go: the
        # walk covers the evicted and the pending ahead of them only.
        completed = (token for token, entry in self._entries.items()
                     if entry.status != "pending")
        for token in list(islice(completed, excess)):
            del self._entries[token]
        self.evicted += excess

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {"capacity": self._capacity,
                "entries": len(self._entries),
                "pending": self._pending,
                "recorded": self.recorded,
                "dedup_hits": self.dedup_hits,
                "evicted": self.evicted}

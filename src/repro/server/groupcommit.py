"""Server-side group commit: coalescing durability rounds.

The engines already split commit into a cheap logical step
(:meth:`StorageEngine.commit`) and a durable point
(:meth:`StorageEngine.flush_commits` — the WAL fsync or master-record
flip). In-process, the engine auto-flushes every
``EngineConfig.group_commit_size`` commits. The server takes that
cadence over: it builds its database with engine auto-flush disabled
(a huge ``group_commit_size``) and runs one :class:`GroupCommitStage`
per partition that decides when the durable point happens.

A committing connection enqueues a future after the logical commit and
awaits it; the stage flushes — resolving every waiter in the batch —
when the first of these fires:

* **quiet** — the server reports that no session holds or is queued
  on the partition's execution lock: nobody is left who could join
  the batch, so holding it open any longer is pure latency (a lone
  client's commit is acknowledged at once);
* **size** — ``batch_size`` commits are waiting;
* **hold** — the partition's simulated clock moved ``max_hold_ns``
  past the batch's first commit (checked at each enqueue, so it is
  deterministic for a deterministic workload);
* **timer** — ``max_hold_wall_s`` of wall time passed (liveness
  backstop for a batch parked behind a holder whose client is idle:
  the partition is not quiet, but no commit is coming either);
* an explicit ``flush`` verb or server shutdown.

With batching ``enabled=False`` every commit flushes immediately —
one durability round per transaction — which is the baseline the
loopback benchmark compares against.

Accounting: each flush measures the simulated durability rounds it
spent (delta of ``fs.fsyncs`` + ``cache.sfence``, i.e. WAL fsyncs plus
flush+fence trains) and the stage feeds a per-partition batch-size
histogram into the server's metrics registry.

A :class:`~repro.errors.SimulatedCrash` raised by the engine's flush
is a power failure: the stage reports it through the ``on_crash``
callback (the server crashes the whole database) and fails every
waiter with :class:`~repro.errors.CrashedError` — exactly the group
commit contract, where a logically-committed transaction may be lost
if power fails before its batch is durable.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import CrashedError, SimulatedCrash

__all__ = ["GroupCommitConfig", "GroupCommitStage"]


@dataclass(frozen=True)
class GroupCommitConfig:
    """Tunables of the server's commit-batching stage."""

    #: Batch durability at all (False = flush every commit).
    enabled: bool = True
    #: Flush when this many commits are waiting.
    batch_size: int = 8
    #: Flush when the partition's simulated clock moved this far past
    #: the batch's first commit.
    max_hold_ns: float = 200_000.0
    #: Wall-clock liveness backstop for a batch parked behind a holder
    #: whose client is idle.
    max_hold_wall_s: float = 0.002

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("group commit batch_size must be >= 1")
        if self.max_hold_ns < 0 or self.max_hold_wall_s <= 0:
            raise ValueError("group commit hold times must be positive")


class GroupCommitStage:
    """One partition's commit-batching stage (event-loop confined)."""

    def __init__(self, partition, config: GroupCommitConfig,
                 loop: asyncio.AbstractEventLoop, *,
                 on_crash: Optional[Callable[[], None]] = None,
                 batch_histogram=None) -> None:
        self._partition = partition
        self._config = config
        self._loop = loop
        self._on_crash = on_crash
        self._batch_histogram = batch_histogram
        self._waiters: List[asyncio.Future] = []
        self._batch_open_ns: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        # Accounting (exposed by the ``stats`` verb).
        self.txns = 0
        self.batches = 0
        self.durability_rounds = 0
        self.max_batch = 0
        self.flush_reasons: Counter = Counter()

    # ------------------------------------------------------------------

    def _rounds_now(self) -> int:
        """Cumulative durability rounds this partition has performed:
        filesystem fsyncs plus flush+fence trains."""
        stats = self._partition.platform.stats
        return stats.counter("fs.fsyncs") + stats.counter("cache.sfence")

    def enqueue(self, release=None) -> "asyncio.Future":
        """Register one logically-committed transaction. The returned
        future resolves when its batch reaches the durable point (or
        fails with :class:`CrashedError` if power fails first). Only a
        batch still parked after ``release()`` arms the wall timer."""
        future = self._loop.create_future()
        self._waiters.append(future)
        self.txns += 1
        clock = self._partition.platform.clock
        if self._batch_open_ns is None:
            self._batch_open_ns = clock.now_ns
        if not self._config.enabled:
            self.flush("immediate")
        elif len(self._waiters) >= self._config.batch_size:
            self.flush("size")
        elif clock.now_ns - self._batch_open_ns >= self._config.max_hold_ns:
            self.flush("hold")
        if release is not None:
            release()
        if self._waiters and self._timer is None:
            self._timer = self._loop.call_later(
                self._config.max_hold_wall_s, self._timer_fired)
        return future

    def _timer_fired(self) -> None:
        self._timer = None
        if self._waiters:
            self.flush("timer")

    def quiet(self) -> None:
        """Nobody holds or is queued on the partition's execution
        lock, so nobody can join the batch: flush what is parked."""
        if self._waiters:
            self.flush("quiet")

    def flush(self, reason: str = "explicit") -> int:
        """Run one durable point now; resolves every waiting commit.
        Returns the batch size. Never raises: a simulated power
        failure during the flush crashes the database (via
        ``on_crash``) and fails the waiters instead."""
        self._cancel_timer()
        waiters, self._waiters = self._waiters, []
        self._batch_open_ns = None
        before = self._rounds_now()
        try:
            self._partition.engine.flush_commits()
        except SimulatedCrash as exc:
            if self._on_crash is not None:
                self._on_crash()
            self._fail(waiters,
                       f"power failed during the durable point ({exc})")
            return len(waiters)
        if waiters:
            self.batches += 1
            self.durability_rounds += self._rounds_now() - before
            self.max_batch = max(self.max_batch, len(waiters))
            self.flush_reasons[reason] += 1
            if self._batch_histogram is not None:
                self._batch_histogram.observe(len(waiters))
            for future in waiters:
                if not future.done():
                    future.set_result(True)
        return len(waiters)

    def fail_pending(self, reason: str) -> int:
        """Fail every waiting commit (power failed before their batch
        became durable). Returns how many were failed."""
        self._cancel_timer()
        waiters, self._waiters = self._waiters, []
        self._batch_open_ns = None
        self._fail(waiters, reason)
        return len(waiters)

    def _fail(self, waiters: List["asyncio.Future"], reason: str) -> None:
        for future in waiters:
            if not future.done():
                future.set_exception(CrashedError(
                    f"commit not durable: {reason}"))

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def close(self) -> None:
        self._cancel_timer()

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Accounting snapshot for the ``stats`` verb."""
        txns = self.txns or 1
        return {
            "partition": self._partition.partition_id,
            "enabled": self._config.enabled,
            "txns": self.txns,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "mean_batch": self.txns / self.batches if self.batches else 0.0,
            "durability_rounds": self.durability_rounds,
            "rounds_per_txn": self.durability_rounds / txns,
            "flush_reasons": dict(self.flush_reasons),
            "pending": len(self._waiters),
        }

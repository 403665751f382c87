"""Closed-loop multi-client workload driver for the network tier.

Where :func:`repro.harness.runner.run` drives one in-process database
as fast as the simulator allows, this driver measures the *server*:
N clients, each on its own connection and session, each running a
think-time-free loop of ``begin -> ops -> commit`` (a *closed loop* —
a client issues its next transaction only after its previous commit
became durable). Concurrency here is what makes group commit visible:
with N clients in flight the server coalesces their durable points,
and the per-transaction durability cost drops roughly N-fold.

The driver is deliberately resilient: a transaction that dies to a
simulated power failure (``CrashedError``) or a dropped connection
(``ServerDisconnected``) is counted as failed, the client re-opens its
session, and the loop carries on — which is exactly what lets the CI
smoke job crash and recover the server mid-run under live load.

There is one closed-loop client (:class:`_Worker`) and one way to run
a fleet of them (:func:`run_fleet`). The worker keeps the detail an
oracle needs — per-key acked counts, the ``(keys, token)`` of every
commit whose fate it could not learn, failed attempts —
:class:`ClosedLoopResult` reads only the totals, and the chaos
campaign (:mod:`repro.chaos.campaign`) points the same fleet at a
fault proxy and reconciles the detail against the commit ledger.

Client count is a sweep dimension: :func:`sweep_clients` runs the same
workload at increasing client counts against fresh servers, showing
durability rounds per transaction fall as batches fill
(``docs/performance.md``).
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.schema import Column, ColumnType, Schema
from ..errors import (CrashedError, ProtocolError, ReproError,
                      RetryAfterError, ServerDisconnected, ServerError)

__all__ = ["ClosedLoopConfig", "ClosedLoopResult", "run_closed_loop",
           "run_fleet", "run_loopback", "sweep_clients"]


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Shape of one closed-loop run."""

    clients: int = 8
    txns_per_client: int = 50
    ops_per_txn: int = 2        # update+get pairs per transaction
    keys: int = 512
    seed: int = 131
    table: str = "cl_kv"
    #: Give up on a transaction after this many begin retries while the
    #: server is crashed (waiting for somebody to call recover).
    max_txn_retries: int = 2000
    retry_sleep_s: float = 0.005


@dataclass
class ClosedLoopResult:
    """What one closed-loop run measured."""

    clients: int
    committed: int
    failed: int
    wall_seconds: float
    #: Transactions per wall-clock second (closed-loop throughput).
    throughput: float
    #: Simulated durability rounds (WAL fsyncs + flush+fence trains)
    #: spent by the measurement window's group-commit flushes.
    durability_rounds: int
    rounds_per_txn: float
    mean_batch: float
    max_batch: int
    flush_reasons: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        del payload["server_stats"]     # the raw verb reply, not a result
        return payload


def table_schema(config: ClosedLoopConfig) -> Schema:
    return Schema.build(
        config.table,
        [Column("k", ColumnType.INT), Column("v", ColumnType.INT)],
        primary_key=["k"])


def load_table(client, config: ClosedLoopConfig) -> None:
    """Create and populate the driver's table through one session."""
    client.create_table(table_schema(config))
    with client.session("loader") as session:
        for base in range(0, config.keys, 256):
            session.begin()
            for key in range(base, min(base + 256, config.keys)):
                session.insert(config.table, {"k": key, "v": 0})
            session.commit()


class _Worker(threading.Thread):
    """The one closed-loop client: runs ``txns_per_client``
    read-increment-write transactions, each to an *acknowledged*
    durable commit, and classifies every attempt on the way:

    * **acked** — ``commit`` returned: the increments are durable
      (``acked`` counts them per key, ``committed`` per transaction);
    * **ambiguous** — the ``commit`` verb itself raised: the
      transaction may or may not have been applied (even a
      ``CrashedError`` is ambiguous for engines whose logical commit is
      their durable point). Recorded as ``(keys, token)`` so a caller
      with an oracle can ask the server's commit ledger; the worker
      just runs the transaction again;
    * **failed** — anything before ``commit`` raised: certainly not
      applied, retried. Load shedding (``RetryAfterError``) is waited
      out, not counted — the transaction never started.

    Every value written is the absolute ``v + 1``, so each
    in-transaction frame is idempotent and the only frame whose loss
    or duplication matters is ``commit``."""

    def __init__(self, index: int, client, config: ClosedLoopConfig,
                 start_barrier: threading.Barrier,
                 commit_deadline_s: Optional[float]) -> None:
        super().__init__(name=f"closed-loop-{index}", daemon=True)
        self.index = index
        self.client = client
        self.config = config
        self.rng = random.Random(config.seed * 7919 + index)
        self.start_barrier = start_barrier
        self.commit_deadline_s = commit_deadline_s
        self.committed = 0
        #: key -> certainly-applied increments (acked commits).
        self.acked: Dict[int, int] = {}
        #: (keys, token) of commits whose fate is unresolved.
        self.ambiguous: List[Tuple[Tuple[int, ...], str]] = []
        self.failed_attempts = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:
            self.error = exc

    def _loop(self) -> None:
        session = self._open()
        # A bounded wait so one worker failing to connect cannot hang
        # the whole fleet on the barrier.
        self.start_barrier.wait(timeout=60.0)
        try:
            for _ in range(self.config.txns_per_client):
                session = self._one_txn(session)
        finally:
            try:
                session.close()
            except ReproError:
                pass
            self.client.close()

    def _open(self, label: str = ""):
        """Connect and open a session, retrying through a crashed
        server or whatever a fault proxy throws at the attempt."""
        config, client = self.config, self.client
        for attempt in range(config.max_txn_retries):
            try:
                if not client.connected:
                    client.connect()
                return client.session(
                    f"client-{self.index}{label}a{attempt}")
            except (ServerError, ProtocolError, CrashedError):
                client.close()
                time.sleep(config.retry_sleep_s
                           + self.rng.uniform(0, config.retry_sleep_s))
        raise RuntimeError(
            f"client {self.index} could not open a session")

    def _one_txn(self, session):
        """Run one transaction to an acknowledged commit, re-opening
        the session (or connection) as needed; returns the live
        session."""
        config = self.config
        keys = tuple(self.rng.randrange(config.keys)
                     for _ in range(config.ops_per_txn))
        for _ in range(config.max_txn_retries):
            token = None
            try:
                session.begin()
                for key in keys:
                    row = session.get(config.table, key)
                    session.update(config.table, key,
                                   {"v": row["v"] + 1})
                token = self.client.commit_token()
                session.commit(deadline=self.commit_deadline_s,
                               token=token)
                for key in keys:
                    self.acked[key] = self.acked.get(key, 0) + 1
                self.committed += 1
                return session
            except ReproError as exc:
                if token is not None:
                    self.ambiguous.append((keys, token))
                elif not isinstance(exc, RetryAfterError):
                    self.failed_attempts += 1
                session = self._after_failure(session, exc)
        raise RuntimeError(
            f"client {self.index} could not commit after "
            f"{config.max_txn_retries} attempts")

    def _after_failure(self, session, exc):
        """Wait out what can be waited out; otherwise the session (or
        its connection) is suspect and is replaced."""
        if isinstance(exc, RetryAfterError):
            # Load shed before any work: honor the server's hint.
            time.sleep(self.rng.uniform(0, exc.retry_after_s * 2))
            return session
        if isinstance(exc, CrashedError):
            # Power failure: wait out the recovery; the session
            # survived the crash. (If its state got out of step, the
            # next attempt's SessionError replaces it below.)
            time.sleep(self.config.retry_sleep_s)
            return session
        try:
            session.close()
        except ReproError:
            pass
        if isinstance(exc, (ServerDisconnected, ProtocolError)):
            # A dropped connection — or a session handle gone stale
            # across a mid-call reconnect ("no open session").
            self.client.close()
        return self._open(label="r")


def run_fleet(host: str, port: int, config: ClosedLoopConfig, *,
              client_options: Optional[Dict[str, Any]] = None,
              commit_deadline_s: Optional[float] = None,
              max_wall_s: Optional[float] = None) -> List[_Worker]:
    """Start ``config.clients`` workers on a common barrier and join
    them — giving up on the join (never on CI) after ``max_wall_s``.
    Returns the workers: the caller reads ``is_alive()`` / ``error``
    and the outcome records. ``client_options`` are extra
    :class:`~repro.client.ReproClient` keyword arguments (a short
    socket ``timeout`` turns a blackholed direction into a retryable
    disconnect instead of a hang)."""
    from ..client import ReproClient

    barrier = threading.Barrier(config.clients)
    workers = [_Worker(index,
                       ReproClient(host, port,
                                   jitter_seed=config.seed * 31 + index,
                                   **(client_options or {})),
                       config, barrier, commit_deadline_s)
               for index in range(config.clients)]
    for worker in workers:
        worker.start()
    deadline = None if max_wall_s is None \
        else time.monotonic() + max_wall_s
    for worker in workers:
        worker.join(None if deadline is None
                    else max(0.1, deadline - time.monotonic()))
    return workers


def _gc_totals(stats: Dict[str, Any]) -> Tuple[int, int, int, int,
                                               Dict[str, int]]:
    txns = batches = rounds = max_batch = 0
    reasons: Dict[str, int] = {}
    for stage in stats.get("group_commit", []):
        txns += stage["txns"]
        batches += stage["batches"]
        rounds += stage["durability_rounds"]
        max_batch = max(max_batch, stage["max_batch"])
        for reason, count in stage["flush_reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    return txns, batches, rounds, max_batch, reasons


def run_closed_loop(host: str, port: int,
                    config: Optional[ClosedLoopConfig] = None,
                    *, load: bool = True) -> ClosedLoopResult:
    """Drive a running server with N concurrent closed-loop clients."""
    from ..client import ReproClient

    config = config or ClosedLoopConfig()
    admin = ReproClient(host, port)
    admin.connect()
    try:
        if load:
            load_table(admin, config)
        before = _gc_totals(admin.stats())
        started = time.perf_counter()
        workers = run_fleet(host, port, config)
        wall = time.perf_counter() - started
        for worker in workers:
            if worker.error is not None:
                raise worker.error
        stats = admin.stats()
    finally:
        admin.close()

    after = _gc_totals(stats)
    txns = after[0] - before[0]
    batches = after[1] - before[1]
    rounds = after[2] - before[2]
    committed = sum(worker.committed for worker in workers)
    failed = sum(worker.failed_attempts + len(worker.ambiguous)
                 for worker in workers)
    return ClosedLoopResult(
        clients=config.clients,
        committed=committed,
        failed=failed,
        wall_seconds=wall,
        throughput=committed / wall if wall > 0 else 0.0,
        durability_rounds=rounds,
        rounds_per_txn=rounds / txns if txns else 0.0,
        mean_batch=txns / batches if batches else 0.0,
        max_batch=after[3],
        flush_reasons={reason: after[4].get(reason, 0)
                       - before[4].get(reason, 0)
                       for reason in after[4]},
        server_stats=stats,
    )


def run_loopback(server_config=None,
                 config: Optional[ClosedLoopConfig] = None,
                 *, procedures=None) -> ClosedLoopResult:
    """Start a loopback server on a background thread, run one
    closed-loop measurement against it, and shut it down."""
    from ..server import ServerConfig, ServerThread

    server_config = server_config or ServerConfig()
    with ServerThread(server_config, procedures=procedures) as thread:
        host, port = thread.server.address
        return run_closed_loop(host, port, config)


def sweep_clients(client_counts: List[int], server_config=None,
                  config: Optional[ClosedLoopConfig] = None
                  ) -> List[ClosedLoopResult]:
    """The client-count sweep dimension: one fresh loopback server per
    point, same workload shape, increasing concurrency."""
    base = config or ClosedLoopConfig()
    return [run_loopback(server_config,
                         dataclasses.replace(base, clients=clients))
            for clients in client_counts]

"""The sharded tier's transport: one executor process per partition.

:class:`RemotePartition` speaks the per-partition contract
(:class:`~repro.core.partition.Partition`) over a pipe to a long-lived
executor process that hosts the real partition
(:mod:`repro.dist.executor`), and :class:`ShardedDatabase` is the
:class:`~repro.core.database.Database` built from them. Routing, the
convenience operations, lifecycle errors, two-phase commit and recovery
are the database's own, unchanged; transactions against different
partitions run on different cores *concurrently*, which is what turns
the testbed's simulated one-worker-per-partition model into real
wall-clock scale-out.

Two mechanisms keep sharded runs deterministic in simulated time:

- Fire-and-forget pipelining. Verbs that return nothing
  (``execute``, ``insert``, ``flush``, ...) are buffered per executor
  and shipped in ``TAG_CMDS`` batches with no reply; each executor
  applies its stream in order, so its partition's simulation is
  identical to the serial run's. A synchronous verb drains *every*
  partition's buffer first (command order is observable across
  partitions through 2PC), and a broadcast is sent to all executors
  before the first reply is collected, so they work concurrently.
- Deterministic merge. The database aggregates per-partition
  snapshots, and an observability session the ``obs_*`` replies, in
  partition order on both transports, so exports are byte-identical
  to an in-process run (see ``docs/scaleout.md``).

What the pipe changes (documented in ``docs/scaleout.md``): ``execute``
is fire-and-forget — it returns ``None`` and a failure surfaces at the
next synchronous verb as a :class:`~repro.errors.ShardedError`; live
telemetry heartbeats are coordinator-side only; and explicit sessions
(``begin()`` on a remote partition) are not served yet.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import EngineConfig, LatencyProfile, PlatformConfig
from ..core.database import Database
from ..core.schema import Schema
from ..engines.base import ENGINE_NAMES
from ..errors import (DatabaseClosedError, ShardedError, SimulatedCrash,
                      StorageEngineError)
from ..harness import ipc
from .executor import POSTED_OPS, SYNC_OPS, executor_main

__all__ = ["RemotePartition", "ShardedDatabase", "COMMAND_BATCH_SIZE"]

#: Fire-and-forget commands buffered per executor before an implicit
#: flush — large enough to amortize pickling, small enough to keep the
#: executors busy while the coordinator keeps generating work.
COMMAND_BATCH_SIZE = 256


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class RemotePartition:
    """The partition contract, spoken to an executor process.

    Every verb of :data:`~repro.dist.executor.POSTED_OPS` and
    :data:`~repro.dist.executor.SYNC_OPS` is a method (bound below the
    class): a posted verb queues ``(op, args)`` and returns ``None``, a
    synchronous one sends it and waits for the reply. Arguments are
    positional and must pickle (stored procedures: module-level)."""

    def __init__(self, partition_id: int, engine_name: str,
                 platform_config, engine_config) -> None:
        self.partition_id = partition_id
        #: Every partition of the database, this one included (set by
        #: :class:`ShardedDatabase`): what a synchronous verb drains.
        self.peers: Sequence["RemotePartition"] = (self,)
        self._schemas: Dict[str, Schema] = {}
        self._buffer: List[Tuple[str, Tuple[Any, ...]]] = []
        context = _mp_context()
        cmd_recv, self._cmd_send = context.Pipe(duplex=False)
        self._reply_recv, reply_send = context.Pipe(duplex=False)
        self.process = context.Process(
            target=executor_main,
            args=(cmd_recv, reply_send, partition_id, engine_name,
                  platform_config, engine_config),
            daemon=True, name=f"repro-executor-{partition_id}")
        self.process.start()
        # Parent keeps only its ends; the child owns the others.
        cmd_recv.close()
        reply_send.close()

    # -- pipe plumbing ---------------------------------------------------

    def _flush(self) -> None:
        if self._buffer:
            if self._cmd_send.closed:
                raise DatabaseClosedError(
                    f"executor {self.process.name} has been shut down")
            batch, self._buffer = self._buffer, []
            try:
                ipc.send(self._cmd_send, ipc.TAG_CMDS, batch)
            except (OSError, ValueError) as exc:
                raise ShardedError(
                    f"executor {self.process.name} is gone "
                    f"({exc})") from exc

    def _post(self, op: str, *args: Any) -> None:
        """One fire-and-forget command: queue it; ship a full batch."""
        self._buffer.append((op, args))
        if len(self._buffer) >= COMMAND_BATCH_SIZE:
            self._flush()

    def _reply(self) -> Tuple[bool, Any]:
        """Wait for the executor's next reply, ``(ok, payload)``."""
        try:
            tag, reply = ipc.recv(self._reply_recv)
        except (EOFError, OSError) as exc:
            raise ShardedError(
                f"executor {self.process.name} died before "
                f"replying") from exc
        if tag != ipc.TAG_REPLY:
            raise ShardedError(
                f"executor {self.process.name} sent unexpected "
                f"{tag!r} message")
        return reply

    def _value(self, reply: Tuple[bool, Any]) -> Any:
        ok, payload = reply
        if ok:
            return payload
        if isinstance(payload, tuple):
            # A fault plan fired over there: the same power failure,
            # for the database to turn into a crash of every partition.
            raise SimulatedCrash(*payload)
        raise ShardedError(
            f"executor {self.process.name} failed:\n{payload}")

    def _call(self, op: str, *args: Any) -> Any:
        """One synchronous command: queue it, drain every partition's
        buffer, wait for the single reply."""
        self._buffer.append((op, args))
        for peer in self.peers:
            peer._flush()
        return self._value(self._reply())

    @staticmethod
    def broadcast(partitions: Sequence["RemotePartition"], op: str,
                  *args: Any) -> List[Any]:
        """Contract verb ``op`` on every partition. Every executor has
        the command before the first reply is awaited, so they work
        concurrently; every reply is read before the first failure is
        raised, so the pipes stay in step."""
        if op in POSTED_OPS:
            return [getattr(partition, op)(*args)
                    for partition in partitions]
        for partition in partitions:
            partition._buffer.append((op, args))
        for partition in partitions:
            partition._flush()
        replies = [partition._reply() for partition in partitions]
        return [partition._value(reply)
                for partition, reply in zip(partitions, replies)]

    # -- verbs that are more than their wire form --------------------------

    def create_table(self, schema: Schema) -> None:
        self._schemas[schema.table] = schema
        self._post("create_table", schema)

    def schema(self, table: str) -> Schema:
        """Answered from the coordinator's copy (routing needs it on
        every keyed insert)."""
        try:
            return self._schemas[table]
        except KeyError:
            raise StorageEngineError(f"no such table {table!r}") from None

    def begin(self):
        raise ShardedError(
            "explicit sessions are not served over a remote partition "
            "yet; use execute()/execute_distributed()")

    def close(self) -> None:
        """Shut the executor down and reap it. Idempotent."""
        if self._cmd_send.closed:
            return
        try:
            self._call("shutdown")
        except ShardedError:
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._cmd_send.close()
        self._reply_recv.close()


def _bind_verb(op: str) -> None:
    if op in SYNC_OPS:
        def verb(self, *args: Any) -> Any:
            return self._call(op, *args)
    else:
        def verb(self, *args: Any) -> None:
            self._post(op, *args)
    verb.__name__ = op
    setattr(RemotePartition, op, verb)


for _op in POSTED_OPS | SYNC_OPS:
    if _op not in vars(RemotePartition):
        _bind_verb(_op)


class ShardedDatabase(Database):
    """A partitioned database executed by one process per partition."""

    #: Lets harness code branch without importing this module.
    is_sharded = True

    _partition_class = RemotePartition

    def __init__(self, engine: str = ENGINE_NAMES.NVM_INP, *,
                 partitions: int = 1,
                 latency: Optional[LatencyProfile] = None,
                 platform_config: Optional[PlatformConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 seed: int = 0x5EED) -> None:
        super().__init__(engine, partitions=partitions, latency=latency,
                         platform_config=platform_config,
                         engine_config=engine_config, seed=seed)
        for partition in self.partitions:
            partition.peers = self.partitions

    def close(self) -> None:
        """Shut down every executor process. Idempotent."""
        if self._closed:
            return
        super().close()
        for partition in self.partitions:
            partition.close()

    def barrier(self) -> None:
        """Wait until every executor has drained its command stream."""
        self._on_all("barrier")

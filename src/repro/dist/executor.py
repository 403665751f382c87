"""Per-partition executor process for the sharded execution tier.

Each executor hosts exactly one bare
:class:`~repro.core.partition.Partition`, built with its *global*
partition id, which makes its platform seed — and therefore every
simulated clock tick, cache eviction, and NVM counter — bit-identical to
the corresponding partition of an in-process multi-partition database.
The coordinator side (:class:`~repro.dist.coordinator.RemotePartition`)
ships ``(op, args)`` commands over a ``multiprocessing`` pipe using the
tagged-pipe protocol from :mod:`repro.harness.ipc`, and the executor
dispatches each straight onto the partition's contract verb of that
name (or, for ``barrier`` and ``shutdown``, onto a no-op: replying at
all is the point — the stream before is done):

- ``TAG_CMDS`` carries a batch ``[(op, args), ...]``. Posted
  operations (:data:`POSTED_OPS`) produce no reply; their first
  failure is stashed, later posted work is skipped, and the failure
  surfaces at the next synchronous command — mirroring how a real
  shared-nothing node would fail the session rather than the wire.
- Synchronous operations (:data:`SYNC_OPS`) produce exactly one
  ``TAG_REPLY`` message ``(ok, payload)``. When ``ok`` is false the
  payload is a formatted traceback — or, for a
  :class:`~repro.errors.SimulatedCrash` (an armed fault plan fired
  inside this executor), the ``(message, point, hit)`` triple the
  coordinator rebuilds the exception from.
"""

from __future__ import annotations

import traceback
from typing import Any

from ..core.partition import Partition
from ..errors import ShardedError, SimulatedCrash
from ..harness import ipc

__all__ = ["executor_main", "POSTED_OPS", "SYNC_OPS"]

#: Operations that produce no reply (fire-and-forget).
POSTED_OPS = frozenset({
    "create_table", "execute", "insert", "update", "delete", "flush",
    "settle", "checkpoint", "set_checkpoint_interval", "arm_faults",
    "disarm_faults", "obs_attach", "obs_begin_run",
})

#: Operations that produce exactly one TAG_REPLY message.
SYNC_OPS = frozenset({
    "barrier", "get", "scan", "snapshot", "storage_breakdown", "crash",
    "recover",
    "fault_hits", "faults_fired", "pending_prepares",
    "committed_decisions", "resolve_prepared", "branch_prepare",
    "log_decision", "branch_finish", "obs_end_run", "obs_detach",
    "shutdown",
})


def executor_main(cmd_conn, reply_conn, partition_id: int, engine: str,
                  platform_config, engine_config) -> None:
    """Executor process entry point: serve command batches until a
    ``shutdown`` command or a closed pipe."""
    partition = Partition(partition_id, engine, platform_config,
                          engine_config)
    handlers = dict.fromkeys(("barrier", "shutdown"), lambda: None)
    handlers.update((op, getattr(partition, op))
                    for op in POSTED_OPS | SYNC_OPS if op not in handlers)
    pending_error: Any = None
    running = True
    while running:
        try:
            tag, batch = ipc.recv(cmd_conn)
        except (EOFError, OSError):
            break
        if tag != ipc.TAG_CMDS:
            continue
        for op, args in batch:
            sync = op in SYNC_OPS
            error, value = pending_error, None
            if error is None:
                try:
                    if op not in handlers:
                        raise ShardedError(f"unknown operation {op!r}")
                    value = handlers[op](*args)
                except SimulatedCrash as crash:
                    error = (str(crash), crash.point, crash.hit)
                except Exception as exc:
                    error = "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__)).rstrip()
            if not sync:
                pending_error = error
                continue
            pending_error = None
            ipc.send(reply_conn, ipc.TAG_REPLY,
                     (True, value) if error is None else (False, error))
            if op == "shutdown":
                running = False
                break
    cmd_conn.close()
    reply_conn.close()

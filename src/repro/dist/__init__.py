"""Shared-nothing scale-out tier: process-per-partition execution.

The paper's H-Store-style testbed pins one partition to each worker
core. Everything in :mod:`repro.core` keeps that model inside a single
Python process — partitions are simulated cores, wall-clock is the max
across their simulated clocks, but only one real core ever runs. This
package turns that simulation into a parallel system:

- :mod:`repro.dist.coordinator` — :class:`RemotePartition`, the
  per-partition contract (:class:`~repro.core.partition.Partition`)
  spoken over a ``multiprocessing`` pipe (the tagged-pipe protocol from
  :mod:`repro.harness.ipc`) to a long-lived executor process, and
  :class:`ShardedDatabase`, the
  :class:`~repro.core.database.Database` built from them.
- :mod:`repro.dist.executor` — the per-partition worker loop: hosts a
  bare ``Partition`` whose simulation state is bit-identical to the
  corresponding partition of an in-process run and dispatches
  ``(op, args)`` commands straight onto it.
- :mod:`repro.dist.txn` — :class:`DistributedTransaction`, the
  multi-branch transaction description
  :meth:`Database.execute_distributed
  <repro.core.database.Database.execute_distributed>` runs with
  two-phase commit (:mod:`repro.core.twopc`) on either transport.
- :mod:`repro.dist.campaign` — the 2PC crash campaign: the pair-write
  workload the campaign kernel (:mod:`repro.fault.campaign`) runs on
  either transport.

See ``docs/scaleout.md`` for the architecture, the 2PC state machine,
and the determinism contract.
"""

from .coordinator import ShardedDatabase
from .txn import Branch, DistributedTransaction

__all__ = ["Branch", "DistributedTransaction", "ShardedDatabase"]

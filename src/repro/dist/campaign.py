"""Crash-recovery campaign for the two-phase commit protocol.

The storage campaign (:class:`repro.fault.campaign.SingleRow`) proves
each engine survives a crash at every in-operation instant; this module
proves the *distributed* commit path does too. It is a second
:class:`~repro.fault.campaign.Workload` for the one campaign kernel: a
script of pair-writes — each transaction upserts the same key on
**two** partitions through :meth:`Database.execute_distributed
<repro.core.database.Database.execute_distributed>` — run against a
two-partition database, crashing at every sampled hit of the three 2PC
fault points:

* ``twopc.prepare.after`` — a participant voted yes and made its
  prepare record durable, but the protocol had not yet decided;
* ``twopc.decide.before`` — all participants prepared, the decision
  was *about* to become durable (presumed abort must roll back);
* ``twopc.decide.after`` — the commit decision is durable but no
  participant has applied it (recovery must finish the commit).

After every crash the kernel recovers the database (engine recovery
plus the coordinator's in-doubt resolution, through nested crashes)
and its oracle checks the distributed invariants, with
``partitions = 2``:

* every **acknowledged** transaction's write survives on *both*
  partitions;
* the interrupted transaction is **atomic across partitions** — its
  write is either applied on both or on neither (a lost commit shows
  up as "applied on one", a phantom as "applied but never decided");
* no keys outside the script appear.

The kernel reads everything through the database and partition
contract, so ``factory`` picks the transport: the in-process
:class:`~repro.core.database.Database` (the default — deterministic
and fast enough to sweep every coordinate of all eight engines) or
:class:`~repro.dist.coordinator.ShardedDatabase`, where the fault plan
crosses the pipe and fires inside an executor process.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from ..core.database import Database
from ..core.twopc import (FP_DECIDE_AFTER, FP_DECIDE_BEFORE,
                          FP_PREPARE_AFTER)
from ..fault.campaign import (CampaignReport, Step, Workload,
                              run_crash_campaign)
from .txn import Branch, DistributedTransaction

__all__ = ["PairWrite", "run_twopc_campaign", "build_pair_script"]

#: Keys the pair-writes draw from — small enough that most transactions
#: update a key with history, exercising redo replay over both the
#: insert and the update record shapes.
KEY_SPACE = 6


def pair_write(ctx, key: int, value: str):
    """The branch body both participants run: upsert ``key``."""
    if ctx.get(PairWrite.table, key) is None:
        ctx.insert(PairWrite.table, {"id": key, "v": value})
    else:
        ctx.update(PairWrite.table, key, {"v": value})
    return value


def build_pair_script(seed: int, ops: int) -> List[Step]:
    """The deterministic workload: ``(home_partition, key, value)``
    triples. Every value is unique so the oracle can tell which version
    of a key survived; the home alternates so decision records land on
    both partitions."""
    rng = random.Random(f"twopc-crashtest-{seed}")
    return [(i % 2, rng.randrange(KEY_SPACE), f"v{i:04d}")
            for i in range(ops)]


class PairWrite(Workload):
    """The 2PC campaign: every step upserts one key on both partitions
    in one distributed transaction."""

    name = "twopc-crashtest"
    title = "2PC crash campaign"
    table = "twopc_pairs"
    partitions = 2
    build_script = staticmethod(build_pair_script)

    @staticmethod
    def points(engine: str) -> Sequence[str]:
        """The protocol's own points, whatever the engine (the generic
        ``recovery.*`` points are the storage campaign's to sweep)."""
        return (FP_PREPARE_AFTER, FP_DECIDE_BEFORE, FP_DECIDE_AFTER)

    @classmethod
    def apply(cls, db: Database, step: Step) -> None:
        home, key, value = step
        db.execute_distributed(DistributedTransaction(
            Branch(home, pair_write, (key, value)),
            (Branch(1 - home, pair_write, (key, value)),)))


def run_twopc_campaign(engines: Sequence[str], seed: int = 7,
                       ops: int = 48, max_hits_per_point: int = 3,
                       factory: Callable[..., Database] = Database,
                       **sweep) -> CampaignReport:
    """The full 2PC campaign: :func:`~repro.fault.campaign.
    run_crash_campaign` over the :class:`PairWrite` workload. ``sweep``
    passes ``jobs`` / ``timeout_s`` / ``retries`` / ``artifacts_dir`` /
    ``bus`` through to the coordinate sweep."""
    return run_crash_campaign(
        engines, seed=seed, ops=ops,
        max_hits_per_point=max_hits_per_point, workload=PairWrite,
        factory=factory, **sweep)

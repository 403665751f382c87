"""HTAP workload extension: OLTP mixed with analytical range scans.

The paper's future-work discussion (Appendix D) calls out "methods for
supporting hybrid workloads (i.e., OLTP + OLAP) on NVM". This workload
takes a first step: the YCSB table served by a mixture of point
transactions and periodic analytical queries — a range aggregate over
a tenth of the key space. The log-structured engines'
read amplification shows up sharply here, because every scanned tuple
must be coalesced across LSM runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..core.database import Database
from ..errors import WorkloadError
from ..sim.rng import derive_rng
from .ycsb import NUM_VALUE_COLUMNS, YCSBConfig, YCSBWorkload

#: Fraction of the key space each analytical query covers.
SCAN_COVERAGE = 0.10


@dataclass(frozen=True)
class HTAPConfig:
    """Mixed OLTP/OLAP parameters."""

    num_tuples: int = 2000
    #: Fraction of transactions that are analytical scans.
    scan_fraction: float = 0.05
    update_fraction: float = 0.45
    seed: int = 53

    def __post_init__(self) -> None:
        if not 0.0 <= self.scan_fraction <= 1.0:
            raise WorkloadError("scan_fraction must be in [0, 1]")
        if self.update_fraction + self.scan_fraction > 1.0:
            raise WorkloadError("fractions exceed 1.0")


class HTAPWorkload:
    """OLTP point operations + analytical range aggregates."""

    TABLE = YCSBWorkload.TABLE

    def __init__(self, config: HTAPConfig) -> None:
        self.config = config
        self._ycsb = YCSBWorkload(YCSBConfig(
            num_tuples=config.num_tuples, mixture="balanced",
            skew="low", seed=config.seed))
        self._rng = derive_rng(config.seed, "htap", "ops")

    def load(self, db: Database) -> int:
        return self._ycsb.load(db)

    def operations(self, count: int) -> Iterator[Tuple[str, int]]:
        """Yield (kind, key) where kind is read/update/scan."""
        config = self.config
        for __ in range(count):
            roll = self._rng.random()
            key = self._rng.randrange(config.num_tuples)
            if roll < config.scan_fraction:
                yield "scan", key
            elif roll < config.scan_fraction + config.update_fraction:
                yield "update", key
            else:
                yield "read", key

    def run(self, db: Database, num_txns: int) -> Dict[str, int]:
        """Execute the mixed workload; returns per-kind counts."""
        counts = {"read": 0, "update": 0, "scan": 0}
        span = max(1, int(self.config.num_tuples * SCAN_COVERAGE))
        for kind, key in self.operations(num_txns):
            if kind == "read":
                db.execute(_read_txn, self.TABLE, key, partition=0)
            elif kind == "update":
                field = f"field{self._rng.randrange(NUM_VALUE_COLUMNS)}"
                db.execute(_update_txn, self.TABLE, key, field,
                           "h" * 100, partition=0)
            else:
                lo = min(key, self.config.num_tuples - span)
                db.execute(_scan_txn, self.TABLE, lo, lo + span,
                           partition=0)
            counts[kind] += 1
        db.flush()
        return counts


def _read_txn(ctx, table: str, key: int):
    return ctx.get(table, key)


def _update_txn(ctx, table: str, key: int, field: str,
                value: str) -> None:
    ctx.update(table, key, {field: value})


def _scan_txn(ctx, table: str, lo: int, hi: int) -> int:
    """Analytical query: aggregate total payload length over a range."""
    total = 0
    for __, values in ctx.scan(table, lo=lo, hi=hi):
        total += len(values["field0"])
    return total

"""`repro check` — persistence-ordering smoke check per engine.

Runs a small YCSB workload (load + mixed read/update transactions +
a delete tail exercising slot reclamation) against each requested
engine with an :class:`~repro.analysis.ordering.OrderingChecker`
attached to every partition, then reports ordering violations,
redundant-flush lints, and NVM allocation leaks as JSON or text.

Exit codes: 0 = clean, 1 = ordering violations found, 2 = bad usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..config import EngineConfig, LatencyProfile, PlatformConfig
from ..core.database import Database
from ..engines.base import ENGINE_NAMES, engine_names
from ..workloads.ycsb import YCSBConfig, YCSBWorkload
from .ordering import OrderingChecker, OrderingReport

__all__ = ["CheckOutcome", "attach_checkers", "check_engine",
           "run_check", "engine_requires_persisted_allocations"]

#: Engines checked by default: the paper's six architectures.
DEFAULT_ENGINES = list(ENGINE_NAMES.ALL)


def engine_requires_persisted_allocations(engine: Any) -> bool:
    """True when every live allocation of ``engine`` must be persisted
    (the ORD006 leak check applies): NVM-aware engines whose allocator
    memory is their durable state. The hybrid engine keeps volatile
    DRAM-rebuilt structures, and the traditional engines treat NVM
    allocations as a volatile heap (durability goes through files)."""
    return engine.is_nvm_aware and engine.persistent


def attach_checkers(db: Database, *,
                    trace_cap: int = 128) -> List[OrderingChecker]:
    """Attach one :class:`OrderingChecker` per partition platform."""
    checkers = []
    for partition in db.partitions:
        checker = OrderingChecker(
            partition.platform,
            engine=db.engine_name,
            require_persisted_allocations=
            engine_requires_persisted_allocations(partition.engine),
            trace_cap=trace_cap)
        checker.attach()
        checkers.append(checker)
    return checkers


@dataclass
class CheckOutcome:
    """Merged result of checking one engine."""

    engine: str
    reports: List[OrderingReport]

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def events(self) -> int:
        return sum(report.events for report in self.reports)

    @property
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for report in self.reports:
            for code, count in report.counts.items():
                merged[code] = merged.get(code, 0) + count
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "ok": self.ok,
            "events": self.events,
            "counts": self.counts,
            "partitions": [report.to_dict() for report in self.reports],
        }


def check_engine(engine: str, *,
                 num_tuples: int = 200,
                 num_txns: int = 400,
                 deletes: int = 20,
                 mixture: str = "balanced",
                 skew: str = "low",
                 latency: Optional[LatencyProfile] = None,
                 seed: int = 31) -> CheckOutcome:
    """Run the YCSB ordering smoke for one engine."""
    platform_config = PlatformConfig.for_engine(engine, seed=seed)
    db = Database(engine=engine, platform_config=platform_config,
                  latency=latency, engine_config=EngineConfig(),
                  seed=seed)
    checkers = attach_checkers(db)
    workload = YCSBWorkload(YCSBConfig(
        num_tuples=num_tuples, mixture=mixture, skew=skew, seed=seed))
    workload.load(db)
    workload.run(db, num_txns)
    # A delete tail exercises slot/varlen reclamation, whose state
    # bytes also carry durability obligations.
    for key in range(max(num_tuples - deletes, 0), num_tuples):
        db.delete(YCSBWorkload.TABLE, key)
    db.flush()
    reports = [checker.finalize() for checker in checkers]
    for checker in checkers:
        checker.detach()
    db.close()
    return CheckOutcome(engine=engine, reports=reports)


def run_check(engines: List[str], **kwargs: Any) -> List[CheckOutcome]:
    """Check several engines; unknown names raise ``ValueError``."""
    known = engine_names()
    unknown = [name for name in engines if name not in known]
    if unknown:
        raise ValueError(
            f"unknown engines: {', '.join(unknown)}; "
            f"choose from {', '.join(known)}")
    return [check_engine(engine, **kwargs) for engine in engines]

"""Deterministic fault injection: named crash points in durability code.

Every module that participates in a durability protocol registers its
crash-able program points in a global catalog
(:func:`register_fault_point`) and calls
``injector.fire("wal.append.before")`` at each of them. The injector is
disabled by default — ``fire`` is a single attribute check on the hot
path — and is armed with a :class:`FaultPlan`: an ordered list of
``(point, hit)`` triggers. When the *hit*-th matching hit of the current
trigger arrives, the injector raises
:class:`~repro.errors.SimulatedCrash`, which
:class:`~repro.core.database.Database` converts into a full platform
crash (CPU-cache eviction lottery + filesystem pending-write rollback).
Plans with multiple triggers model nested crashes: the second trigger
becomes current only after the first has fired, so
``[("wal.append.before", 3), ("recovery.begin", 1)]`` crashes the third
WAL append and then crashes again at the start of the recovery that
follows.

While armed (even with an empty plan) the injector also *counts* every
hit per point — the campaign driver uses a counting run to enumerate the
``(point, hit)`` crash coordinates it will then explore systematically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError, SimulatedCrash

__all__ = ["FaultPoint", "FaultPlan", "FaultInjector",
           "register_fault_point", "fault_point_catalog",
           "fault_points_for_engine"]


@dataclass(frozen=True)
class FaultPointSpec:
    """Catalog entry: a registered fault point and where it applies."""

    name: str
    description: str
    #: Engine names the point can fire for; ``None`` means every engine
    #: (generic recovery points).
    engines: Optional[Tuple[str, ...]] = None


_CATALOG: Dict[str, FaultPointSpec] = {}


def register_fault_point(name: str, description: str,
                         engines: Optional[Sequence[str]] = None) -> str:
    """Register a fault point in the global catalog (idempotent; called
    at import time by instrumented modules). Returns ``name`` so a
    module can bind it to a constant."""
    _CATALOG[name] = FaultPointSpec(
        name, description, tuple(engines) if engines else None)
    return name


def fault_point_catalog() -> Dict[str, FaultPointSpec]:
    """A copy of the registered fault-point catalog."""
    return dict(_CATALOG)


def fault_points_for_engine(engine: str) -> List[str]:
    """Sorted names of every fault point applicable to ``engine``."""
    return sorted(
        name for name, spec in _CATALOG.items()
        if spec.engines is None or engine in spec.engines)


# The generic recovery checkpoints are fired by every engine's
# ``recover()`` and are registered here (rather than per-engine) because
# they are cross-cutting: they are what makes crash-during-recovery and
# repeated-crash scenarios expressible as ordinary plan triggers.
register_fault_point(
    "recovery.begin", "recovery procedure entered (any engine)")
register_fault_point(
    "recovery.end", "recovery procedure about to return (any engine)")
register_fault_point(
    "recovery.checkpoint_loaded",
    "InP recovery: checkpoint snapshot loaded, WAL not yet replayed",
    engines=("inp", "hybrid-inp"))
register_fault_point(
    "recovery.wal_replayed",
    "redo recovery: committed WAL entries replayed, before epilogue",
    engines=("inp", "hybrid-inp", "log"))
register_fault_point(
    "recovery.wal_undone",
    "undo recovery: in-flight NVM WAL transactions rolled back",
    engines=("nvm-inp", "nvm-log"))


@dataclass(frozen=True)
class FaultPoint:
    """One plan trigger: crash at the ``hit``-th matching hit of
    ``point`` (counted while the trigger is current)."""

    point: str
    hit: int = 1

    def __post_init__(self) -> None:
        if self.hit < 1:
            raise ConfigError(f"fault trigger hit must be >= 1, "
                              f"got {self.hit} for {self.point!r}")


TriggerLike = Union[FaultPoint, Tuple[str, int], str]


class FaultPlan:
    """An ordered sequence of :class:`FaultPoint` triggers, consumed
    front to back. Accepts ``FaultPoint`` instances, ``(point, hit)``
    tuples, or ``"point"`` / ``"point:hit"`` strings."""

    def __init__(self, triggers: Iterable[TriggerLike] = ()) -> None:
        normalized: List[FaultPoint] = []
        for trigger in triggers:
            if isinstance(trigger, FaultPoint):
                normalized.append(trigger)
            elif isinstance(trigger, str):
                point, _, hit = trigger.partition(":")
                normalized.append(FaultPoint(point, int(hit or 1)))
            else:
                point, hit = trigger
                normalized.append(FaultPoint(point, int(hit)))
        self.triggers: Tuple[FaultPoint, ...] = tuple(normalized)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``"point:hit,point:hit"`` (hit defaults to 1)."""
        parts = [part.strip() for part in text.split(",") if part.strip()]
        return cls(parts)

    def __bool__(self) -> bool:
        return bool(self.triggers)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t.point}:{t.hit}" for t in self.triggers)
        return f"FaultPlan([{inner}])"


class FaultInjector:
    """Per-platform fault-point switchboard.

    Disabled by default; :meth:`arm` enables hit counting and installs an
    optional :class:`FaultPlan`. ``stats``/``tracer`` are the owning
    platform's collectors — a triggered crash bumps ``fault.crashes``
    and emits a ``fault.crash`` trace event so campaigns show up in the
    observability layer.
    """

    def __init__(self, stats=None, tracer=None) -> None:
        self.enabled = False
        #: Persistence-ordering observer: receives every fault-point
        #: hit (armed or not) so ordering traces carry crash-point
        #: markers. ``None`` costs one attribute check per fire.
        self.observer = None
        #: Hits per point since the last :meth:`arm`.
        self.hits: Dict[str, int] = {}
        #: Triggers that have fired, in order.
        self.fired: List[FaultPoint] = []
        self._stats = stats
        self._tracer = tracer
        self._triggers: Tuple[FaultPoint, ...] = ()
        self._cursor = 0
        self._progress = 0

    def arm(self, plan: Optional[FaultPlan] = None) -> None:
        """Enable the injector: count hits and (when ``plan`` is
        non-empty) crash at each trigger in order. Unknown point names
        raise :class:`~repro.errors.ConfigError` up front."""
        triggers = plan.triggers if plan is not None else ()
        for trigger in triggers:
            if trigger.point not in _CATALOG:
                known = ", ".join(sorted(_CATALOG))
                raise ConfigError(
                    f"unknown fault point {trigger.point!r}; "
                    f"registered points: {known}")
        self._triggers = tuple(triggers)
        self._cursor = 0
        self._progress = 0
        self.hits = {}
        self.fired = []
        self.enabled = True

    def disarm(self) -> None:
        """Disable the injector; counters keep their last values."""
        self.enabled = False

    @property
    def pending_triggers(self) -> Tuple[FaultPoint, ...]:
        """Triggers that have not fired yet."""
        return self._triggers[self._cursor:]

    def fire(self, point: str) -> None:
        """Hot-path hook: a no-op while disabled. While armed, count the
        hit and raise :class:`~repro.errors.SimulatedCrash` if it
        completes the current trigger."""
        if self.observer is not None:
            self.observer.on_fault_point(point)
        if not self.enabled:
            return
        self.hits[point] = self.hits.get(point, 0) + 1
        if self._cursor >= len(self._triggers):
            return
        trigger = self._triggers[self._cursor]
        if point != trigger.point:
            return
        self._progress += 1
        if self._progress < trigger.hit:
            return
        self._cursor += 1
        self._progress = 0
        self.fired.append(trigger)
        if self._stats is not None:
            self._stats.bump("fault.crashes")
        if self._tracer is not None:
            self._tracer.event("fault.crash", point=point,
                               hit=trigger.hit)
        raise SimulatedCrash(
            f"simulated power failure at fault point {point!r} "
            f"(hit {trigger.hit})", point=point, hit=trigger.hit)

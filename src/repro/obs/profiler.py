"""Phase profiler: wall-vs-simulated time attribution per run phase.

The paper's end-of-run wall clock cannot say *where* a slow experiment
spent its host time — loading, executing transactions, checkpointing,
or recovering. The profiler wraps each phase of a run
(``setup / load / run / checkpoint / recovery / teardown``) in a
context manager that charges **host wall seconds** (``perf_counter``)
and, when a database is in scope, **simulated nanoseconds** (the
``now_ns`` delta) to the current phase *stack*, so nested phases
(a recovery retried inside a campaign's run loop) attribute correctly.

Outputs:

* :meth:`PhaseProfiler.to_dict` — a ``repro-phase-profile`` payload:
  per-stack wall/sim/count plus total wall time and the attribution
  *coverage* (top-level attributed wall over total — the share of the
  run's host time the profile explains).
* :func:`write_collapsed` — collapsed-stack lines
  (``run;recovery 1234``, self wall time in integer microseconds),
  directly consumable by ``flamegraph.pl`` / speedscope / inferno.
* :func:`merge_profiles` — fold per-point profiles of a sweep into one
  aggregate (the ``--phases`` CLI artifact).

Phase transitions are also published to a telemetry publisher when one
is attached (``phase_enter`` / ``phase_exit`` events on the bus), so a
live observer sees *which phase* a long-running point is in.

A run point (:func:`repro.harness.runner.run`,
:meth:`repro.fault.campaign.CampaignSpec.execute`) is wired through
three methods: :meth:`PhaseProfiler.for_run` opens the profile,
:meth:`PhaseProfiler.heartbeats` streams progress while the database
works, and :meth:`PhaseProfiler.finish` attaches the profile to the
result.
"""

from __future__ import annotations

import contextlib
import time
from typing import (Any, Callable, ContextManager, Dict, Iterable,
                    Iterator, List, Optional, Tuple)

from . import bus as _bus

__all__ = ["PHASES", "PhaseProfiler", "merge_profiles",
           "collapsed_lines", "write_collapsed", "PROFILE_KIND"]

#: Canonical experiment phases, in lifecycle order (used for sorting
#: the phase table; arbitrary phase names are allowed).
PHASES = ("setup", "load", "run", "checkpoint", "recovery", "verify",
          "teardown")

PROFILE_KIND = "repro-phase-profile"

_STACK_SEP = ";"


class PhaseProfiler:
    """Accumulates wall/sim time per nested phase stack."""

    def __init__(self, publisher=None, enabled: bool = True,
                 wall=time.perf_counter) -> None:
        self.enabled = enabled
        self._publisher = publisher
        self._wall = wall
        self._stack: List[str] = []
        #: stack tuple -> {"wall_s", "sim_ns", "count"} in first-entry
        #: order (dict preserves insertion order).
        self._records: Dict[Tuple[str, ...], Dict[str, float]] = {}
        self._t0: Optional[float] = None
        self._total_wall_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def for_run(cls, telemetry: Optional[_bus.Publisher]
                ) -> "PhaseProfiler":
        """The profiler of one run point, its window already open. It
        records — and publishes phase transitions — only with
        ``telemetry``: a profile is wall-clock side-band data, so
        default runs stay byte-identical between serial and parallel
        sweeps."""
        profiler = cls(publisher=telemetry,
                       enabled=telemetry is not None)
        profiler.start()
        return profiler

    def heartbeats(self, db,
                   extra: Optional[Callable[[], Dict[str, Any]]] = None
                   ) -> ContextManager[object]:
        """Stream rate-limited per-commit heartbeats from ``db`` while
        the block runs. Only with telemetry, and only on in-process
        partitions: the probe hooks partition objects directly, which
        executor processes do not expose — a sharded run's progress
        streams through its phase events instead."""
        if self._publisher is None or getattr(db, "is_sharded", False):
            return contextlib.nullcontext()
        return _bus.HeartbeatEmitter(self._publisher, db, extra)

    def finish(self, result) -> None:
        """Close the window and, when recording, attach the profile as
        ``result.phases``."""
        self.stop()
        if self.enabled:
            result.phases = self.to_dict()

    def start(self) -> None:
        """Open the total-wall measurement window (idempotent)."""
        if self.enabled and self._t0 is None:
            self._t0 = self._wall()

    def stop(self) -> None:
        """Close the window; total wall time accumulates across
        start/stop pairs."""
        if self._t0 is not None:
            self._total_wall_s += self._wall() - self._t0
            self._t0 = None

    @property
    def total_wall_s(self) -> float:
        total = self._total_wall_s
        if self._t0 is not None:
            total += self._wall() - self._t0
        return total

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str, db=None) -> Iterator[None]:
        """Charge the enclosed block to ``name`` (nested under the
        current stack); pass ``db`` to also attribute simulated time."""
        if not self.enabled:
            yield
            return
        wall0 = self._wall()
        sim0 = db.now_ns if db is not None else None
        self.start()
        self._stack.append(name)
        key = tuple(self._stack)
        if self._publisher is not None:
            self._publisher.publish(
                _bus.PHASE_ENTER, phase=name, stack=_STACK_SEP.join(key))
        try:
            yield
        finally:
            wall_s = self._wall() - wall0
            sim_ns = (db.now_ns - sim0) if db is not None else 0.0
            record = self._records.setdefault(
                key, {"wall_s": 0.0, "sim_ns": 0.0, "count": 0})
            record["wall_s"] += wall_s
            record["sim_ns"] += sim_ns
            record["count"] += 1
            self._stack.pop()
            if self._publisher is not None:
                self._publisher.publish(
                    _bus.PHASE_EXIT, phase=name,
                    stack=_STACK_SEP.join(key),
                    wall_s=wall_s, sim_ns=sim_ns)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``repro-phase-profile`` payload."""
        phases = [{
            "stack": _STACK_SEP.join(key),
            "phase": key[-1],
            "depth": len(key) - 1,
            "wall_s": record["wall_s"],
            "sim_ns": record["sim_ns"],
            "count": int(record["count"]),
        } for key, record in self._records.items()]
        return _finalize_profile(phases, self.total_wall_s)


def _finalize_profile(phases: List[Dict[str, Any]],
                      total_wall_s: float) -> Dict[str, Any]:
    attributed = sum(entry["wall_s"] for entry in phases
                     if entry["depth"] == 0)
    coverage = attributed / total_wall_s if total_wall_s > 0 else None
    return {
        "kind": PROFILE_KIND,
        "total_wall_s": total_wall_s,
        "attributed_wall_s": attributed,
        "coverage": coverage,
        "phases": phases,
    }


def merge_profiles(profiles: Iterable[Optional[Dict[str, Any]]]
                   ) -> Dict[str, Any]:
    """Fold per-point profiles into one aggregate (``None`` entries —
    unprofiled points — are skipped)."""
    merged: Dict[str, Dict[str, Any]] = {}
    total_wall_s = 0.0
    for profile in profiles:
        if not profile:
            continue
        total_wall_s += profile.get("total_wall_s", 0.0)
        for entry in profile.get("phases", []):
            stack = entry["stack"]
            slot = merged.get(stack)
            if slot is None:
                merged[stack] = dict(entry)
            else:
                slot["wall_s"] += entry["wall_s"]
                slot["sim_ns"] += entry["sim_ns"]
                slot["count"] += entry["count"]
    return _finalize_profile(list(merged.values()), total_wall_s)


def _self_wall(profile: Dict[str, Any]) -> Dict[str, float]:
    """Exclusive wall seconds per stack: inclusive minus the children's
    inclusive time (the value a flamegraph frame should carry)."""
    inclusive = {entry["stack"]: entry["wall_s"]
                 for entry in profile.get("phases", [])}
    exclusive = dict(inclusive)
    for stack, wall_s in inclusive.items():
        parent = stack.rsplit(_STACK_SEP, 1)[0]
        if parent != stack and parent in exclusive:
            exclusive[parent] -= wall_s
    return exclusive


def collapsed_lines(profile: Dict[str, Any]) -> List[str]:
    """Collapsed-stack lines (``a;b <self-microseconds>``), skipping
    frames whose exclusive time rounds to zero."""
    lines = []
    for stack, wall_s in sorted(_self_wall(profile).items()):
        micros = int(round(wall_s * 1e6))
        if micros > 0:
            lines.append(f"{stack} {micros}")
    return lines


def write_collapsed(profile: Dict[str, Any], path: str) -> int:
    """Write the collapsed-stack file; returns the line count."""
    lines = collapsed_lines(profile)
    with open(path, "w", encoding="utf-8") as stream:
        for line in lines:
            stream.write(line + "\n")
    return len(lines)

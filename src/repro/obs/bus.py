"""Cross-process telemetry event bus for sweeps and campaigns.

A multi-hour sweep used to be opaque: process-per-point workers ran to
completion and the coordinator learned everything at the end. This
module gives every run a structured event stream instead, along one
path — publisher, bus, sinks:

* **Publishers** build typed events — phase transitions, periodic
  progress heartbeats with transaction counts and the sim-clock
  position — and hand each to a ``send`` callable. In process that is
  :meth:`EventBus.publish`; in a scheduler worker it is a
  :class:`PipeSend` over the *existing* result pipe (no extra file
  descriptors, no sockets).
* **The coordinator** owns an :class:`EventBus`. Point lifecycle events
  (started / finished / retried / crashed) are published by the
  scheduler itself; worker events are re-published as they arrive.
* **Sinks** see every event, synchronously, in publish order: the
  :class:`JsonlEventLog` persists the full stream and the live
  renderer (:mod:`repro.obs.live`) redraws from it.

Events are plain data (a kind, a source, a wall timestamp, a payload
dict), so they cross the process boundary as dicts and land in JSONL
logs unchanged. Ordering: the bus assigns a monotonically increasing
``seq`` at publish time.

This is the observation substrate the network tier and the sharded
executor publish into — anything that can call
``publisher.publish(kind, **data)`` becomes observable.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "TelemetryEvent", "EventBus", "JsonlEventLog",
    "Publisher", "PipeSend", "HeartbeatEmitter", "DEFAULT_HEARTBEAT_S",
]

# Event kinds (the wire vocabulary; free-form kinds are allowed, these
# are the ones the scheduler/campaign/runner emit and the live renderer
# understands).
SWEEP_STARTED = "sweep_started"
SWEEP_FINISHED = "sweep_finished"
POINT_STARTED = "point_started"
POINT_FINISHED = "point_finished"
POINT_RETRIED = "point_retried"
POINT_CRASHED = "point_crashed"
PHASE_ENTER = "phase_enter"
PHASE_EXIT = "phase_exit"
HEARTBEAT = "heartbeat"
CAMPAIGN_STARTED = "campaign_started"
CAMPAIGN_COUNTED = "campaign_counted"
LOG_CLOSED = "log_closed"
CHAOS_STARTED = "chaos_started"
CHAOS_CRASH = "chaos_crash"
CHAOS_RECOVER = "chaos_recover"
CHAOS_FINISHED = "chaos_finished"

#: Minimum wall seconds between heartbeats from one publisher.
DEFAULT_HEARTBEAT_S = 0.25


@dataclass
class TelemetryEvent:
    """One telemetry event: a kind, a source, a timestamp, a payload."""

    kind: str
    #: Emitting entity: ``"sweep"``, a point's ``NNNN-<slug>`` name, ...
    source: str = ""
    #: Free-form JSON-ready payload (txn counts, sim clock, errors...).
    data: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock epoch seconds at emission (stamped by the publisher;
    #: the bus fills it in if the emitter left it zero).
    wall_s: float = 0.0
    #: Global publish order, assigned by the coordinator bus.
    seq: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "source": self.source,
                "seq": self.seq, "wall_s": self.wall_s,
                "data": self.data}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetryEvent":
        return cls(kind=payload.get("kind", "?"),
                   source=payload.get("source", ""),
                   data=dict(payload.get("data") or {}),
                   wall_s=float(payload.get("wall_s", 0.0)),
                   seq=int(payload.get("seq", -1)))


class EventBus:
    """Coordinator-side aggregator: assigns order, fans events out.

    ``publish`` stamps each event with a global sequence number and
    hands it to every sink, so each sink sees the complete stream (a
    JSONL log must not have holes).
    """

    def __init__(self) -> None:
        self._sinks: List[Callable[[TelemetryEvent], None]] = []
        #: Events published so far (the next event's ``seq``).
        self.published = 0

    def add_sink(self, sink: Callable[[TelemetryEvent], None]) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[TelemetryEvent], None]
                    ) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def publish(self, event, source: str = "",
                **data: Any) -> TelemetryEvent:
        """Publish an event (or build one from ``kind`` + ``data``);
        returns the stamped event."""
        if not isinstance(event, TelemetryEvent):
            event = TelemetryEvent(kind=str(event), source=source,
                                   data=data)
        if event.wall_s == 0.0:
            event.wall_s = time.time()
        event.seq = self.published
        self.published += 1
        for sink in self._sinks:
            sink(event)
        return event


class JsonlEventLog:
    """Bus sink persisting every event as one JSON line.

    Lines are flushed as written so ``tail -f`` follows a running
    sweep. ``close()`` appends a final ``log_closed`` event carrying
    the bus's ``published`` count and the log's own ``lines``, so a
    reader can tell a complete log from a truncated one.
    """

    def __init__(self, path: str, bus: EventBus) -> None:
        self.path = path
        self.lines = 0
        self._bus = bus
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._stream = open(path, "w", encoding="utf-8")
        bus.add_sink(self)

    def __call__(self, event: TelemetryEvent) -> None:
        self._stream.write(json.dumps(event.to_dict(), sort_keys=True))
        self._stream.write("\n")
        self._stream.flush()
        self.lines += 1

    def close(self) -> None:
        if self._stream.closed:
            return
        self._bus.remove_sink(self)
        self(TelemetryEvent(kind=LOG_CLOSED, source="log",
                            data={"published": self._bus.published,
                                  "lines": self.lines},
                            wall_s=time.time(), seq=self._bus.published))
        self._stream.close()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Publishers (the worker/run side)
# ----------------------------------------------------------------------

class Publisher:
    """Event construction + heartbeat rate limiting over one ``send``.

    ``send`` moves a built event somewhere: :meth:`EventBus.publish` in
    process, a :class:`PipeSend` in a scheduler worker.
    ``heartbeat()`` is rate-limited to one per ``heartbeat_s`` wall
    seconds, and :meth:`heartbeat_due` makes the *pre-collection* gate
    cheap: callers skip gathering counter snapshots entirely between
    beats.
    """

    def __init__(self, send: Callable[[TelemetryEvent], Any],
                 source: str = "",
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        self._send = send
        self.source = source
        self.heartbeat_s = heartbeat_s
        self._last_heartbeat = float("-inf")

    def publish(self, kind: str, **data: Any) -> TelemetryEvent:
        event = TelemetryEvent(kind=kind, source=self.source,
                               data=data, wall_s=time.time())
        self._send(event)
        return event

    def heartbeat_due(self) -> bool:
        return (time.monotonic() - self._last_heartbeat
                >= self.heartbeat_s)

    def heartbeat(self, **data: Any) -> bool:
        """Publish a heartbeat unless one went out too recently;
        returns whether it was sent."""
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_s:
            return False
        self._last_heartbeat = now
        self.publish(HEARTBEAT, **data)
        return True


class PipeSend:
    """A worker's ``send``: events travel the scheduler's result pipe
    as :data:`~repro.harness.ipc.TAG_EVENT` messages, interleaved ahead
    of the final :data:`~repro.harness.ipc.TAG_DONE`. Sends are
    lock-serialized (heartbeats may fire from instrumentation hooks)
    and a dead pipe — the coordinator gave up on this point — degrades
    to counting ``failures``, never raising into the workload."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self.failures = 0

    def __call__(self, event: TelemetryEvent) -> None:
        from ..harness import ipc
        with self._lock:
            if not ipc.send_event(self._conn, event.to_dict()):
                self.failures += 1


class HeartbeatEmitter:
    """Per-commit probe turning a running database into heartbeats.

    Installed as ``platform.txn_probe`` on every partition for the
    duration of a ``with`` block (the same pattern as the session's
    latency histogram: one attribute check per transaction when
    telemetry is off). Each call is gated by the
    publisher's heartbeat window before any counters are gathered, so
    steady-state cost is a clock read and a comparison.

    Heartbeat payload: committed/aborted transaction counts, the
    sim-clock position, and the NVM load/store counters — plus whatever
    the optional ``extra`` callable contributes (campaigns add
    crash/recovery counters).
    """

    def __init__(self, publisher: Publisher, db,
                 extra: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self._publisher = publisher
        self._db = db
        self._extra = extra

    def install(self) -> None:
        for partition in self._db.partitions:
            partition.platform.txn_probe = self

    def uninstall(self) -> None:
        for partition in self._db.partitions:
            if partition.platform.txn_probe is self:
                partition.platform.txn_probe = None

    def __enter__(self) -> "HeartbeatEmitter":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def __call__(self) -> None:
        if not self._publisher.heartbeat_due():
            return
        self.emit()

    def emit(self) -> bool:
        """Collect a snapshot and offer it to the publisher (still
        subject to the rate limit); returns whether it went out."""
        db = self._db
        counters = db.nvm_counters()
        data: Dict[str, Any] = {
            "engine": getattr(db, "engine_name", ""),
            "txns": db.committed_txns,
            "aborted": db.aborted_txns,
            "sim_ns": db.now_ns,
            "nvm_loads": counters["loads"],
            "nvm_stores": counters["stores"],
        }
        if self._extra is not None:
            data.update(self._extra())
        return self._publisher.heartbeat(**data)

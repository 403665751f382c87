"""Event bus: ordering, the event log, publishers, heartbeats."""

import json
import multiprocessing

from repro.obs import bus as bus_mod
from repro.obs.bus import (EventBus, HeartbeatEmitter, JsonlEventLog,
                           PipeSend, Publisher, TelemetryEvent)


def _event(kind="heartbeat", source="p0", **data):
    return TelemetryEvent(kind=kind, source=source, data=data)


# ----------------------------------------------------------------------
# TelemetryEvent round-trip
# ----------------------------------------------------------------------

def test_event_round_trips_through_dict():
    event = _event("point_started", "0001-slug", attempt=2)
    event.seq = 17
    event.wall_s = 123.5
    clone = TelemetryEvent.from_dict(event.to_dict())
    assert clone.kind == "point_started"
    assert clone.source == "0001-slug"
    assert clone.data == {"attempt": 2}
    assert clone.seq == 17
    assert clone.wall_s == 123.5


# ----------------------------------------------------------------------
# Bus ordering
# ----------------------------------------------------------------------

def test_bus_assigns_monotonic_seq_in_publish_order():
    bus = EventBus()
    seen = []
    bus.add_sink(lambda e: seen.append(e))
    for index in range(5):
        bus.publish("point_started", source=f"p{index}", index=index)
    assert [e.seq for e in seen] == [0, 1, 2, 3, 4]
    assert [e.data["index"] for e in seen] == [0, 1, 2, 3, 4]


def test_bus_stamps_wall_clock_when_unset():
    bus = EventBus()
    event = bus.publish("sweep_started", source="sweep")
    assert event.wall_s > 0


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------

def test_event_log_persists_stream_and_closing_accounting(tmp_path):
    path = str(tmp_path / "events.jsonl")
    bus = EventBus()
    with JsonlEventLog(path, bus):
        bus.publish("sweep_started", source="sweep", points=2)
        bus.publish("heartbeat", source="p0", txns=10)
        bus.publish("sweep_finished", source="sweep", failed=0)
    records = [json.loads(line) for line in open(path)]
    assert [r["kind"] for r in records] == [
        "sweep_started", "heartbeat", "sweep_finished", "log_closed"]
    assert [r["seq"] for r in records[:3]] == [0, 1, 2]
    closing = records[-1]["data"]
    assert closing == {"published": 3, "lines": 3}


def test_event_log_close_is_idempotent(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = JsonlEventLog(path, EventBus())
    log.close()
    log.close()


# ----------------------------------------------------------------------
# Publishers
# ----------------------------------------------------------------------

def test_bus_publisher_rate_limits_heartbeats():
    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    publisher = Publisher(bus.publish, source="p0", heartbeat_s=3600.0)
    assert publisher.heartbeat(txns=1) is True
    assert publisher.heartbeat(txns=2) is False  # window not elapsed
    assert publisher.publish("phase_enter", phase="run")  # not limited
    kinds = [e.kind for e in events]
    assert kinds == ["heartbeat", "phase_enter"]


def test_zero_interval_heartbeats_all_pass():
    bus = EventBus()
    publisher = Publisher(bus.publish, source="p0", heartbeat_s=0.0)
    assert publisher.heartbeat(txns=1)
    assert publisher.heartbeat(txns=2)
    assert bus.published == 2


def test_pipe_publisher_sends_tagged_events():
    parent, child = multiprocessing.Pipe(duplex=False)
    publisher = Publisher(PipeSend(child), source="0001-x",
                          heartbeat_s=0.0)
    publisher.publish("phase_enter", phase="load")
    tag, payload = parent.recv()
    assert tag == "event"
    event = TelemetryEvent.from_dict(payload)
    assert event.kind == "phase_enter"
    assert event.source == "0001-x"
    assert event.data == {"phase": "load"}
    parent.close()
    child.close()


def test_pipe_publisher_survives_dead_pipe():
    parent, child = multiprocessing.Pipe(duplex=False)
    send = PipeSend(child)
    publisher = Publisher(send, source="p0", heartbeat_s=0.0)
    parent.close()
    child.close()
    publisher.publish("heartbeat", txns=1)  # must not raise
    assert send.failures == 1


# ----------------------------------------------------------------------
# Heartbeat emitter (per-commit probe)
# ----------------------------------------------------------------------

class _FakeDb:
    engine_name = "inp"
    committed_txns = 42
    aborted_txns = 1
    now_ns = 5e9

    def __init__(self):
        self.partitions = [self]
        self.platform = self

        class _P:
            txn_probe = None
        self.platform = _P()

    def nvm_counters(self):
        return {"loads": 10, "stores": 20}


def test_heartbeat_emitter_payload_and_install_cycle():
    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    publisher = Publisher(bus.publish, source="p0", heartbeat_s=0.0)
    db = _FakeDb()
    emitter = HeartbeatEmitter(
        publisher, db, extra=lambda: {"crashes": 3})
    emitter.install()
    assert db.partitions[0].platform.txn_probe is emitter
    emitter()  # what the partition executor calls per commit
    emitter.uninstall()
    assert db.partitions[0].platform.txn_probe is None
    (event,) = events
    assert event.kind == bus_mod.HEARTBEAT
    assert event.data == {
        "engine": "inp", "txns": 42, "aborted": 1, "sim_ns": 5e9,
        "nvm_loads": 10, "nvm_stores": 20, "crashes": 3}


def test_heartbeat_emitter_skips_collection_when_not_due():
    bus = EventBus()
    publisher = Publisher(bus.publish, source="p0", heartbeat_s=3600.0)
    db = _FakeDb()
    emitter = HeartbeatEmitter(publisher, db)
    emitter()
    emitter()
    assert bus.published == 1

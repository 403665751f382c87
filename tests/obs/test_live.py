"""Live renderer: model updates, TTY vs plain output."""

import io

from repro.obs.bus import EventBus
from repro.obs.live import LiveRenderer


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Tty(io.StringIO):
    def isatty(self):
        return True


def _renderer(bus, stream, live=None, clock=None):
    return LiveRenderer(bus, stream=stream, live=live,
                        min_refresh_s=0.0,
                        clock=clock or _Clock())


def test_auto_detects_non_tty_stream():
    renderer = LiveRenderer(EventBus(), stream=io.StringIO())
    assert renderer.tty is False


def test_model_tracks_point_lifecycle():
    bus = EventBus()
    renderer = _renderer(bus, io.StringIO())
    bus.publish("sweep_started", source="sweep", points=4, jobs=2)
    bus.publish("point_finished", source="0000-a", index=0, ok=True,
                engine="inp", throughput=1000.0)
    bus.publish("point_retried", source="0001-b", index=1, attempt=1,
                error="boom")
    bus.publish("point_crashed", source="0001-b", index=1, exitcode=-9)
    bus.publish("point_finished", source="0001-b", index=1, ok=False,
                error="boom", engine="cow")
    assert renderer.total == 4
    assert renderer.finished == 2
    assert renderer.failed == 1
    assert renderer.retries == 1
    assert renderer.worker_crashes == 1


def test_heartbeats_update_engine_rates_and_sim_crashes():
    bus = EventBus()
    renderer = _renderer(bus, io.StringIO())
    bus.publish("heartbeat", source="0000-a", engine="inp",
                txns=500, sim_ns=1e9, crashes=3)
    assert renderer._engine_rate["inp"] == 500.0
    assert renderer.sim_crashes == 3
    line = renderer._status_line()
    assert "inp 500 txn/s" in line
    assert "3 crashes" in line


def test_tty_mode_redraws_one_line_in_place():
    bus = EventBus()
    stream = _Tty()
    renderer = _renderer(bus, stream)
    assert renderer.tty is True
    bus.publish("point_finished", source="0000-a", index=0, ok=True)
    output = stream.getvalue()
    assert output.startswith("\r[live] ")
    assert "\n" not in output


def test_plain_mode_logs_lifecycle_lines():
    bus = EventBus()
    stream = io.StringIO()
    renderer = _renderer(bus, stream)
    bus.publish("sweep_started", source="sweep", points=2)
    bus.publish("point_finished", source="0000-a", index=0, ok=True,
                host_seconds=1.25, throughput=5000.0)
    bus.publish("point_retried", source="0001-b", index=1, attempt=2,
                error="ValueError: nope")
    bus.publish("point_crashed", source="0001-b", index=1, exitcode=-9)
    renderer.close()
    output = stream.getvalue()
    assert "sweep_started: 2 points" in output
    assert "point 0 0000-a: ok 5.0k txn/s (1.25s)" in output
    assert "retrying (attempt 2): ValueError: nope" in output
    assert "worker crashed (exit code -9)" in output
    assert output.splitlines()[-1].startswith("[live] 1/2 points")
    renderer.close()  # idempotent
    assert stream.getvalue() == output


def test_plain_mode_coalesces_heartbeat_digest():
    bus = EventBus()
    stream = io.StringIO()
    clock = _Clock()
    renderer = LiveRenderer(bus, stream=stream, min_refresh_s=0.0,
                            plain_heartbeat_s=10.0, clock=clock)
    for index in range(5):
        bus.publish("heartbeat", source="0000-a", engine="inp",
                    txns=index * 100, sim_ns=1e9)
    digests = [line for line in stream.getvalue().splitlines()
               if line.startswith("[live]")]
    assert len(digests) == 1  # window keeps the rest quiet


def test_failed_points_render_error_headline():
    bus = EventBus()
    stream = io.StringIO()
    renderer = _renderer(bus, stream)
    bus.publish("point_finished", source="0000-a", index=0, ok=False,
                error="ValueError: no-such-engine")
    renderer.close()
    assert "FAILED: ValueError: no-such-engine" in stream.getvalue()

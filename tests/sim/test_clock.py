"""Unit tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


def test_clock_starts_at_zero():
    clock = SimClock()
    assert clock.now_ns == 0.0
    assert clock.now_seconds == 0.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(100)
    clock.advance(50.5)
    assert clock.now_ns == pytest.approx(150.5)


def test_advance_zero_is_noop():
    clock = SimClock()
    calls = []
    clock.subscribe(calls.append)
    clock.advance(0)
    assert clock.now_ns == 0.0
    assert calls == []


def test_negative_advance_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_listeners_see_every_charge():
    clock = SimClock()
    seen = []
    clock.subscribe(seen.append)
    clock.advance(10)
    clock.advance(20)
    assert seen == [10, 20]


def test_unsubscribe_stops_notifications():
    clock = SimClock()
    seen = []
    clock.subscribe(seen.append)
    clock.advance(5)
    clock.unsubscribe(seen.append)
    clock.advance(5)
    assert seen == [5]


def test_elapsed_since():
    clock = SimClock()
    clock.advance(100)
    mark = clock.now_ns
    clock.advance(42)
    assert clock.elapsed_since(mark) == pytest.approx(42)


def test_now_seconds_conversion():
    clock = SimClock()
    clock.advance(2.5e9)
    assert clock.now_seconds == pytest.approx(2.5)


def test_reset_keeps_listeners():
    clock = SimClock()
    seen = []
    clock.subscribe(seen.append)
    clock.advance(10)
    clock.reset()
    assert clock.now_ns == 0.0
    clock.advance(7)
    assert seen == [10, 7]


def test_notify_tells_listeners_without_charging():
    """The cache model posts a whole operation's batch into the clock
    itself and then reports the nanoseconds it covered."""
    clock = SimClock()
    seen = []
    clock.subscribe(seen.append)
    clock.notify(12.5)
    assert seen == [12.5]
    assert clock.now_ns == 0.0

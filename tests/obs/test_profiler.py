"""Phase profiler: attribution, nesting, merge, collapsed stacks."""

import pytest

from repro.obs.bus import EventBus
from repro.obs.profiler import (PROFILE_KIND, PhaseProfiler,
                                collapsed_lines, merge_profiles,
                                write_collapsed)


class _FakeClock:
    """Deterministic wall clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class _ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _FakeDb:
    def __init__(self):
        self.now_ns = 0.0


def test_disabled_profiler_records_nothing():
    profiler = PhaseProfiler(enabled=False)
    with profiler.phase("run"):
        pass
    profile = profiler.to_dict()
    assert profile["phases"] == []
    assert profile["total_wall_s"] == 0.0
    assert profile["coverage"] is None


def test_phases_attribute_wall_and_sim_time():
    clock = _ManualClock()
    profiler = PhaseProfiler(wall=clock)
    db = _FakeDb()
    profiler.start()
    with profiler.phase("load", db):
        clock.now = 2.0
        db.now_ns = 5e8
    with profiler.phase("run", db):
        clock.now = 10.0
        db.now_ns = 30e8
    profiler.stop()
    profile = profiler.to_dict()
    assert profile["kind"] == PROFILE_KIND
    by_stack = {entry["stack"]: entry for entry in profile["phases"]}
    assert by_stack["load"]["wall_s"] == 2.0
    assert by_stack["load"]["sim_ns"] == 5e8
    assert by_stack["run"]["wall_s"] == 8.0
    assert by_stack["run"]["sim_ns"] == 25e8
    assert profile["total_wall_s"] == 10.0
    assert profile["attributed_wall_s"] == 10.0
    assert profile["coverage"] == pytest.approx(1.0)


def test_nested_phases_stack_and_depth():
    clock = _ManualClock()
    profiler = PhaseProfiler(wall=clock)
    profiler.start()
    with profiler.phase("run"):
        clock.now = 1.0
        with profiler.phase("recovery"):
            clock.now = 4.0
        clock.now = 5.0
    profiler.stop()
    by_stack = {entry["stack"]: entry
                for entry in profiler.to_dict()["phases"]}
    assert by_stack["run"]["depth"] == 0
    assert by_stack["run"]["wall_s"] == 5.0
    assert by_stack["run;recovery"]["depth"] == 1
    assert by_stack["run;recovery"]["wall_s"] == 3.0
    # Coverage counts only depth-0 wall time (no double counting).
    assert profiler.to_dict()["attributed_wall_s"] == 5.0


def test_repeated_phase_accumulates_count():
    clock = _FakeClock(step=0.5)
    profiler = PhaseProfiler(wall=clock)
    for __ in range(3):
        with profiler.phase("recovery"):
            pass
    (entry,) = [e for e in profiler.to_dict()["phases"]
                if e["stack"] == "recovery"]
    assert entry["count"] == 3


def test_phase_events_published_to_bus():
    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    from repro.obs.bus import Publisher
    profiler = PhaseProfiler(
        publisher=Publisher(bus.publish, source="p0"))
    with profiler.phase("run"):
        with profiler.phase("recovery"):
            pass
    kinds = [(e.kind, e.data["stack"]) for e in events]
    assert kinds == [
        ("phase_enter", "run"),
        ("phase_enter", "run;recovery"),
        ("phase_exit", "run;recovery"),
        ("phase_exit", "run"),
    ]


def test_merge_profiles_sums_and_skips_none():
    clock_a = _ManualClock()
    a = PhaseProfiler(wall=clock_a)
    a.start()
    with a.phase("run"):
        clock_a.now = 2.0
    a.stop()
    clock_b = _ManualClock()
    b = PhaseProfiler(wall=clock_b)
    b.start()
    with b.phase("run"):
        clock_b.now = 3.0
    b.stop()
    merged = merge_profiles([a.to_dict(), None, b.to_dict()])
    (entry,) = merged["phases"]
    assert entry["stack"] == "run"
    assert entry["wall_s"] == 5.0
    assert entry["count"] == 2
    assert merged["total_wall_s"] == 5.0
    assert merged["coverage"] == pytest.approx(1.0)


def test_collapsed_lines_use_exclusive_micros(tmp_path):
    clock = _ManualClock()
    profiler = PhaseProfiler(wall=clock)
    with profiler.phase("run"):
        clock.now = 1.0
        with profiler.phase("recovery"):
            clock.now = 4.0
        clock.now = 5.0
    lines = collapsed_lines(profiler.to_dict())
    # run's exclusive time is 5s - 3s(child) = 2s; child keeps 3s.
    assert lines == ["run 2000000", "run;recovery 3000000"]
    path = tmp_path / "collapsed.txt"
    assert write_collapsed(profiler.to_dict(), str(path)) == 2
    assert path.read_text().splitlines() == lines


def test_coverage_reflects_unattributed_time():
    clock = _ManualClock()
    profiler = PhaseProfiler(wall=clock)
    profiler.start()
    with profiler.phase("run"):
        clock.now = 6.0
    clock.now = 10.0  # 4s of unattributed tail
    profiler.stop()
    profile = profiler.to_dict()
    assert profile["coverage"] == pytest.approx(0.6)

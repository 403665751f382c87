"""Telemetry through the scheduler: events, tracebacks, summaries."""

import json
import multiprocessing
import os

import pytest

from repro.harness import scheduler
from repro.harness.scheduler import (run_sweep, write_sweep_summary)
from repro.harness.spec import ExperimentSpec
from repro.obs.bus import EventBus

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

TINY = dict(num_tuples=200, num_txns=150, cache_bytes=64 * 1024)


def _specs(engines=("inp", "log")):
    return [ExperimentSpec.ycsb(engine, "balanced", "low", **TINY)
            for engine in engines]


def _capture(jobs, specs=None, **kwargs):
    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    outcomes = run_sweep(specs or _specs(), jobs=jobs, bus=bus,
                         heartbeat_s=0.0, **kwargs)
    return outcomes, events


# ----------------------------------------------------------------------
# Event stream shape (serial and parallel)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_emits_lifecycle_events(jobs):
    if jobs > 1 and not HAVE_FORK:
        pytest.skip("needs fork start method")
    outcomes, events = _capture(jobs)
    assert all(outcome.ok for outcome in outcomes)
    kinds = [event.kind for event in events]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "sweep_finished"
    assert kinds.count("point_started") == 2
    assert kinds.count("point_finished") == 2
    assert "heartbeat" in kinds
    assert "phase_enter" in kinds and "phase_exit" in kinds
    # Bus ordering: non-heartbeat events arrive in seq order.
    seqs = [event.seq for event in events
            if event.kind != "heartbeat"]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    started = events[0]
    assert started.data == {"points": 2, "jobs": jobs}
    finished = events[-1]
    assert finished.data["failed"] == 0
    # The closing record counts every publish before it, and a sink
    # sees every one of them.
    assert finished.data["published"] == len(events) - 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_per_point_events_bracket_phases(jobs):
    if jobs > 1 and not HAVE_FORK:
        pytest.skip("needs fork start method")
    __, events = _capture(jobs, specs=_specs(("inp",)))
    source = next(e.source for e in events
                  if e.kind == "point_started")
    assert source.startswith("0000-")
    point_events = [e for e in events if e.source == source]
    kinds = [e.kind for e in point_events]
    assert kinds[0] == "point_started"
    assert kinds[-1] == "point_finished"
    # Worker-side phase events arrive between the brackets.
    phases = [e.data["phase"] for e in point_events
              if e.kind == "phase_enter"]
    assert "setup" in phases and "run" in phases
    finished = point_events[-1]
    assert finished.data["ok"] is True
    assert finished.data["throughput"] > 0


def test_heartbeats_carry_txn_and_sim_clock_position():
    __, events = _capture(1, specs=_specs(("inp",)))
    beats = [e for e in events if e.kind == "heartbeat"]
    assert beats
    last = beats[-1]
    assert last.data["engine"] == "inp"
    assert last.data["txns"] > 0
    assert last.data["sim_ns"] > 0


def test_untelemetered_sweep_publishes_nothing():
    outcomes = run_sweep(_specs(("inp",)), jobs=1)
    assert outcomes[0].ok
    assert outcomes[0].result.phases is None


# ----------------------------------------------------------------------
# Failure reporting: full tracebacks, summaries, crash events
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_point_carries_full_traceback(jobs, tmp_path):
    if jobs > 1 and not HAVE_FORK:
        pytest.skip("needs fork start method")
    specs = _specs(("inp", "no-such-engine"))
    outcomes = run_sweep(specs, jobs=jobs,
                         artifacts_dir=str(tmp_path / str(jobs)))
    bad = outcomes[1]
    assert not bad.ok
    assert "Traceback (most recent call last)" in bad.error
    assert "ConfigError" in bad.error_summary
    assert "no-such-engine" in bad.error_summary
    assert "\n" not in bad.error_summary
    # The sweep summary persists the full traceback verbatim.
    summary = json.loads(
        (tmp_path / str(jobs) / "summary.json").read_text())
    point = summary["points"][1]
    assert point["error"] == bad.error


def test_retry_events_published_per_attempt():
    calls = {"n": 0}
    real = scheduler._execute_point

    def flaky(spec, observe, telemetry=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient-glitch")
        return real(spec, observe, telemetry)

    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    original = scheduler._execute_point
    scheduler._execute_point = flaky
    try:
        outcomes = run_sweep(_specs(("inp",)), jobs=1, retries=1,
                             retry_backoff_s=0.0, bus=bus,
                             heartbeat_s=0.0)
    finally:
        scheduler._execute_point = original
    assert outcomes[0].ok and outcomes[0].attempts == 2
    retried = [e for e in events if e.kind == "point_retried"]
    assert len(retried) == 1
    assert retried[0].data["attempt"] == 1
    assert "transient-glitch" in retried[0].data["error"]


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_worker_death_publishes_point_crashed(monkeypatch):
    real = scheduler._execute_point

    def boom(spec, observe, telemetry=None):
        if spec.engine == "log":
            os._exit(13)
        return real(spec, observe, telemetry)

    monkeypatch.setattr(scheduler, "_execute_point", boom)
    bus = EventBus()
    events = []
    bus.add_sink(events.append)
    outcomes = run_sweep(_specs(("inp", "log")), jobs=2, bus=bus,
                         heartbeat_s=0.0)
    assert outcomes[0].ok and not outcomes[1].ok
    crashed = [e for e in events if e.kind == "point_crashed"]
    assert len(crashed) == 1
    assert crashed[0].data["exitcode"] == 13


# ----------------------------------------------------------------------
# Determinism: telemetry must not leak into experiment output
# ----------------------------------------------------------------------

def test_bus_does_not_change_results():
    specs = _specs()
    plain = run_sweep(specs, jobs=1)
    bus = EventBus()
    bus.add_sink(lambda event: None)
    observed = run_sweep(specs, jobs=1, bus=bus, heartbeat_s=0.0)
    plain_json = json.dumps([o.result.to_dict() for o in plain])
    observed_json = json.dumps(
        [{**o.result.to_dict(), "phases": None} for o in observed])
    assert plain_json == json.dumps(
        [{**json.loads(observed_json)[i]} for i in range(2)])


def test_summary_round_trips_with_phases(tmp_path):
    bus = EventBus()
    outcomes = run_sweep(_specs(("inp",)), jobs=1, bus=bus,
                         heartbeat_s=0.0,
                         artifacts_dir=str(tmp_path))
    assert outcomes[0].result.phases is not None
    summary = json.loads((tmp_path / "summary.json").read_text())
    phases = summary["points"][0]["result"]["phases"]
    stacks = {entry["stack"] for entry in phases["phases"]}
    assert {"setup", "load", "run"} <= stacks
    assert phases["coverage"] > 0.9

"""Tests for the parallel experiment scheduler."""

import json
import multiprocessing
import os
import time

import pytest

from repro.errors import SweepError
from repro.harness import scheduler
from repro.harness.scheduler import (merged_session, results_or_raise,
                                     run_sweep)
from repro.harness.spec import ExperimentSpec
from repro.workloads.tpcc import TPCCConfig

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

TINY = dict(num_tuples=200, num_txns=150, cache_bytes=64 * 1024)


def _grid():
    return [ExperimentSpec.ycsb(engine, "balanced", "low",
                                latency=latency, **TINY)
            for engine in ("inp", "nvm-inp")
            for latency in ("dram", "high")]


def test_parallel_sweep_matches_serial_baseline():
    specs = _grid()
    serial = results_or_raise(run_sweep(specs, jobs=1))
    parallel = results_or_raise(run_sweep(specs, jobs=2))
    # Value-identical results, merged in spec order — the scheduler's
    # core determinism guarantee.
    assert serial == parallel
    assert [r.engine for r in parallel] == [s.engine for s in specs]


def test_parallel_sweep_exports_are_byte_identical():
    """Regression guard for the cache fast paths: the serialized sweep
    output — including float formatting of simulated times and dict
    insertion order — must not depend on worker count."""
    specs = _grid()
    serial = results_or_raise(run_sweep(specs, jobs=1))
    parallel = results_or_raise(run_sweep(specs, jobs=2))
    serial_json = json.dumps([r.to_dict() for r in serial])
    parallel_json = json.dumps([r.to_dict() for r in parallel])
    assert serial_json == parallel_json


def test_sweep_mixes_workloads():
    specs = [
        ExperimentSpec.ycsb("inp", "read-heavy", "low", **TINY),
        ExperimentSpec.tpcc("nvm-inp",
                            tpcc_config=TPCCConfig(
                                warehouses=1,
                                districts_per_warehouse=2,
                                customers_per_district=10, items=30,
                                initial_orders_per_district=5),
                            num_txns=40),
    ]
    results = results_or_raise(run_sweep(specs, jobs=2))
    assert results[0].workload == "ycsb/read-heavy/low"
    assert results[1].workload == "tpcc"


def test_serial_error_isolated_and_reported():
    specs = [ExperimentSpec.ycsb("inp", "balanced", "low", **TINY),
             ExperimentSpec.ycsb("no-such-engine", "balanced", "low",
                                 **TINY)]
    outcomes = run_sweep(specs, jobs=1)
    assert outcomes[0].ok
    assert not outcomes[1].ok and outcomes[1].error
    with pytest.raises(SweepError, match="no-such-engine"):
        results_or_raise(outcomes)


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_worker_crash_marks_only_its_point_failed(monkeypatch):
    real = scheduler._execute_point

    def boom(spec, observe, telemetry=None):
        if spec.engine == "nvm-inp":
            os._exit(13)  # simulated hard worker death
        return real(spec, observe, telemetry)

    monkeypatch.setattr(scheduler, "_execute_point", boom)
    specs = [ExperimentSpec.ycsb(engine, "balanced", "low", **TINY)
             for engine in ("inp", "nvm-inp", "log")]
    outcomes = run_sweep(specs, jobs=2)
    assert outcomes[0].ok and outcomes[2].ok
    assert not outcomes[1].ok
    assert "crash" in outcomes[1].error


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_worker_timeout_terminates_point(monkeypatch):
    real = scheduler._execute_point

    def stall(spec, observe, telemetry=None):
        if spec.engine == "log":
            time.sleep(60)
        return real(spec, observe, telemetry)

    monkeypatch.setattr(scheduler, "_execute_point", stall)
    specs = [ExperimentSpec.ycsb(engine, "balanced", "low", **TINY)
             for engine in ("inp", "log")]
    started = time.perf_counter()
    outcomes = run_sweep(specs, jobs=2, timeout_s=1.0)
    assert time.perf_counter() - started < 30
    assert outcomes[0].ok
    assert not outcomes[1].ok and "timeout" in outcomes[1].error


def test_artifacts_written_per_point_with_merged_summary(tmp_path):
    specs = [ExperimentSpec.ycsb(engine, "balanced", "low", **TINY)
             for engine in ("inp", "log")]
    outcomes = run_sweep(specs, jobs=2,
                         artifacts_dir=str(tmp_path))
    for outcome in outcomes:
        assert os.path.exists(outcome.artifacts["trace"])
        assert os.path.exists(outcome.artifacts["metrics"])
        assert outcome.result.latency_percentiles is not None
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["kind"] == "repro-sweep-summary"
    assert summary["failed"] == 0
    engines = [point["spec"]["engine"] for point in summary["points"]]
    assert engines == ["inp", "log"]  # spec order, not completion
    point = summary["points"][0]
    assert point["spec"]["seed"] == 31
    assert point["spec"]["cache_bytes"] == TINY["cache_bytes"]
    assert point["result"]["throughput"] > 0


def test_merged_session_matches_serial_exports(tmp_path):
    specs = [ExperimentSpec.ycsb(engine, "balanced", "low", **TINY)
             for engine in ("inp", "log")]
    serial = merged_session(run_sweep(specs, jobs=1, observe=True))
    parallel = merged_session(run_sweep(specs, jobs=2, observe=True))
    serial_trace = tmp_path / "serial.jsonl"
    parallel_trace = tmp_path / "parallel.jsonl"
    serial.export_trace(str(serial_trace))
    parallel.export_trace(str(parallel_trace))
    assert serial_trace.read_text() == parallel_trace.read_text()
    serial_prom = tmp_path / "serial.prom"
    parallel_prom = tmp_path / "parallel.prom"
    serial.export_metrics(str(serial_prom))
    parallel.export_metrics(str(parallel_prom))
    assert serial_prom.read_text() == parallel_prom.read_text()
